package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"roccc"
	"roccc/internal/bench"
	"roccc/internal/cc"
	"roccc/internal/dp"
	"roccc/internal/exp"
)

// divideSource is the elementwise divider whose planted zero divisor on
// a valid iteration must abort with the serial run's fault cycle (the
// same kernel internal/exp's serve sweep plants faults in).
const divideSource = `
int A[24];
int B[24];
int Q[24];
void divide() {
	int i;
	for (i = 0; i < 24; i++) {
		Q[i] = A[i] / B[i];
	}
}
`

// corpusNames are the six ci/corpus kernels (function k in each file).
var corpusNames = []string{"accum_feedback", "divider_chain", "mux_saturate", "scalar_mix", "stencil_cross", "window_taps"}

// kernel is one entry of the benchmark's fixed 20-kernel set.
type kernel struct {
	name string
	src  string
	fn   string
	opt  roccc.Options
	cfg  roccc.SystemConfig
	// divisor names the input array that must stay nonzero unless a
	// fault is planted on purpose.
	divisor string

	// Set by loadKernels from one compile of src.
	stream   bool // loop nest and at least one input array
	long     bool // a long stream (wavelet, the 4096-iteration FIR)
	iters    int
	info     *cc.Info
	res      *roccc.Result
	outputs  int // output values of one stream (array elements written plus feedback latches)
	feedback []string
}

// loadKernels builds the kernel set: the nine Table 1 rows with their
// row options, the Fig. 3/4/5 sources, the 4096-iteration FIR, the
// divider and the ci/corpus files under root. Each source is compiled
// once here to classify it; the compile loop never reuses these results.
func loadKernels(root string) ([]*kernel, error) {
	var ks []*kernel
	for _, b := range bench.All() {
		ks = append(ks, &kernel{name: b.Name, src: b.Source, fn: b.Func, opt: b.Options,
			cfg: roccc.SystemConfig{BusElems: b.BusElems, Scalars: b.Scalars}})
	}
	one := roccc.SystemConfig{BusElems: 1}
	def := roccc.DefaultOptions()
	ks = append(ks,
		&kernel{name: "fig3_fir", src: exp.Fig3Source, fn: "fir", opt: def, cfg: one},
		&kernel{name: "fig4_accum", src: exp.Fig4Source, fn: "accum", opt: def, cfg: one},
		&kernel{name: "fig5_if_else", src: exp.Fig5Source, fn: "if_else", opt: def, cfg: one},
		&kernel{name: "fir_4096", src: exp.LongFIRSource, fn: "fir", opt: def, cfg: one},
		&kernel{name: "divide", src: divideSource, fn: "divide", opt: def, cfg: one, divisor: "B"},
	)
	for _, name := range corpusNames {
		b, err := os.ReadFile(filepath.Join(root, "ci", "corpus", name+".c"))
		if err != nil {
			return nil, err
		}
		ks = append(ks, &kernel{name: name, src: string(b), fn: "k", opt: def, cfg: one})
	}
	for _, k := range ks {
		if err := k.classify(); err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
	}
	return ks, nil
}

func (k *kernel) classify() error {
	if n := strings.Count(k.src, "void "+k.fn+"("); n != 1 {
		return fmt.Errorf("want one definition of %s, found %d", k.fn, n)
	}
	file, err := cc.Parse(k.src)
	if err != nil {
		return err
	}
	if k.info, err = cc.Analyze(file); err != nil {
		return err
	}
	if k.res, err = roccc.Compile(k.src, k.fn, k.opt); err != nil {
		return err
	}
	kr := k.res.Kernel
	k.stream = kr.Nest.Depth() > 0 && len(kr.Reads) > 0
	k.iters = int(kr.Nest.TotalIterations())
	k.long = k.stream && (k.name == "wavelet" || k.name == "fir_4096")
	for _, fb := range k.res.Datapath.Feedbacks {
		k.feedback = append(k.feedback, fb.State.Name)
	}
	k.outputs = len(k.res.Datapath.Outputs)*k.iters + len(k.feedback)
	return nil
}

// renamed returns the source with the kernel function renamed to fn+tag
// and the new function name: text no earlier compile has seen, so a
// result cache keyed on the source cannot answer it.
func (k *kernel) renamed(tag string) (src, fn string) {
	fn = k.fn + tag
	return strings.Replace(k.src, "void "+k.fn+"(", "void "+fn+"(", 1), fn
}

func streaming(ks []*kernel) []*kernel {
	var out []*kernel
	for _, k := range ks {
		if k.stream {
			out = append(out, k)
		}
	}
	return out
}

func find(ks []*kernel, name string) *kernel {
	for _, k := range ks {
		if k.name == name {
			return k
		}
	}
	return nil
}

// template is one seeded input stream with its expected result.
type template struct {
	inputs map[string][]int64
	// Expected outputs and feedback latches from the cc interpreter, or
	// the serial interp System.Run fault for a planted zero divisor.
	outputs   map[string][]int64
	feedbacks map[string]int64
	fault     *dp.FaultError
}

// newTemplate draws one input stream for k. With fault set, one element
// of the divisor array is zero so a valid iteration divides by zero.
func (k *kernel) newTemplate(rng *rand.Rand, fault bool) (*template, error) {
	t := &template{inputs: map[string][]int64{}}
	for _, w := range k.res.Kernel.Reads {
		vals := make([]int64, w.Arr.Len())
		for i := range vals {
			if w.Arr.Name == k.divisor {
				vals[i] = rng.Int63n(97) + 1
				continue
			}
			vals[i] = w.Arr.Elem.Wrap(rng.Int63n(1 << uint(min(w.Arr.Elem.Bits, 16))))
		}
		if fault && w.Arr.Name == k.divisor {
			vals[rng.Intn(len(vals))] = 0
		}
		t.inputs[w.Arr.Name] = vals
	}
	if fault {
		return t, t.serialFault(k)
	}
	return t, t.interpret(k)
}

// interpret fills the expected values from the cc interpreter, which
// shares no code with the data-path compiler.
func (t *template) interpret(k *kernel) error {
	ip := cc.NewInterp(k.info)
	for name, vals := range t.inputs {
		ip.SetArray(name, vals)
	}
	if _, _, err := ip.Call(k.fn); err != nil {
		return fmt.Errorf("interpreter: %w", err)
	}
	t.outputs = map[string][]int64{}
	for _, w := range k.res.Kernel.Writes {
		t.outputs[w.Arr.Name] = append([]int64(nil), ip.Arrays[w.Arr.Name]...)
	}
	t.feedbacks = map[string]int64{}
	for _, name := range k.feedback {
		v, ok := ip.Globals[name]
		if !ok {
			return fmt.Errorf("interpreter has no global %q for feedback latch", name)
		}
		t.feedbacks[name] = v
	}
	return nil
}

// serialFault fills the expected fault from serial interp System.Run,
// the repository's reference execution path.
func (t *template) serialFault(k *kernel) error {
	cfg := k.cfg
	cfg.Serial = true
	cfg.Backend = roccc.BackendInterp
	sys, err := roccc.NewSystem(k.res, cfg)
	if err != nil {
		return err
	}
	for name, vals := range t.inputs {
		if err := sys.LoadInput(name, vals); err != nil {
			return err
		}
	}
	_, err = sys.Run()
	if !errors.As(err, &t.fault) {
		return fmt.Errorf("planted zero divisor: serial run returned %v, want a fault", err)
	}
	return nil
}

// check compares one finished stream with the template: the same
// outputs and feedback latches (or the same fault), and the kernel's
// cycle count when want > 0.
func (t *template) check(outputs map[string][]int64, feedbacks map[string]int64, cycles, want int, err error) error {
	if t.fault != nil {
		var fe *dp.FaultError
		if !errors.As(err, &fe) {
			return fmt.Errorf("planted fault: got %v, want %v", err, t.fault)
		}
		if *fe != *t.fault {
			return fmt.Errorf("planted fault: got %+v, want %+v", *fe, *t.fault)
		}
		return nil
	}
	if err != nil {
		return err
	}
	if want > 0 && cycles != want {
		return fmt.Errorf("%d cycles, want %d", cycles, want)
	}
	for name, exp := range t.outputs {
		got := outputs[name]
		if len(got) != len(exp) {
			return fmt.Errorf("%s has %d values, want %d", name, len(got), len(exp))
		}
		for i := range exp {
			if got[i] != exp[i] {
				return fmt.Errorf("%s[%d] = %d, want %d", name, i, got[i], exp[i])
			}
		}
	}
	for name, exp := range t.feedbacks {
		if got, ok := feedbacks[name]; !ok || got != exp {
			return fmt.Errorf("feedback %s = %d, want %d", name, got, exp)
		}
	}
	return nil
}

// runStream is what a pool does with one job, minus the checkout:
// Reset, LoadInput, Run, then output and feedback harvest into the job,
// reusing its buffers.
func (k *kernel) runStream(sys *roccc.System, job *roccc.SweepJob) error {
	sys.Reset()
	for name, vals := range job.Inputs {
		if err := sys.LoadInput(name, vals); err != nil {
			return err
		}
	}
	sim, err := sys.Run()
	if err != nil {
		return err
	}
	job.Cycles = sys.Cycles()
	if job.Outputs == nil {
		job.Outputs = map[string][]int64{}
	}
	for _, w := range k.res.Kernel.Writes {
		name := w.Arr.Name
		if len(job.Outputs[name]) != w.Arr.Len() {
			job.Outputs[name] = make([]int64, w.Arr.Len())
		}
		if err := sys.OutputInto(name, job.Outputs[name]); err != nil {
			return err
		}
	}
	if len(k.feedback) > 0 && job.Feedbacks == nil {
		job.Feedbacks = map[string]int64{}
	}
	for _, name := range k.feedback {
		job.Feedbacks[name], _ = sim.FeedbackByName(name)
	}
	return nil
}
