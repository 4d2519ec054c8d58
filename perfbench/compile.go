package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"roccc"
	"roccc/internal/cc"
	"roccc/internal/cfg"
	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/hir"
	"roccc/internal/ssa"
	"roccc/internal/synth"
	"roccc/internal/vm"
)

// compileWorkload takes every kernel of the set from C text through the
// whole tool flow, round after round, on one goroutine. Each round
// renames the kernel function, so no compile ever sees source text an
// earlier one saw.
type compileWorkload struct {
	cfg *config
	// Expected per kernel: the structural fingerprint of a reference
	// compile, and for streaming kernels one seeded stream checked
	// through the System each compile builds.
	want     []fingerprint
	stream   []*template
	jobs     []roccc.SweepJob
	setups   int
	measures int
	// unstable marks kernels whose VHDL text differed from the
	// reference compile's in some round.
	unstable []bool
}

// fingerprint is what one compile produced. The VHDL hash reads the
// text with the per-round function name mapped back to the original; it
// is compared separately, because the emitter's internal signal
// numbering is not stable from one compile to the next (udiv and
// square_root): the circuits are equivalent, so a differing text is
// counted (vhdl.unstable_kernels), not failed.
type fingerprint struct {
	ops, latches, latency int
	files                 int
	slices                int
	clockMHz              float64
	vhdl                  uint64
}

// compiled is the output of one pass through the tool flow.
type compiled struct {
	res   *roccc.Result
	files []roccc.VHDLFile
	rep   *roccc.Report
	sys   *roccc.System
}

func newCompileWorkload(c *config) (workload, error) {
	w := &compileWorkload{cfg: c}
	for i, k := range c.kernels {
		out, _, err := compileOnce(k, k.src, k.fn)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		w.want = append(w.want, fingerprintOf(out, k.fn, k.fn))
		var t *template
		var job roccc.SweepJob
		if k.stream {
			if t, err = k.newTemplate(rand.New(rand.NewSource(c.seed+int64(i))), false); err != nil {
				return nil, fmt.Errorf("%s: %w", k.name, err)
			}
			job.Inputs = t.inputs
		}
		w.stream = append(w.stream, t)
		w.jobs = append(w.jobs, job)
	}
	return w, nil
}

// setup is one warm-up round: every kernel once through the flow, so
// lazily built tables and the heap are in their steady state.
func (w *compileWorkload) setup() error {
	w.setups++
	for _, k := range w.cfg.kernels {
		src, fn := k.renamed(fmt.Sprintf("_w%d", w.setups))
		if _, _, err := compileOnce(k, src, fn); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
	}
	return nil
}

func (w *compileWorkload) teardown() {}

func (w *compileWorkload) measure(d time.Duration, tr *tracer) (*measurement, error) {
	ks := w.cfg.kernels
	m := &measurement{layer: map[string]float64{}}
	times := make(kernelTimes, len(ks))
	w.unstable = make([]bool, len(ks))
	mem := startMem()
	w.measures++
	deadline := time.Now().Add(d)
	for round := 0; time.Now().Before(deadline); round++ {
		for i, k := range ks {
			src, fn := k.renamed(fmt.Sprintf("_s%xm%dr%d", uint64(w.cfg.seed), w.measures, round))
			m.attempted++
			var out compiled
			var el time.Duration
			var err error
			if tr == nil {
				out, el, err = compileOnce(k, src, fn)
			} else {
				out, el, err = compileTraced(k, src, fn, tr, uint64(m.attempted))
				tr.flush()
			}
			if err == nil {
				err = w.check(i, out, fn)
			}
			if err != nil {
				m.fail(fmt.Errorf("%s: %w", k.name, err))
				continue
			}
			times[i].record(el)
		}
	}
	mem.stop(m.layer, m.attempted)
	unstable := 0
	for i, u := range w.unstable {
		if u {
			unstable++
			fmt.Printf("VHDL text of %s differs between compiles of the same source\n", ks[i].name)
		}
	}
	m.layer["vhdl.unstable_kernels"] = float64(unstable)
	for i, k := range ks {
		if times[i].n == 0 {
			return nil, fmt.Errorf("%s: no successful compile (first failure: %v)", k.name, m.firstErr)
		}
	}
	meds, p50, p99, n := times.summarize()
	rates := make([]float64, len(ks))
	for i, k := range ks {
		rates[i] = 1e3 / meds[i]
		m.rows = append(m.rows, row{"compile." + k.name + "_us", meds[i] * 1e3, "us"})
	}
	m.p50, m.p99, m.samples = p50, p99, n
	m.rate = geomean(rates)
	return m, nil
}

// check compares one compile with the reference: the same structure,
// VHDL and synthesis report, and for streaming kernels a System that
// computes what the cc interpreter computes in the reference cycle
// count.
func (w *compileWorkload) check(i int, out compiled, fn string) error {
	k := w.cfg.kernels[i]
	got := fingerprintOf(out, fn, k.fn)
	if got.vhdl != w.want[i].vhdl {
		w.unstable[i] = true
		got.vhdl = w.want[i].vhdl
	}
	if got != w.want[i] {
		return fmt.Errorf("compile output %+v, want %+v", got, w.want[i])
	}
	t := w.stream[i]
	if t == nil {
		return nil
	}
	job := &w.jobs[i]
	if err := k.runStream(out.sys, job); err != nil {
		return err
	}
	return t.check(job.Outputs, job.Feedbacks, job.Cycles, w.cfg.exact.Cycles[k.name], nil)
}

// compileOnce is the untraced operation: the public tool flow.
func compileOnce(k *kernel, src, fn string) (compiled, time.Duration, error) {
	var out compiled
	start := time.Now()
	res, err := roccc.Compile(src, fn, k.opt)
	if err != nil {
		return out, 0, err
	}
	files, err := roccc.GenerateVHDL(res)
	if err != nil {
		return out, 0, err
	}
	rep := roccc.Synthesize(res, k.cfg.BusElems)
	var sys *roccc.System
	if k.stream {
		if sys, err = roccc.NewSystem(res, k.cfg); err != nil {
			return out, 0, err
		}
	}
	el := time.Since(start)
	return compiled{res: res, files: files, rep: rep, sys: sys}, el, nil
}

// compileTraced is compileOnce with a span around each layer's public
// call. roccc.Compile is core.CompileSource, so the front end is called
// step by step here: cc.Parse, cc.Analyze, hir.Build, core.Compile.
// After the timed operation the back end is replayed on the extracted
// data-path function to split core.Compile's time by pass.
func compileTraced(k *kernel, src, fn string, tr *tracer, id uint64) (compiled, time.Duration, error) {
	var out compiled
	start := time.Now()
	root := tr.begin("roccc.pipeline", id, -1)
	s := tr.begin("cc.parse", id, root)
	file, err := cc.Parse(src)
	tr.end(s)
	if err != nil {
		return out, 0, err
	}
	s = tr.begin("cc.analyze", id, root)
	info, err := cc.Analyze(file)
	tr.end(s)
	if err != nil {
		return out, 0, err
	}
	s = tr.begin("hir.build", id, root)
	prog, err := hir.Build(info)
	tr.end(s)
	if err != nil {
		return out, 0, err
	}
	f := prog.Func(fn)
	if f == nil {
		return out, 0, fmt.Errorf("no kernel function %q", fn)
	}
	s = tr.begin("core.compile", id, root)
	res, err := core.Compile(prog, f, k.opt)
	tr.end(s)
	if err != nil {
		return out, 0, err
	}
	s = tr.begin("vhdl.emit", id, root)
	files, err := roccc.GenerateVHDL(res)
	tr.end(s)
	if err != nil {
		return out, 0, err
	}
	s = tr.begin("synth.report", id, root)
	rep := roccc.Synthesize(res, k.cfg.BusElems)
	tr.end(s)
	var sys *roccc.System
	if k.stream {
		s = tr.begin("netlist.build", id, root)
		sys, err = roccc.NewSystem(res, k.cfg)
		tr.end(s)
		if err != nil {
			return out, 0, err
		}
	}
	tr.end(root)
	el := time.Since(start)
	if _, err := replayBackEnd(res.Kernel, k.opt, tr, id); err != nil {
		return out, 0, fmt.Errorf("back-end replay: %w", err)
	}
	return compiled{res: res, files: files, rep: rep, sys: sys}, el, nil
}

// replayBackEnd reruns core.Compile's back end on the kernel's extracted
// data-path function, one span per pass, and returns the rebuilt data
// path. It must match the one core.Compile built (a self-test checks).
func replayBackEnd(kr *hir.Kernel, opt roccc.Options, tr *tracer, id uint64) (*dp.Datapath, error) {
	root := tr.begin("core.replay", id, -1)
	defer tr.end(root)
	s := tr.begin("vm.lower", id, root)
	rt, err := vm.Lower(kr.DP)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("cfg.build", id, root)
	g, err := cfg.Build(rt)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("ssa.convert", id, root)
	err = ssa.Convert(g)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("dp.build", id, root)
	d, err := dp.Build(kr, g)
	if err == nil {
		dp.InferWidths(d)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	period := opt.PeriodNs
	if period <= 0 {
		period = 5.0
	}
	s = tr.begin("dp.pipeline", id, root)
	err = dp.Pipeline(d, dp.PipelineConfig{Period: period, Delay: synth.OpDelay(d, false)})
	tr.end(s)
	return d, err
}

// fingerprintOf summarizes a compile; the VHDL hash reads every file
// name and body with the per-round name renamed back to the original.
func fingerprintOf(out compiled, fn, orig string) fingerprint {
	h := fnvHash(14695981039346656037)
	for _, f := range out.files {
		h.renamed(f.Name, fn, orig)
		h.renamed(f.Content, fn, orig)
	}
	return fingerprint{
		ops:      out.res.Datapath.NumOps(),
		latches:  out.res.Datapath.LatchCount(),
		latency:  out.res.Datapath.Latency(),
		files:    len(out.files),
		vhdl:     uint64(h),
		slices:   out.rep.Slices,
		clockMHz: out.rep.ClockMHz,
	}
}

// fnvHash is 64-bit FNV-1a over strings, without copying them.
type fnvHash uint64

func (h *fnvHash) str(s string) {
	for i := 0; i < len(s); i++ {
		*h = (*h ^ fnvHash(s[i])) * 1099511628211
	}
}

// renamed hashes s with every occurrence of fn read as orig.
func (h *fnvHash) renamed(s, fn, orig string) {
	for fn != orig {
		i := strings.Index(s, fn)
		if i < 0 {
			break
		}
		h.str(s[:i])
		h.str(orig)
		s = s[i+len(fn):]
	}
	h.str(s)
}

// memWindow measures allocations per operation over a measured window.
type memWindow struct{ before runtime.MemStats }

func startMem() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

func (w *memWindow) stop(layer map[string]float64, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(max(ops, 1))
	layer["mem.allocs_per_op"] = float64(after.Mallocs-w.before.Mallocs) / n
	layer["mem.alloc_kb_per_op"] = float64(after.TotalAlloc-w.before.TotalAlloc) / 1024 / n
}
