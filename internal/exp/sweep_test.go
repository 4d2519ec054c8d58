package exp

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/load"
	"roccc/internal/netlist"
	"roccc/internal/serve"
)

// The sweeps fail on any divergence from the serial interp reference,
// so these tests pin the matrix each one covers: which rows stream,
// which are refused, and how many streams fault.

const corpusDir = "../../ci/corpus"

func sweepSpecs(t *testing.T) []serve.KernelSpec {
	t.Helper()
	specs, err := SweepSpecs(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestScenarioKernelsAreServed pins what rocccload -addr needs of a
// live rocccserve, which registers SweepSpecs: every kernel the load
// scenario registers is in the matrix, spec for spec.
func TestScenarioKernelsAreServed(t *testing.T) {
	sc, err := load.BuildScenario(corpusDir, 0.05, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Specs) == 0 {
		t.Fatal("the scenario registers no kernels")
	}
	served := map[string]serve.KernelSpec{}
	for _, spec := range sweepSpecs(t) {
		served[spec.Name] = spec
	}
	for _, spec := range sc.Specs {
		got, ok := served[spec.Name]
		if !ok {
			t.Errorf("scenario kernel %s is not in SweepSpecs", spec.Name)
		} else if !reflect.DeepEqual(got, spec) {
			t.Errorf("%s: SweepSpecs has %+v, the scenario %+v", spec.Name, got, spec)
		}
	}
}

// streamed and combinational are the Table 1 rows and FIRs that must
// stream, and the Table 1 rows every path must refuse.
var (
	streamed      = []string{"fir_fig3", "fir_4096", "mul_acc", "fir", "dct", "wavelet"}
	combinational = []string{"bit_correlator", "udiv", "square_root", "cos", "arbitrary_lut"}
)

// checkMatrix pins the rows every sweep shares.
func checkMatrix(t *testing.T, tab *SweepTable, specs []serve.KernelSpec, streams int) {
	t.Helper()
	if len(tab.Rows) != len(specs) {
		t.Fatalf("%d rows for %d specs", len(tab.Rows), len(specs))
	}
	byName := map[string]SweepRow{}
	for _, r := range tab.Rows {
		byName[r.Kernel] = r
	}
	for _, name := range streamed {
		if r := byName[name]; r.Refused != "" || r.Streams != streams || r.Cycles <= 0 || r.Speedup <= 0 {
			t.Errorf("%s: row %+v, want %d verified streams", name, r, streams)
		}
	}
	for _, name := range combinational {
		if r := byName[name]; !strings.Contains(r.Refused, "no loop nest") {
			t.Errorf("%s: combinational row was not refused: %+v", name, r)
		}
	}
	if r, want := byName["divide_fault"], streams/2; r.Faults != want { // odd streams plant a zero
		t.Errorf("divide_fault: %d faults, want %d: %+v", r.Faults, want, r)
	}
	out := tab.String()
	for _, want := range []string{tab.Title, "DiffJob", "divide_fault", "refused: "} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q in:\n%s", want, out)
		}
	}
}

// TestPoolSweep: SystemPool.RunBatch shards the whole matrix, the Fig. 3
// FIR and the wide-bus DCT included, bit-identical to the reference.
func TestPoolSweep(t *testing.T) {
	specs := sweepSpecs(t)
	tab, err := PoolSweep(specs, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, tab, specs, 6)
	if !strings.Contains(tab.Title, "3 workers") {
		t.Errorf("title %q does not name the worker count", tab.Title)
	}
}

// poolRow runs PoolSweep on the one named kernel of the matrix.
func poolRow(t *testing.T, kernel string, streams, workers int) (SweepRow, *SweepTable) {
	t.Helper()
	specs, err := SweepSpecs("")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if s.Name != kernel {
			continue
		}
		tab, err := PoolSweep([]serve.KernelSpec{s}, streams, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 1 {
			t.Fatalf("%d rows for one spec", len(tab.Rows))
		}
		return tab.Rows[0], tab
	}
	t.Fatalf("no %s in the sweep matrix", kernel)
	return SweepRow{}, nil
}

// TestSystemSweep: the Fig. 3 FIR sharded over SystemPool.RunBatch must
// verify bit-identical against the reference (PoolSweep fails on any
// divergence) and report sane bookkeeping.
func TestSystemSweep(t *testing.T) {
	r, tab := poolRow(t, "fir_fig3", 12, 3)
	if r.Streams != 12 || !strings.Contains(tab.Title, "3 workers") {
		t.Fatalf("streams = %d, title %q; want 12 streams on 3 workers", r.Streams, tab.Title)
	}
	if r.Refused != "" || r.Faults != 0 {
		t.Fatalf("unexpected row: %+v", r)
	}
	if r.Cycles <= 0 {
		t.Fatal("no cycles recorded")
	}
	if r.Speedup <= 0 {
		t.Fatal("no speedup recorded")
	}
	if !strings.Contains(tab.String(), "fir_fig3") {
		t.Fatalf("report does not name the kernel:\n%s", tab)
	}
}

// TestDCTSystemSweep covers the wide-bus kernel path.
func TestDCTSystemSweep(t *testing.T) {
	r, _ := poolRow(t, "dct", 6, 2)
	if r.Kernel != "dct" || r.Streams != 6 || r.Refused != "" || r.Cycles <= 0 {
		t.Fatalf("unexpected result: %+v", r)
	}
}

// TestServeSweep: every kernel served over one single-slot TCP
// connection must be bit-identical to the reference, the fault divider
// must abort with the reference's fault, and the server must refuse
// each combinational Table 1 row with the reference's diagnosis.
func TestServeSweep(t *testing.T) {
	specs := sweepSpecs(t)
	tab, err := ServeSweep(specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, tab, specs, 4)
}

// TestFleetSweep: the pipelined client + router + sharded workers stack
// must be bit-identical to the reference for the whole matrix, the
// ci/corpus kernels included, with every shard pool balanced after the
// concurrent storm. The "threaded" run serves the default schedule
// walk; the "interp" run serves Serial Systems, the reference loop
// itself, through the same stack.
func TestFleetSweep(t *testing.T) {
	for _, path := range []struct {
		name   string
		serial bool
	}{{"interp", true}, {"threaded", false}} {
		t.Run(path.name, func(t *testing.T) {
			t.Parallel()
			specs := sweepSpecs(t)
			for i := range specs {
				specs[i].Config.Serial = path.serial
			}
			tab, err := FleetSweep(specs, 3, 3)
			if err != nil {
				t.Fatal(err)
			}
			checkMatrix(t, tab, specs, 3)
			corpus, corpusStreamed := 0, 0
			for _, r := range tab.Rows {
				if strings.HasPrefix(r.Kernel, "corpus_") {
					corpus++
					if r.Refused == "" {
						corpusStreamed++
					}
				}
			}
			// Straight-line corpus kernels (no loop nest) are verified via
			// the refusal path; the rest must stream bit-identical.
			if corpus < 5 || corpusStreamed < 3 {
				t.Fatalf("corpus coverage too thin: %d kernels, %d streamed", corpus, corpusStreamed)
			}
			if !strings.Contains(tab.Title, "3 shards") {
				t.Errorf("title %q does not name the shard count", tab.Title)
			}
		})
	}
}

// TestSysBatchSweep: the default System must be bit-identical to the
// reference across the matrix.
func TestSysBatchSweep(t *testing.T) {
	specs := sweepSpecs(t)
	tab, err := SysBatchSweep(specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkMatrix(t, tab, specs, 2)
}

// TestDiffKernelCatchesDivergence shows that a sweep can fail: a path
// that wraps the local System but corrupts one stream, or accepts a
// kernel the reference refuses, must fail the harness with an error
// naming the stream.
func TestDiffKernelCatchesDivergence(t *testing.T) {
	specs, err := SweepSpecs("")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]serve.KernelSpec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	local := func(mutate func(job *netlist.Job)) opener {
		return func(spec serve.KernelSpec, res *core.Result) (runFunc, error) {
			sys, err := netlist.NewSystem(res.Kernel, res.Datapath, spec.Config)
			if err != nil {
				return nil, err
			}
			return func(jobs []netlist.Job) error {
				for i := range jobs {
					jobs[i].Err = sys.RunJob(&jobs[i])
				}
				mutate(&jobs[1])
				return nil
			}, nil
		}
	}
	for _, tc := range []struct {
		name, kernel string
		open         opener
		want         string
	}{
		{"flipped output", "fir_fig3", local(func(j *netlist.Job) { j.Outputs["C"][3] ^= 1 }), "stream 1: C[3]"},
		{"dropped latch", "mul_acc", local(func(j *netlist.Job) { clear(j.Feedbacks) }), "stream 1: latch"},
		{"shifted fault", "divide_fault", local(func(j *netlist.Job) {
			var fe *dp.FaultError
			if errors.As(j.Err, &fe) {
				j.Err = &dp.FaultError{Op: fe.Op, Cycle: fe.Cycle + 1, Msg: fe.Msg}
			}
		}), "stream 1: fault"},
		{"accepted combinational kernel", "cos", func(serve.KernelSpec, *core.Result) (runFunc, error) {
			return func([]netlist.Job) error { return nil }, nil
		}, "stream 0: path returned <nil>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, ok := byName[tc.kernel]
			if !ok {
				t.Fatalf("no %s in the sweep matrix", tc.kernel)
			}
			if _, err := diffKernel(spec, 2, local(func(*netlist.Job) {})); err != nil {
				t.Fatalf("the faithful local path failed: %v", err)
			}
			_, err := diffKernel(spec, 2, tc.open)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diffKernel = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
