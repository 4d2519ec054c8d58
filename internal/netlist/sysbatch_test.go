package netlist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
)

// sysbatch_test.go pins the streak-batched System.Run bit-identical to
// the serial per-cycle path: outputs, feedback latches, cycle counts,
// BRAM fetch counts (the fetch-once property) and — on planted faults —
// the abort cycle and the full *dp.FaultError. The matrix covers the
// streamable Table 1 kernels (including the mul_acc feedback row),
// fuzzed window geometries chosen to produce every backpressure regime
// (stride under/at/over the bus width, 2-D strips), and divide-by-zero
// faults planted on valid iterations.

// diffRun runs the same streams through a serial interpreter System and
// a streak-batched System on cfg's execution backend, both via RunJob,
// and fails on any divergence DiffJob finds — the failing backend is
// named in the message. Two checks a Job cannot carry ride along: the
// system clock at an abort, and BRAM fetch parity on clean streams. It
// returns how many cycles the batched systems dispatched through the
// streak path, so callers can assert the batch machinery actually
// engaged.
func diffRun(t *testing.T, res *core.Result, cfg Config, streams []map[string][]int64, tag string) int {
	t.Helper()
	tag = fmt.Sprintf("%s[%v]", tag, cfg.Backend)
	// The reference is always the serial interpreter core, whatever
	// backend the batched system runs.
	scfg := cfg
	scfg.Serial = true
	scfg.Backend = dp.BackendInterp
	serial, err := NewSystem(res.Kernel, res.Datapath, scfg)
	if err != nil {
		t.Fatalf("%s: serial system: %v", tag, err)
	}
	bcfg := cfg
	bcfg.Serial = false
	batched, err := NewSystem(res.Kernel, res.Datapath, bcfg)
	if err != nil {
		t.Fatalf("%s: batched system: %v", tag, err)
	}
	batchedCycles := 0
	for si, inputs := range streams {
		ref, got := Job{Inputs: inputs}, Job{Inputs: inputs}
		ref.Err = serial.RunJob(&ref)
		got.Err = batched.RunJob(&got)
		if err := DiffJob(&got, &ref); err != nil {
			t.Fatalf("%s stream %d: batched %v", tag, si, err)
		}
		if ref.Err != nil {
			if serial.Cycles() != batched.Cycles() {
				t.Fatalf("%s stream %d: abort cycle mismatch: serial stopped at %d, batched at %d",
					tag, si, serial.Cycles(), batched.Cycles())
			}
			continue
		}
		batchedCycles += batched.BatchedCycles()
		// Fetch pacing parity: the streak executor replays the serial
		// memory stage, so every input BRAM must see the same number of
		// reads (each element exactly once when the sweep covers the
		// array, but parity is the property — not a specific count). A
		// faulted stream is exempt: the streak path prefetches its chunk
		// before the fault aborts it.
		for name, m := range serial.inBRAMs {
			sr, _ := m.Stats()
			br, _ := batched.inBRAMs[name].Stats()
			if sr != br {
				t.Fatalf("%s stream %d: BRAM %s reads: serial %d, batched %d", tag, si, name, sr, br)
			}
		}
	}
	return batchedCycles
}

// randStreams builds n random input streams for a compiled kernel.
func randStreams(res *core.Result, rng *rand.Rand, n int) []map[string][]int64 {
	streams := make([]map[string][]int64, n)
	for i := range streams {
		inputs := map[string][]int64{}
		for _, w := range res.Kernel.Reads {
			vals := make([]int64, w.Arr.Len())
			for j := range vals {
				vals[j] = rng.Int63n(511) - 256
			}
			inputs[w.Arr.Name] = vals
		}
		streams[i] = inputs
	}
	return streams
}

// TestSysBatchTable1 runs every streamable Table 1 row — including the
// mul_acc feedback kernel, whose 1024-iteration nest has no read arrays
// at all — through both dispatch paths.
func TestSysBatchTable1(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	for _, backend := range dp.Backends() {
		sawStreak := false
		for _, k := range bench.All() {
			res, err := k.Compile()
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			cfg := Config{BusElems: k.BusElems, Scalars: k.Scalars, Backend: backend}
			if _, err := NewSystem(res.Kernel, res.Datapath, cfg); err != nil {
				continue // combinational row: no loop nest to stream
			}
			bc := diffRun(t, res, cfg, randStreams(res, rng, 4), k.Name)
			if bc > 0 {
				sawStreak = true
			}
		}
		if !sawStreak {
			t.Fatalf("[%v] no Table 1 kernel dispatched a single streak chunk; the batch path never engaged", backend)
		}
	}
}

// TestSysBatchFuzzGeometry fuzzes the window geometry — tap offsets,
// stride vs bus width (supply-limited, balanced and supply-rich
// regimes), and 2-D strips — so the streak predictor sees every
// backpressure schedule, including ones where it must refuse to batch.
func TestSysBatchFuzzGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for ki := 0; ki < 24; ki++ {
		stride := 1 + rng.Intn(3)
		iters := 8 + rng.Intn(24)
		ntaps := 1 + rng.Intn(4)
		maxOff := 0
		taps := make([]int, ntaps)
		for i := range taps {
			taps[i] = rng.Intn(4)
			if taps[i] > maxOff {
				maxOff = taps[i]
			}
		}
		alen := stride*(iters-1) + maxOff + 1
		var expr strings.Builder
		for i, off := range taps {
			if i > 0 {
				expr.WriteString(" + ")
			}
			fmt.Fprintf(&expr, "%d*A[%d*i+%d]", rng.Intn(9)-4, stride, off)
		}
		src := fmt.Sprintf(`
int A[%d];
int C[%d];
void k() {
	int i;
	for (i = 0; i < %d; i = i + 1) {
		C[i] = %s;
	}
}
`, alen, iters, iters, expr.String())
		res, err := core.CompileSource(src, "k", core.Options{Optimize: ki%2 == 0, PeriodNs: 5})
		if err != nil {
			t.Fatalf("kernel %d: %v\n%s", ki, err, src)
		}
		bus := 1 + rng.Intn(4)
		tag := fmt.Sprintf("fuzz%d(stride=%d,bus=%d,taps=%d)", ki, stride, bus, ntaps)
		diffRun(t, res, Config{BusElems: bus}, randStreams(res, rng, 3), tag)
	}
}

// TestSysBatch2DStencils covers the row-strip boundary logic: 2-D
// windows stream strip by strip, and the predictor must stop each
// streak at the strip edge (the next strip needs whole new image rows).
func TestSysBatch2DStencils(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		rows, cols int
		eh, ew     int // window extent
		bus        int
	}{
		{10, 10, 3, 3, 1},
		{12, 12, 2, 4, 2},
		{9, 16, 3, 2, 4},
	} {
		var expr strings.Builder
		for r := 0; r < tc.eh; r++ {
			for c := 0; c < tc.ew; c++ {
				if r+c > 0 {
					expr.WriteString(" + ")
				}
				fmt.Fprintf(&expr, "%d*img[i+%d][j+%d]", rng.Intn(7)-3, r, c)
			}
		}
		oh, ow := tc.rows-tc.eh+1, tc.cols-tc.ew+1
		src := fmt.Sprintf(`
int img[%d][%d];
int out[%d][%d];
void k() {
	int i; int j;
	for (i = 0; i < %d; i++)
		for (j = 0; j < %d; j++)
			out[i][j] = %s;
}
`, tc.rows, tc.cols, oh, ow, oh, ow, expr.String())
		res, err := core.CompileSource(src, "k", core.DefaultOptions())
		if err != nil {
			t.Fatalf("stencil %dx%d: %v\n%s", tc.eh, tc.ew, err, src)
		}
		tag := fmt.Sprintf("stencil%dx%d(bus=%d)", tc.eh, tc.ew, tc.bus)
		diffRun(t, res, Config{BusElems: tc.bus}, randStreams(res, rng, 2), tag)
	}
}

// TestSysBatchFaultParity plants divide-by-zero faults on valid
// iterations at positions spanning fill, steady-state and drain-adjacent
// cycles; both paths must abort with the identical *dp.FaultError
// (operator class, data-path cycle, message) and the identical system
// cycle count, and clean streams through the same divider must agree
// end to end (drain bubbles feed the divider zeros that poison must
// mask).
func TestSysBatchFaultParity(t *testing.T) {
	const n = 24
	src := fmt.Sprintf(`
int A[%d];
int B[%d];
int Q[%d];
void divide() {
	int i;
	for (i = 0; i < %d; i++) {
		Q[i] = A[i] / B[i];
	}
}
`, n, n, n, n)
	res, err := core.CompileSource(src, "divide", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var streams []map[string][]int64
	mk := func(zeroAt int) map[string][]int64 {
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			a[i] = rng.Int63n(2000) - 1000
			b[i] = rng.Int63n(97) + 1
			if rng.Intn(2) == 0 {
				b[i] = -b[i]
			}
		}
		if zeroAt >= 0 {
			b[zeroAt] = 0
		}
		return map[string][]int64{"A": a, "B": b}
	}
	streams = append(streams, mk(-1)) // clean: bubbles must stay masked
	for _, at := range []int{0, 1, 5, n / 2, n - 2, n - 1} {
		streams = append(streams, mk(at))
	}
	for _, backend := range dp.Backends() {
		cfg := Config{BusElems: 1, Backend: backend}
		if bc := diffRun(t, res, cfg, streams, "divider"); bc == 0 {
			t.Fatalf("[%v] divider never dispatched a streak chunk; fault replay path untested", backend)
		}
	}
}

// TestSysBatchPoolPassthrough pins the pool plumbing: a SystemPool built
// without Config.Serial serves batched systems (the serve path inherits
// the streak speedup unchanged), and Put refuses a System whose dispatch
// path differs from the pool's configuration.
func TestSysBatchPoolPassthrough(t *testing.T) {
	k := bench.FIR()
	res, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{BusElems: k.BusElems}
	pool, err := NewSystemPool(res.Kernel, res.Datapath, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sys, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if sys.serial {
		t.Fatal("pool without Config.Serial built a serial System")
	}
	rng := rand.New(rand.NewSource(3))
	in := randStreams(res, rng, 1)[0]
	for name, vals := range in {
		if err := sys.LoadInput(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.BatchedCycles() == 0 {
		t.Fatal("pooled System.Run dispatched no streak cycles")
	}
	pool.Put(sys)

	scfg := cfg
	scfg.Serial = true
	foreign, err := NewSystem(res.Kernel, res.Datapath, scfg)
	if err != nil {
		t.Fatal(err)
	}
	before := pool.Stats()
	pool.Put(foreign)
	after := pool.Stats()
	if after.Rejected != before.Rejected+1 {
		t.Fatalf("serial System admitted into a batched pool (rejected %d -> %d)", before.Rejected, after.Rejected)
	}

	// A System on a different execution backend must be rejected too —
	// a threaded pool fed an interp System (or vice versa) would silently
	// change the dispatch path of later Gets.
	bcfg := cfg
	bcfg.Backend = dp.BackendInterp
	alien, err := NewSystem(res.Kernel, res.Datapath, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	before = pool.Stats()
	pool.Put(alien)
	after = pool.Stats()
	if after.Rejected != before.Rejected+1 {
		t.Fatalf("interp System admitted into a threaded pool (rejected %d -> %d)", before.Rejected, after.Rejected)
	}
	if after.Puts != before.Puts {
		t.Fatalf("backend-mismatched Put also counted as accepted (puts %d -> %d)", before.Puts, after.Puts)
	}
}
