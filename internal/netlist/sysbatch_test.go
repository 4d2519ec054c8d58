package netlist

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
)

// sysbatch_test.go pins the default System.Run, the walk of the plan's
// static memory schedule, bit-identical to the serial per-cycle path:
// outputs, feedback latches, cycle counts, BRAM read and write counts
// (the fetch-once property) and — on planted faults — the abort cycle
// and the full *dp.FaultError. The matrix covers the streamable Table 1
// kernels (including the mul_acc feedback row), fuzzed window
// geometries chosen to produce every backpressure regime (stride
// under/at/over the bus width, 2-D strips), latch kernels with
// mid-stream bubbles, divide-by-zero faults planted on valid
// iterations (including two dividers whose fault order depends on the
// feed spacing), and concurrent first Runs racing to derive one plan's
// schedule.

// diffRun runs the same streams through a serial System (the reference)
// and a default System, both via RunJob, and fails on any divergence
// DiffJob finds. A reference that fails without a fault needs the
// same error text. Checks a Job cannot carry ride along: the system
// clock at an abort, and BRAM read and write parity on every stream,
// faulted and failed ones included. It returns how many cycles the
// default systems dispatched off the schedule on clean streams, so
// callers can assert the batch machinery actually engaged.
func diffRun(t *testing.T, res *core.Result, cfg Config, streams []map[string][]int64, tag string) int {
	t.Helper()
	scfg := cfg
	scfg.Serial = true
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
		var fe *dp.FaultError
		if ref.Err != nil && !errors.As(ref.Err, &fe) {
			// A reference that failed without a fault (a store outside
			// its array) is no stream DiffJob compares: the default
			// path must fail with the same error.
			if got.Err == nil || got.Err.Error() != ref.Err.Error() {
				t.Fatalf("%s stream %d: batched error %v, reference %v", tag, si, got.Err, ref.Err)
			}
		} else if err := DiffJob(&got, &ref); err != nil {
			t.Fatalf("%s stream %d: batched %v", tag, si, err)
		}
		if ref.Err != nil {
			if serial.Cycles() != batched.Cycles() {
				t.Fatalf("%s stream %d: abort cycle mismatch: serial stopped at %d, batched at %d",
					tag, si, serial.Cycles(), batched.Cycles())
			}
		} else {
			batchedCycles += batched.BatchedCycles()
		}
		// Access parity: the schedule records the serial memory stage's
		// reads and the serial harvest's stores, so every input BRAM
		// must see the same number of reads (each element exactly once
		// when the sweep covers the array, but parity is the property —
		// not a specific count) and every output BRAM the same number
		// of writes. A faulted or failed stream replays on the serial
		// loop, so its counts are the reference's too.
		for name, m := range serial.inBRAMs {
			sr, _ := m.Stats()
			br, _ := batched.inBRAMs[name].Stats()
			if sr != br {
				t.Fatalf("%s stream %d: BRAM %s reads: serial %d, batched %d", tag, si, name, sr, br)
			}
		}
		for name, m := range serial.outBRAMs {
			_, sw := m.Stats()
			_, bw := batched.outBRAMs[name].Stats()
			if sw != bw {
				t.Fatalf("%s stream %d: BRAM %s writes: serial %d, batched %d", tag, si, name, sw, bw)
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
	sawChunk := false
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		cfg := Config{BusElems: k.BusElems, Scalars: k.Scalars}
		if _, err := NewSystem(res.Kernel, res.Datapath, cfg); err != nil {
			continue // combinational row: no loop nest to stream
		}
		bc := diffRun(t, res, cfg, randStreams(res, rng, 4), k.Name)
		if bc > 0 {
			sawChunk = true
		}
	}
	if !sawChunk {
		t.Fatal("no Table 1 kernel dispatched a single schedule chunk; the batch path never engaged")
	}
}

// TestSysBatchFuzzGeometry fuzzes the window geometry — tap offsets,
// stride vs bus width (supply-limited, balanced and supply-rich
// regimes), and 2-D strips — so the schedule derivation sees every
// backpressure pattern.
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

// TestSysBatch2DStencils covers the row-strip boundary: 2-D windows
// stream strip by strip, and the first window of each strip waits for
// whole new image rows, so the schedule stalls mid-run there. Two latch
// kernels pin that those mid-stream bubbles leave feedback latches
// alone: a 2-D window that also accumulates, and a 1-D accumulator
// reading with stride 4 over a 1-element bus, so three bubbles separate
// consecutive feeds. Each runs at two clock periods.
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
	for _, tc := range []struct{ name, src string }{
		{"window-accumulator", `
int img[10][10];
int out[8][8];
int acc;
void k() {
	int i; int j;
	acc = 0;
	for (i = 0; i < 8; i++)
		for (j = 0; j < 8; j++) {
			acc = acc + img[i][j] + img[i+2][j+2];
			out[i][j] = acc / (img[i+1][j+1] + 1000);
		}
}
`},
		{"stride4-accumulator", `
int A[96];
int C[24];
int sum;
void k() {
	int i;
	sum = 0;
	for (i = 0; i < 24; i++) {
		sum = sum + A[4*i]*A[4*i+3];
		C[i] = sum - A[4*i+1];
	}
}
`},
	} {
		for _, period := range []float64{5, 2} {
			res, err := core.CompileSource(tc.src, "k", core.Options{Optimize: true, PeriodNs: period})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(res.Kernel.Feedback) == 0 {
				t.Fatalf("%s: no feedback latch", tc.name)
			}
			streams := randStreams(res, rng, 2)
			tag := fmt.Sprintf("%s(period=%g)", tc.name, period)
			diffRun(t, res, Config{BusElems: 1}, streams, tag)
		}
	}
}

// TestSysBatchFaultParity plants divide-by-zero faults on valid
// iterations at positions spanning fill, steady-state and drain-adjacent
// cycles; both paths must abort with the identical *dp.FaultError
// (operator class, data-path cycle, message) and the identical system
// cycle count, and clean streams through the same divider must agree
// end to end (drain bubbles feed the divider zeros that poison must
// mask). The deep divider sits past stage 0, so its zeros at n-2 and
// n-1 abort inside the pipeline flush, after the final feed run. The
// bubbled dividers read with stride 4 over a 1-element bus, so three
// bubbles separate consecutive feeds, and the cube puts one divider
// stages deeper than the other: with zeros planted in B at iteration j
// and in C at iteration j+1, which fault comes first depends on how far
// apart the iterations are fed, so only a replay on the serial loop
// reports the reference's fault.
func TestSysBatchFaultParity(t *testing.T) {
	const n = 24
	for _, k := range []struct {
		name, expr string
		stride     int     // the input arrays hold stride*n elements
		periodNs   float64 // 0: the default clock period
		flush      bool    // the zero at n-1 aborts inside the flush
		pair       bool    // plant zeros in B at j and in C at j+1
	}{
		{"divider", "A[i] / B[i]", 1, 0, false, false},
		{"deep-divider", "(A[i] * A[i] * A[i]) / B[i]", 1, 0, true, false},
		{"bubbled-dividers", "(A[4*i]*A[4*i]*A[4*i]) / B[4*i] + A[4*i+1] / C[4*i]", 4, 2, false, true},
	} {
		arrays := []string{"A", "B"}
		if k.pair {
			arrays = append(arrays, "C")
		}
		var decl strings.Builder
		for _, a := range arrays {
			fmt.Fprintf(&decl, "int %s[%d];\n", a, k.stride*n)
		}
		src := fmt.Sprintf(`
%sint Q[%d];
void divide() {
	int i;
	for (i = 0; i < %d; i++) {
		Q[i] = %s;
	}
}
`, decl.String(), n, n, k.expr)
		opts := core.DefaultOptions()
		if k.periodNs > 0 {
			opts.PeriodNs = k.periodNs
		}
		res, err := core.CompileSource(src, "divide", opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		var streams []map[string][]int64
		// mk plants a zero divisor in each named array at the given
		// iteration (a negative one plants nothing).
		mk := func(zeroAt map[string]int) map[string][]int64 {
			in := map[string][]int64{}
			for _, name := range arrays {
				vals := make([]int64, k.stride*n)
				for i := range vals {
					if name == "A" {
						vals[i] = rng.Int63n(2000) - 1000
						continue
					}
					vals[i] = rng.Int63n(97) + 1
					if rng.Intn(2) == 0 {
						vals[i] = -vals[i]
					}
				}
				if at, ok := zeroAt[name]; ok && at >= 0 {
					vals[k.stride*at] = 0
				}
				in[name] = vals
			}
			return in
		}
		streams = append(streams, mk(nil)) // clean: bubbles must stay masked
		if k.pair {
			for _, j := range []int{0, 1, 5, n / 2, n - 3, n - 2} {
				streams = append(streams, mk(map[string]int{"B": j, "C": j + 1}))
			}
		} else {
			for _, at := range []int{0, 1, 5, n / 2, n - 2, n - 1} {
				streams = append(streams, mk(map[string]int{"B": at}))
			}
		}
		if k.flush {
			sys, err := NewSystem(res.Kernel, res.Datapath, Config{BusElems: 1})
			if err != nil {
				t.Fatal(err)
			}
			var fe *dp.FaultError
			if err := sys.RunJob(&Job{Inputs: streams[len(streams)-1]}); !errors.As(err, &fe) || fe.Cycle < n {
				t.Fatalf("%s: zero at n-1 aborted with %v, want a fault inside the flush (data-path cycle >= %d)", k.name, err, n)
			}
		}
		if bc := diffRun(t, res, Config{BusElems: 1}, streams, k.name); bc == 0 {
			t.Fatalf("%s never dispatched a schedule chunk; fault replay path untested", k.name)
		}
	}
}

// TestSysBatchStoreOutOfRange runs kernels that compile but store one
// iteration outside their output array, past the end or before the
// start. Both paths must fail with the serial harvest's error on the
// same cycle, and a divide-by-zero fault on the data-path cycle of that
// harvest must win on both: the serial loop steps the data path before
// it stores.
func TestSysBatchStoreOutOfRange(t *testing.T) {
	const n = 24
	for _, k := range []struct {
		name, store, expr string
		divides           bool
	}{
		{"past-the-end", "Q[i+1]", "A[i] + D[i]", false},
		{"before-the-start", "Q[i-1]", "A[i] - D[i]", false},
		{"divider", "Q[i-1]", "A[i] / D[i]", true},
		{"deep-divider", "Q[i-1]", "(A[i] * A[i] * A[i]) / D[i]", true},
	} {
		src := fmt.Sprintf(`
int A[%d];
int D[%d];
int Q[%d];
void k() {
	int i;
	for (i = 0; i < %d; i++) {
		%s = %s;
	}
}
`, n, n, n, n, k.store, k.expr)
		res, err := core.CompileSource(src, "k", core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		rng := rand.New(rand.NewSource(5))
		streams := []map[string][]int64{}
		for zeroAt := -1; zeroAt < n; zeroAt++ {
			a := make([]int64, n)
			d := make([]int64, n)
			for i := range a {
				a[i] = rng.Int63n(2000) - 1000
				d[i] = rng.Int63n(97) + 1
			}
			if zeroAt >= 0 {
				d[zeroAt] = 0
			}
			streams = append(streams, map[string][]int64{"A": a, "D": d})
		}
		// The reference: every clean stream fails on the bad store, and
		// in the dividers some planted zero faults on its very cycle.
		ref, err := NewSystem(res.Kernel, res.Datapath, Config{BusElems: 1, Serial: true})
		if err != nil {
			t.Fatal(err)
		}
		storeErr := ref.RunJob(&Job{Inputs: streams[0]})
		if storeErr == nil || !strings.Contains(storeErr.Error(), "write address") {
			t.Fatalf("%s: reference returned %v, want a store out of range", k.name, storeErr)
		}
		storeCycle, coincident := ref.Cycles(), false
		for _, in := range streams[1:] {
			var fe *dp.FaultError
			if err := ref.RunJob(&Job{Inputs: in}); errors.As(err, &fe) && ref.Cycles() == storeCycle {
				coincident = true
			}
		}
		if coincident != k.divides {
			t.Fatalf("%s: a fault on the bad store's cycle %d: %v, want %v", k.name, storeCycle, coincident, k.divides)
		}
		// The failed derivation is a finding of the verifier, and the
		// only one: no Run walks a failed schedule's tables.
		p := ref.plan
		if vs := verifySchedule(p, p.scheduleFor()); len(vs) != 1 || !strings.Contains(vs[0].Detail, "derivation failed") {
			t.Fatalf("%s: the failed schedule verifies as %v, want its derivation error alone", k.name, vs)
		}
		diffRun(t, res, Config{BusElems: 1}, streams, k.name)
	}
}

// TestSysBatchOverlappingStores runs a kernel whose one write port
// stores two elements per iteration at overlapping addresses: B[i+1]
// of iteration i is overwritten by B[i] of iteration i+1. The store
// order decides the result, so both paths must store iteration by
// iteration, each iteration's elements in order, and give C semantics:
// B[k] = A[k] for k < 16, and B[16] = A[15] + 1.
func TestSysBatchOverlappingStores(t *testing.T) {
	const n = 16
	src := fmt.Sprintf(`
int A[%d];
int B[%d];
void k() {
	int i;
	for (i = 0; i < %d; i++) {
		B[i] = A[i];
		B[i+1] = A[i] + 1;
	}
}
`, n, n+1, n)
	res, err := core.CompileSource(src, "k", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	streams := randStreams(res, rng, 3)
	for _, bus := range []int{1, 2, 4} {
		cfg := Config{BusElems: bus}
		tag := fmt.Sprintf("overlap(bus=%d)", bus)
		if bc := diffRun(t, res, cfg, streams, tag); bc == 0 {
			t.Fatalf("%s never dispatched a schedule chunk", tag)
		}
		sys, err := NewSystem(res.Kernel, res.Datapath, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for si, in := range streams {
			job := Job{Inputs: in}
			if err := sys.RunJob(&job); err != nil {
				t.Fatalf("%s stream %d: %v", tag, si, err)
			}
			a, b := in["A"], job.Outputs["B"]
			for e := 0; e < n; e++ {
				if b[e] != a[e] {
					t.Fatalf("%s stream %d: B[%d] = %d, want A[%d] = %d", tag, si, e, b[e], e, a[e])
				}
			}
			if b[n] != a[n-1]+1 {
				t.Fatalf("%s stream %d: B[%d] = %d, want A[%d]+1 = %d", tag, si, n, b[n], n-1, a[n-1]+1)
			}
		}
	}
}

// TestSysBatchPoolPassthrough pins the pool plumbing: a SystemPool built
// without Config.Serial serves default systems (the serve path inherits
// the schedule walk unchanged), and Put refuses a System whose dispatch
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
	if sys.BatchedCycles() != sys.Cycles() {
		t.Fatalf("pooled System.Run dispatched %d of %d cycles off the schedule, want all", sys.BatchedCycles(), sys.Cycles())
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
	if after.Puts != before.Puts {
		t.Fatalf("rejected Put also counted as accepted (puts %d -> %d)", before.Puts, after.Puts)
	}
}

// TestScheduleConcurrentFirstRun starts the first Runs of 8 Systems
// over a freshly compiled kernel from 8 goroutines at once, so they
// race to derive the plan's memory schedule. Every stream must still be
// bit-identical to the serial interp reference, and the plan must end
// up holding one schedule, the one every System walked.
func TestScheduleConcurrentFirstRun(t *testing.T) {
	const n = 8
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	systems := make([]*System, n)
	for i := range systems {
		if systems[i], err = NewSystem(res.Kernel, res.Datapath, Config{BusElems: 1}); err != nil {
			t.Fatal(err)
		}
	}
	plan := systems[0].plan
	ref, err := NewSystem(res.Kernel, res.Datapath, Config{BusElems: 1, Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	streams := randStreams(res, rand.New(rand.NewSource(17)), n)
	want := make([]Job, n)
	for i := range want {
		want[i].Inputs = streams[i]
		want[i].Err = ref.RunJob(&want[i])
	}
	if plan.sched != nil {
		t.Fatal("the plan holds a schedule before any default-path Run")
	}

	got := make([]Job, n)
	seen := make([]*memSchedule, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range systems {
		go func(i int) {
			defer wg.Done()
			<-start
			got[i].Inputs = streams[i]
			got[i].Err = systems[i].RunJob(&got[i])
			seen[i] = systems[i].plan.scheduleFor()
		}(i)
	}
	close(start)
	wg.Wait()

	if plan.sched == nil {
		t.Fatal("no schedule on the plan after the first Runs")
	}
	for i := range got {
		if err := DiffJob(&got[i], &want[i]); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		if systems[i].plan != plan || seen[i] != plan.sched {
			t.Fatalf("System %d walked schedule %p of plan %p; the kernel's plan %p holds %p",
				i, seen[i], systems[i].plan, plan, plan.sched)
		}
	}
	assertSysInvariant(t, verifySchedule(plan, plan.sched), "")
}
