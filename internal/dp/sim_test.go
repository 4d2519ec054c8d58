package dp_test

import (
	"math/rand"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
)

// sim_test.go pins the compiled simulator (dp.Sim) to the map-based
// reference implementation (dp.RefSim): both are stepped in lockstep —
// including interleaved Drain bubbles and feedback kernels — and every
// output of every cycle must be bit-identical, as must the final
// feedback-latch state. It also gates the performance contract: Step
// must not allocate in steady state, even over ~1M cycles (the seed's
// grow-only validLog leaked one bool per cycle).

// lockstep drives both simulators through the same schedule of Step and
// Drain calls and compares every visible output.
func lockstep(t *testing.T, d *dp.Datapath, name string, vecs [][]int64, drainEvery int) {
	t.Helper()
	fast := dp.NewSim(d)
	ref := dp.NewRefSim(d)
	if fast.Latency() != ref.Latency() {
		t.Fatalf("%s: latency %d != reference %d", name, fast.Latency(), ref.Latency())
	}
	cycle := 0
	check := func(fo, ro []int64, ferr, rerr error, what string) {
		if (ferr != nil) != (rerr != nil) {
			t.Fatalf("%s: cycle %d (%s): error mismatch: fast %v, ref %v", name, cycle, what, ferr, rerr)
		}
		if ferr != nil {
			return
		}
		for i := range ro {
			if fo[i] != ro[i] {
				t.Fatalf("%s: cycle %d (%s): output %d: fast %d != ref %d",
					name, cycle, what, i, fo[i], ro[i])
			}
		}
	}
	for _, in := range vecs {
		if drainEvery > 0 && cycle%drainEvery == drainEvery-1 {
			fo, ferr := fast.Drain()
			ro, rerr := ref.Drain()
			check(fo, ro, ferr, rerr, "drain")
			cycle++
		}
		fo, ferr := fast.Step(in)
		ro, rerr := ref.Step(in)
		check(fo, ro, ferr, rerr, "step")
		cycle++
	}
	// Flush the pipeline so every admitted iteration is observed.
	for i := 0; i <= d.Stages+1; i++ {
		fo, ferr := fast.Drain()
		ro, rerr := ref.Drain()
		check(fo, ro, ferr, rerr, "flush")
		cycle++
	}
	for v, rv := range ref.State {
		if fv, ok := fast.FeedbackByName(v.Name); !ok || fv != rv {
			t.Fatalf("%s: feedback %s: fast %d != ref %d", name, v.Name, fv, rv)
		}
	}
}

// randomVectors builds per-port random input vectors sized to each
// port's declared type.
func randomVectors(res *core.Result, n int, rng *rand.Rand) [][]int64 {
	vecs := make([][]int64, n)
	for i := range vecs {
		in := make([]int64, len(res.Datapath.Inputs))
		for j, p := range res.Datapath.Inputs {
			span := p.Var.Type.MaxVal() - p.Var.Type.MinVal() + 1
			if span <= 0 { // 64-bit types: any value wraps
				in[j] = rng.Int63()
			} else {
				in[j] = p.Var.Type.MinVal() + rng.Int63n(span)
			}
		}
		vecs[i] = in
	}
	return vecs
}

// TestDifferentialBenchKernels checks fast-vs-reference bit identity on
// every Table 1 kernel, with and without interleaved pipeline bubbles.
func TestDifferentialBenchKernels(t *testing.T) {
	for _, k := range bench.All() {
		t.Run(k.Name, func(t *testing.T) {
			res, err := k.Compile()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(k.Name))))
			vecs := randomVectors(res, 64, rng)
			lockstep(t, res.Datapath, k.Name, vecs, 0)
			lockstep(t, res.Datapath, k.Name+"/bubbles", vecs, 3)
		})
	}
}

// TestDifferentialFeedback pins the SNX/LPR latch path (Fig. 7): the
// accumulator's feedback must commit identically through real steps and
// be held identically across bubbles.
func TestDifferentialFeedback(t *testing.T) {
	src := `
int32 acc;
void accum(int16 x) {
	acc = acc + x;
}
`
	res, err := core.CompileSource(src, "accum", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datapath.Feedbacks) != 1 {
		t.Fatalf("feedbacks = %d, want 1", len(res.Datapath.Feedbacks))
	}
	rng := rand.New(rand.NewSource(7))
	vecs := randomVectors(res, 200, rng)
	lockstep(t, res.Datapath, "accum", vecs, 0)
	lockstep(t, res.Datapath, "accum/bubbles", vecs, 2)
}

// TestStepZeroAllocs is the allocation gate: once the execution plan is
// compiled, steady-state Step and Drain must not allocate at all. Run
// over ~1M cycles this doubles as the regression test for the seed's
// unbounded validLog: a grow-only log would show amortized appends here.
func TestStepZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-cycle allocation gate skipped in -short mode")
	}
	for _, name := range []string{"dct", "mul_acc"} {
		var k bench.Kernel
		for _, cand := range bench.All() {
			if cand.Name == name {
				k = cand
			}
		}
		res, err := k.Compile()
		if err != nil {
			t.Fatal(err)
		}
		sim := dp.NewSim(res.Datapath)
		in := make([]int64, len(res.Datapath.Inputs))
		for i := range in {
			in[i] = int64(i%13) - 6
		}
		// Warm the pipeline past its depth so every path is exercised.
		for i := 0; i < res.Datapath.Stages+2; i++ {
			if _, err := sim.Step(in); err != nil {
				t.Fatal(err)
			}
		}
		const cycles = 1_000_000
		steps := testing.AllocsPerRun(cycles/2, func() {
			if _, err := sim.Step(in); err != nil {
				t.Fatal(err)
			}
		})
		drains := testing.AllocsPerRun(cycles/2, func() {
			if _, err := sim.Drain(); err != nil {
				t.Fatal(err)
			}
		})
		if steps != 0 {
			t.Errorf("%s: Step allocates %.2f objects/cycle in steady state, want 0", name, steps)
		}
		if drains != 0 {
			t.Errorf("%s: Drain allocates %.2f objects/cycle in steady state, want 0", name, drains)
		}
	}
}

// TestDifferentialAfterError pins the discard-on-error semantics: a
// cycle that faults (division by zero) must leave both simulators'
// pipeline state untouched, so stepping on afterwards stays
// bit-identical — the aborted cycle never happened.
func TestDifferentialAfterError(t *testing.T) {
	src := `
void divide(int16 a, int16 b, int16* y) {
	*y = a / b;
}
`
	res, err := core.CompileSource(src, "divide", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fast := dp.NewSim(res.Datapath)
	ref := dp.NewRefSim(res.Datapath)
	step := func(in []int64, wantErr bool) {
		t.Helper()
		fo, ferr := fast.Step(in)
		ro, rerr := ref.Step(in)
		if (ferr != nil) != wantErr || (rerr != nil) != wantErr {
			t.Fatalf("Step(%v): fast err %v, ref err %v, want error %v", in, ferr, rerr, wantErr)
		}
		if wantErr {
			return
		}
		for i := range ro {
			if fo[i] != ro[i] {
				t.Fatalf("Step(%v): output %d: fast %d != ref %d", in, i, fo[i], ro[i])
			}
		}
	}
	step([]int64{100, 2}, false)
	step([]int64{50, 0}, true) // divide by zero: cycle discarded
	for i := int64(1); i < 40; i++ {
		step([]int64{100 + i, i}, false)
	}
	if fast.Cycle() != ref.Cycle() {
		t.Fatalf("cycle count: fast %d != ref %d", fast.Cycle(), ref.Cycle())
	}
}

// TestDrainPoisonMasksDivide pins the bubble/poison semantics on a
// divider: drain bubbles feed the divider a zero divisor, which the
// seed trapped on; poisoned lanes must mask the fault in both
// simulators, bit-identically, while a divide-by-zero on a valid
// iteration still errors in both.
func TestDrainPoisonMasksDivide(t *testing.T) {
	src := `
void divmod(int16 a, int16 b, int16* q, int16* r) {
	*q = a / b;
	*r = a % b;
}
`
	res, err := core.CompileSource(src, "divmod", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Valid iterations with nonzero divisors, bubbles interleaved every
	// other cycle: every bubble pushes a zero divisor down the pipe.
	rng := rand.New(rand.NewSource(11))
	vecs := make([][]int64, 64)
	for i := range vecs {
		vecs[i] = []int64{rng.Int63n(4096) - 2048, rng.Int63n(200) + 1}
	}
	lockstep(t, res.Datapath, "divmod/bubbles", vecs, 2)

	// A zero divisor on a valid iteration is a genuine fault in both.
	fast := dp.NewSim(res.Datapath)
	ref := dp.NewRefSim(res.Datapath)
	if _, err := fast.Step([]int64{7, 0}); err == nil {
		t.Error("fast: valid divide by zero did not fault")
	}
	if _, err := ref.Step([]int64{7, 0}); err == nil {
		t.Error("ref: valid divide by zero did not fault")
	}
	// The faulted cycle was discarded in both: draining from here must
	// stay bit-identical (and must not fault — the pipeline only holds
	// bubbles).
	for i := 0; i < res.Datapath.Stages+2; i++ {
		fo, ferr := fast.Drain()
		ro, rerr := ref.Drain()
		if ferr != nil || rerr != nil {
			t.Fatalf("drain after fault: fast %v, ref %v", ferr, rerr)
		}
		for j := range ro {
			if fo[j] != ro[j] {
				t.Fatalf("drain %d output %d: fast %d != ref %d", i, j, fo[j], ro[j])
			}
		}
	}
}

// TestSimResetReuse pins Sim.Reset: after a reset the simulator must be
// indistinguishable from a freshly built one — same outputs on the same
// schedule, feedback latches back at their init values — without
// recompiling the plan.
func TestSimResetReuse(t *testing.T) {
	src := `
int32 acc;
void accum(int16 x) {
	acc = acc + x;
}
`
	res, err := core.CompileSource(src, "accum", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	vecs := randomVectors(res, 50, rng)
	sim := dp.NewSim(res.Datapath)
	run := func() ([][]int64, int64) {
		outs, err := sim.Run(vecs)
		if err != nil {
			t.Fatal(err)
		}
		sum, ok := sim.FeedbackByName("acc")
		if !ok {
			t.Fatal("no feedback latch named acc")
		}
		return outs, sum
	}
	first, firstSum := run()
	sim.Reset()
	if v, _ := sim.FeedbackByName("acc"); v != 0 {
		t.Fatalf("acc after Reset = %d, want init 0", v)
	}
	if sim.Cycle() != 0 {
		t.Fatalf("cycle after Reset = %d", sim.Cycle())
	}
	second, secondSum := run()
	if firstSum != secondSum {
		t.Fatalf("feedback after rerun: %d != %d", secondSum, firstSum)
	}
	for i := range first {
		for j := range first[i] {
			if first[i][j] != second[i][j] {
				t.Fatalf("rerun output %d/%d: %d != %d", i, j, second[i][j], first[i][j])
			}
		}
	}
}

// TestFeedbackByName pins the O(1) name→latch index: it must agree with
// RefSim's latch and reject unknown names.
func TestFeedbackByName(t *testing.T) {
	src := `
int32 acc;
void accum(int16 x) {
	acc = acc + x;
}
`
	res, err := core.CompileSource(src, "accum", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sim := dp.NewSim(res.Datapath)
	ref := dp.NewRefSim(res.Datapath)
	in := []int64{5}
	for i := 0; i < res.Datapath.Stages+4; i++ {
		if _, err := sim.Step(in); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Step(in); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := sim.FeedbackByName("acc")
	if !ok {
		t.Fatal("acc not found")
	}
	want := ref.State[res.Datapath.Feedbacks[0].State]
	if got != want {
		t.Fatalf("FeedbackByName = %d, RefSim latch = %d", got, want)
	}
	if _, ok := sim.FeedbackByName("no_such_latch"); ok {
		t.Error("unknown latch name reported found")
	}
}

// TestRunMatchesReference keeps the batch API pinned too: Sim.Run and
// RefSim.Run agree on the FIR kernel.
func TestRunMatchesReference(t *testing.T) {
	k := bench.FIR()
	res, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	vecs := randomVectors(res, 40, rng)
	fast, err := dp.NewSim(res.Datapath).Run(vecs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dp.NewRefSim(res.Datapath).Run(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(ref) {
		t.Fatalf("iterations: fast %d != ref %d", len(fast), len(ref))
	}
	for i := range ref {
		for j := range ref[i] {
			if fast[i][j] != ref[i][j] {
				t.Fatalf("iteration %d output %d: fast %d != ref %d", i, j, fast[i][j], ref[i][j])
			}
		}
	}
}
