package dp_test

import (
	"errors"
	"math/rand"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/vm"
)

// backend_test.go pins the one fast path against the one reference:
// RunN runs the same workloads as the Step/Drain loop and must match it
// bit for bit — outputs, feedback state, cycle counts, and on faulting
// schedules the typed *FaultError (operator class and abort cycle). The
// tests cover the Table 1 kernels (including the feedback kernels),
// fuzzed kernels with and without faulting divisions, random schedules
// with bubbles in flight, and planted divide-by-zero iterations.

// TestBackendDifferentialBenchKernels runs every Table 1 kernel through
// random RunN schedules against the Step/Drain loop (a second seed
// beside TestStepNDifferentialBenchKernels), plus two latch kernels
// whose feedback cone sits past stage 0 (a closed-form and a
// lane-serial one) and whose update moves the latch even on a bubble's
// zero inputs: a RunN that starts with bubbles in flight must not let
// them commit the latch.
func TestBackendDifferentialBenchKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	var shapes schedShapes
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		diffSchedule(t, k.Name, res.Datapath, rng, inAny, 3000, &shapes)
	}
	for _, k := range []struct{ name, update string }{
		{"late-closed-form", "acc = acc + (a * b + 7);"},
		{"late-lane-serial", "acc = acc * 3 + (a * b + 7);"},
	} {
		src := "int32 acc;\nvoid k(int16 a, int16 b, int32* q) {\n\tint i;\n\tacc = 0;\n\tfor (i = 0; i < 1024; i++) {\n\t\t" +
			k.update + "\n\t\t*q = acc;\n\t}\n}\n"
		res, err := core.CompileSource(src, "k", core.Options{Optimize: true, PeriodNs: 2.5})
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if got := dp.NewSim(res.Datapath).HasClosedFormCone(); got != (k.name == "late-closed-form") {
			t.Fatalf("%s: HasClosedFormCone = %v", k.name, got)
		}
		lprStage := -1
		for _, op := range res.Datapath.Ops {
			if op.Instr.Op == vm.LPR {
				lprStage = op.Stage
			}
		}
		if lprStage < 1 {
			t.Fatalf("%s: the latch is read in stage %d, want a cone past stage 0", k.name, lprStage)
		}
		diffSchedule(t, k.name, res.Datapath, rng, inAny, 3000, &shapes)
	}
	shapes.requireAll(t)
}

// TestBackendDifferentialFuzz extends the schedules to fuzzed kernels,
// rotating division-free kernels with division kernels fed occasional
// zeros (RunN must abort on the reference's cycle with the reference's
// fault).
func TestBackendDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1905))
	var shapes schedShapes
	const kernels = 18
	for ki := 0; ki < kernels; ki++ {
		withDiv := ki%3 != 2
		src, _ := generateKernelDiv(rng, 2+rng.Intn(3), 3+rng.Intn(4), 1+rng.Intn(2), withDiv)
		res, err := core.CompileSource(src, "k", core.Options{
			Optimize: ki%2 == 0,
			PeriodNs: []float64{2.5, 5, 1000}[ki%3],
		})
		if err != nil {
			t.Fatalf("kernel %d failed to compile: %v\n%s", ki, err, src)
		}
		mode := inAny
		if withDiv {
			mode = inZeros
		}
		diffSchedule(t, src, res.Datapath, rng, mode, 1500, &shapes)
	}
	shapes.requireAll(t)
}

// TestBackendFaultParity plants exactly one zero divisor at assorted
// positions (chunk boundaries included) and requires RunBatch to abort
// with the fault of the serial Run on its cycle.
func TestBackendFaultParity(t *testing.T) {
	src := `
void k(int a, int b, int* q) {
	*q = a / b;
}
`
	res, err := core.CompileSource(src, "k", core.Options{Optimize: true, PeriodNs: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, zeroAt := range []int{0, 1, 37, 255, 256, 299} {
		iters := make([][]int64, 300)
		for i := range iters {
			iters[i] = []int64{int64(i + 1), int64(i%97 + 1)}
			if i == zeroAt {
				iters[i][1] = 0
			}
		}
		ref := dp.NewSim(res.Datapath)
		_, rerr := ref.Run(iters)
		var rf *dp.FaultError
		if !errors.As(rerr, &rf) {
			t.Fatalf("zeroAt=%d: Run did not raise a FaultError: %v", zeroAt, rerr)
		}
		sim := dp.NewSim(res.Datapath)
		_, berr := sim.RunBatch(iters)
		var bf *dp.FaultError
		if !errors.As(berr, &bf) {
			t.Fatalf("zeroAt=%d: no FaultError: %v", zeroAt, berr)
		}
		if bf.Op != rf.Op || bf.Cycle != rf.Cycle {
			t.Fatalf("zeroAt=%d: fault op=%s cycle=%d, Run op=%s cycle=%d",
				zeroAt, bf.Op, bf.Cycle, rf.Op, rf.Cycle)
		}
		if sim.Cycle() != ref.Cycle() {
			t.Fatalf("zeroAt=%d: post-abort cycle %d, Run %d", zeroAt, sim.Cycle(), ref.Cycle())
		}
	}
}

// TestMulAccClosedFormCone: mul_acc's accumulate cone must be
// recognized in closed form (otherwise RunN silently degrades to the
// lane-serial path and the kernel keeps serializing).
func TestMulAccClosedFormCone(t *testing.T) {
	res, err := bench.MulAcc().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !dp.NewSim(res.Datapath).HasClosedFormCone() {
		t.Fatal("mul_acc: feedback cone not recognized in closed form")
	}
	// A feedback-free kernel has no cone at all.
	res, err = bench.DCT().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if dp.NewSim(res.Datapath).HasClosedFormCone() {
		t.Fatal("dct: unexpected closed-form cone on a feedback-free kernel")
	}
}

// TestVerifyPlanFeedbackStage moves one LPR out of its SNX's stage on
// copied plans of mux_saturate (whose saturating mux keeps the cone
// lane-serial) and of the accumulator (a closed-form cone): the
// verifier must name plan/feedback-stage on both.
func TestVerifyPlanFeedbackStage(t *testing.T) {
	for _, k := range []struct {
		name, src  string
		closedForm bool
	}{
		{"mux_saturate", `
int A[24];
int acc;
void k() {
	int i;
	int12 v;
	acc = 0;
	for (i = 0; i < 24; i++) {
		v = A[i];
		if (v > 100) {
			acc = acc + 100;
		} else {
			acc = acc + v;
		}
	}
}
`, false},
		{"accumulator", `
int A[32];
int sum;
void k() {
	int i;
	sum = 0;
	for (i = 0; i < 32; i++) {
		sum = sum + A[i];
	}
}
`, true},
	} {
		res, err := core.CompileSource(k.src, "k", core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if vs := dp.Verify(res.Datapath); len(vs) != 0 {
			t.Fatalf("%s: the compiled plan verifies with %v", k.name, vs)
		}
		vs, closedForm := dp.VerifyLPRShifted(res.Datapath)
		if closedForm != k.closedForm {
			t.Fatalf("%s: closed-form cone %v, want %v", k.name, closedForm, k.closedForm)
		}
		found := false
		for _, v := range vs {
			found = found || v.Invariant == "plan/feedback-stage"
		}
		if !found {
			t.Fatalf("%s: a shifted LPR verifies without plan/feedback-stage: %v", k.name, vs)
		}
	}
}

// TestBackendStepNZeroAllocs: RunN's steady state must not allocate —
// the lane kernels are compiled once and the scratch grows once.
func TestBackendStepNZeroAllocs(t *testing.T) {
	for _, k := range []bench.Kernel{bench.DCT(), bench.MulAcc()} {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		sim := dp.NewSim(res.Datapath)
		const n = 64
		in := make([]int64, n*len(res.Datapath.Inputs))
		for i := range in {
			in[i] = int64(i%251 + 1)
		}
		if _, err := sim.RunN(in, n); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sim.RunN(in, n); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: RunN steady state allocates %.1f allocs/op, want 0", k.Name, allocs)
		}
	}
}

// TestBackends pins the one fast path and the one reference: on every
// Table 1 kernel a fresh Sim's RunN runs on lane chunks (its lane
// scratch spans the whole batch) and matches Run, the Step/Drain loop,
// on a second Sim, whose Steps and Drains never touch the lanes.
func TestBackends(t *testing.T) {
	const n = 200
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		d := res.Datapath
		inW, outW, lat := len(d.Inputs), len(d.Outputs), d.Latency()
		iters := make([][]int64, n)
		in := make([]int64, n*inW)
		for j := range iters {
			iters[j] = make([]int64, inW)
			for i := range iters[j] {
				v := int64((j*7+i*13)%251 + 1)
				iters[j][i], in[i*n+j] = v, v
			}
		}
		fast, ref := dp.NewSim(d), dp.NewSim(d)
		got, err := fast.RunN(in, n)
		if err != nil {
			t.Fatalf("%s: RunN: %v", k.Name, err)
		}
		if want := len(d.Ops) * (d.Stages + n + lat); dp.LaneScratch(fast) != want {
			t.Fatalf("%s: RunN(%d) left %d lane values, want %d: it did not run as one lane chunk",
				k.Name, n, dp.LaneScratch(fast), want)
		}
		want, err := ref.Run(iters)
		if err != nil {
			t.Fatalf("%s: Run: %v", k.Name, err)
		}
		if dp.LaneScratch(ref) != 0 {
			t.Fatalf("%s: the Step/Drain loop grew %d lane values", k.Name, dp.LaneScratch(ref))
		}
		for j := range want {
			for o := 0; o < outW; o++ {
				if got[o*n+j] != want[j][o] {
					t.Fatalf("%s: iteration %d port %d: RunN %d, Run %d", k.Name, j, o, got[o*n+j], want[j][o])
				}
			}
		}
		assertSameState(t, k.Name, d, fast, ref)
	}
}
