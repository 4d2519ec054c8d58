package dp_test

import (
	"errors"
	"math/rand"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
)

// backend_test.go is the backend differential matrix: the threaded
// backend runs the same workloads as the interp reference and must
// match it bit for bit — outputs on every cycle, feedback state, cycle
// counts, and on faulting schedules the typed *FaultError (operator
// class and abort cycle). The matrix covers the Table 1 kernels
// (including the feedback kernels), fuzzed kernels with and without
// faulting divisions, random bubble schedules, and planted
// divide-by-zero iterations.

// TestBackendDifferentialBenchKernels runs the backend matrix over
// every Table 1 kernel on random bubble schedules.
func TestBackendDifferentialBenchKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if got := dp.NewSim(res.Datapath).Backend(); got != dp.BackendThreaded {
			t.Fatalf("%s: NewSim runs on %v, want the threaded default", k.Name, got)
		}
		diffSchedule(t, k.Name, res.Datapath, rng, inAny, 700)
	}
}

// TestBackendDifferentialFuzz extends the matrix to fuzzed kernels,
// rotating division-free kernels with division kernels fed occasional
// zeros (the threaded backend must abort on the interpreter's cycle
// with the interpreter's fault).
func TestBackendDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1905))
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
		diffSchedule(t, src, res.Datapath, rng, mode, 400)
	}
}

// TestBackendFaultParity plants exactly one zero divisor at assorted
// positions (chunk boundaries included) and requires the threaded
// RunBatch to abort with the interpreter's fault on the interpreter's
// cycle.
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
		ref := dp.NewSimWith(res.Datapath, dp.BackendInterp)
		_, rerr := ref.RunBatch(iters)
		var rf *dp.FaultError
		if !errors.As(rerr, &rf) {
			t.Fatalf("zeroAt=%d: interp did not raise a FaultError: %v", zeroAt, rerr)
		}
		sim := dp.NewSim(res.Datapath)
		_, berr := sim.RunBatch(iters)
		var bf *dp.FaultError
		if !errors.As(berr, &bf) {
			t.Fatalf("zeroAt=%d: no FaultError: %v", zeroAt, berr)
		}
		if bf.Op != rf.Op || bf.Cycle != rf.Cycle {
			t.Fatalf("zeroAt=%d: fault op=%s cycle=%d, interp op=%s cycle=%d",
				zeroAt, bf.Op, bf.Cycle, rf.Op, rf.Cycle)
		}
		if sim.Cycle() != ref.Cycle() {
			t.Fatalf("zeroAt=%d: post-abort cycle %d, interp %d", zeroAt, sim.Cycle(), ref.Cycle())
		}
	}
}

// TestMulAccClosedFormCone: mul_acc's accumulate cone must be
// recognized in closed form (otherwise the threaded backend silently
// degrades to the lane-serial path and the kernel keeps serializing).
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

// TestBackendStepNZeroAllocs: the threaded batch steady state must not
// allocate — the lane kernels are compiled once and the scratch grows
// once.
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
		if _, err := sim.StepN(in, n); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sim.StepN(in, n); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			if _, err := sim.DrainN(8); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: StepN/DrainN steady state allocates %.1f allocs/op, want 0", k.Name, allocs)
		}
	}
}

// TestParseBackend pins the backend surface: exactly interp and
// threaded, threaded the zero value.
func TestParseBackend(t *testing.T) {
	bs := dp.Backends()
	if len(bs) != 2 || bs[0] != dp.BackendInterp || bs[1] != dp.BackendThreaded {
		t.Fatalf("Backends() = %v, want [interp threaded]", bs)
	}
	if var0 := dp.Backend(0); var0 != dp.BackendThreaded {
		t.Fatalf("zero Backend is %v, want threaded", var0)
	}
	for _, b := range bs {
		got, err := dp.ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	for _, s := range []string{"cone", "jit"} {
		if _, err := dp.ParseBackend(s); err == nil {
			t.Fatalf("ParseBackend accepted %q", s)
		}
	}
}
