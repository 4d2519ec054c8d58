package netlist

import (
	"math/rand"
	"testing"

	"roccc/internal/cc"
	"roccc/internal/core"
)

func buildSystem(t *testing.T, src, name string, opt core.Options, cfg Config) (*core.Result, *System) {
	t.Helper()
	res, err := core.CompileSource(src, name, opt)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(res.Kernel, res.Datapath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, sys
}

// runInterp runs the original C through the reference interpreter.
func runInterp(t *testing.T, src, fname string, arrays map[string][]int64, args ...int64) *cc.Interp {
	t.Helper()
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cc.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	ip := cc.NewInterp(info)
	for name, vals := range arrays {
		ip.SetArray(name, vals)
	}
	if _, _, err := ip.Call(fname, args...); err != nil {
		t.Fatal(err)
	}
	return ip
}

const firSource = `
int A[21];
int C[17];
void fir() {
	int i;
	for (i = 0; i < 17; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`

// TestSystemFIR is the paper's Fig. 2 executed end to end: engine loads
// BRAM, smart buffer streams windows, pipelined data path computes, and
// results land in the output BRAM — bit-identical to software.
func TestSystemFIR(t *testing.T) {
	_, sys := buildSystem(t, firSource, "fir", core.DefaultOptions(), Config{BusElems: 1})
	rng := rand.New(rand.NewSource(2))
	in := make([]int64, 21)
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	if err := sys.LoadInput("A", in); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Output("C")
	if err != nil {
		t.Fatal(err)
	}
	ip := runInterp(t, firSource, "fir", map[string][]int64{"A": in})
	want := ip.Arrays["C"]
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Fetch-once property at system level.
	reads, _ := sys.inBRAMs["A"].Stats()
	if reads != 21 {
		t.Errorf("BRAM reads = %d, want 21 (every element once)", reads)
	}
	// Throughput: after the fill, one window per cycle; total cycles
	// near iterations + window fill + pipeline latency.
	maxCycles := 17 + 5 + sys.Datapath.Latency() + 8
	if sys.Cycles() > maxCycles {
		t.Errorf("cycles = %d, want <= %d (fully pipelined)", sys.Cycles(), maxCycles)
	}
}

const accumSource = `
int A[32];
int sum;
void accum() {
	int i;
	sum = 0;
	for (i = 0; i < 32; i++) {
		sum = sum + A[i];
	}
}
`

func TestSystemAccumulator(t *testing.T) {
	_, sys := buildSystem(t, accumSource, "accum", core.DefaultOptions(), Config{BusElems: 1})
	in := make([]int64, 32)
	var want int64
	for i := range in {
		in[i] = int64(i*7 - 50)
		want += in[i]
	}
	if err := sys.LoadInput("A", in); err != nil {
		t.Fatal(err)
	}
	sim, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := sys.FeedbackValue(sim, "sum")
	if !ok {
		t.Fatal("no feedback latch named sum")
	}
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestSystem2DStencil(t *testing.T) {
	src := `
int img[12][12];
int out[12][12];
void stencil() {
	int i; int j;
	for (i = 1; i < 11; i++)
		for (j = 1; j < 11; j++)
			out[i][j] = img[i-1][j] + img[i+1][j] + img[i][j-1] + img[i][j+1] - 4*img[i][j];
}
`
	_, sys := buildSystem(t, src, "stencil", core.DefaultOptions(), Config{BusElems: 1})
	rng := rand.New(rand.NewSource(4))
	in := make([]int64, 144)
	for i := range in {
		in[i] = rng.Int63n(200) - 100
	}
	if err := sys.LoadInput("img", in); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Output("out")
	if err != nil {
		t.Fatal(err)
	}
	ip := runInterp(t, src, "stencil", map[string][]int64{"img": in})
	want := ip.Arrays["out"]
	for i := 1; i < 11; i++ {
		for j := 1; j < 11; j++ {
			if got[i*12+j] != want[i*12+j] {
				t.Errorf("out[%d][%d] = %d, want %d", i, j, got[i*12+j], want[i*12+j])
			}
		}
	}
	reads, _ := sys.inBRAMs["img"].Stats()
	if reads != 144 {
		t.Errorf("BRAM reads = %d, want 144", reads)
	}
}

// TestSystemBlockKernel: DCT-shaped stride-8 kernel, eight outputs per
// iteration, wide bus.
func TestSystemBlockKernel(t *testing.T) {
	src := `
int X[64];
int Y[64];
void blk() {
	int i;
	for (i = 0; i < 64; i = i + 8) {
		Y[i]   = X[i] + X[i+7];
		Y[i+1] = X[i+1] + X[i+6];
		Y[i+2] = X[i+2] + X[i+5];
		Y[i+3] = X[i+3] + X[i+4];
		Y[i+4] = X[i+3] - X[i+4];
		Y[i+5] = X[i+2] - X[i+5];
		Y[i+6] = X[i+1] - X[i+6];
		Y[i+7] = X[i] - X[i+7];
	}
}
`
	_, sys := buildSystem(t, src, "blk", core.DefaultOptions(), Config{BusElems: 8})
	rng := rand.New(rand.NewSource(6))
	in := make([]int64, 64)
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	if err := sys.LoadInput("X", in); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Output("Y")
	if err != nil {
		t.Fatal(err)
	}
	ip := runInterp(t, src, "blk", map[string][]int64{"X": in})
	want := ip.Arrays["Y"]
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Y[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// 8 outputs per cycle once streaming: cycles should be close to 8
	// iterations + fill + latency.
	if sys.Cycles() > 8+2+sys.Datapath.Latency()+8 {
		t.Errorf("cycles = %d (throughput below 8 outputs/cycle)", sys.Cycles())
	}
}

func TestSystemScalarParams(t *testing.T) {
	src := `
int A[16];
int B[16];
void scale(int k) {
	int i;
	for (i = 0; i < 16; i++) { B[i] = A[i] * k + 1; }
}
`
	_, sys := buildSystem(t, src, "scale", core.DefaultOptions(),
		Config{BusElems: 1, Scalars: map[string]int64{"k": 7}})
	in := make([]int64, 16)
	for i := range in {
		in[i] = int64(i)
	}
	if err := sys.LoadInput("A", in); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	got, _ := sys.Output("B")
	for i := range in {
		if got[i] != in[i]*7+1 {
			t.Errorf("B[%d] = %d, want %d", i, got[i], in[i]*7+1)
		}
	}
}

func TestSystemIVInput(t *testing.T) {
	src := `
int A[16];
int B[16];
void f() {
	int i;
	for (i = 0; i < 16; i++) { B[i] = A[i] + i; }
}
`
	_, sys := buildSystem(t, src, "f", core.DefaultOptions(), Config{BusElems: 1})
	in := make([]int64, 16)
	for i := range in {
		in[i] = int64(100 - i)
	}
	if err := sys.LoadInput("A", in); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	got, _ := sys.Output("B")
	for i := range in {
		if got[i] != 100 {
			t.Errorf("B[%d] = %d, want 100", i, got[i])
		}
	}
}

func TestSystemMissingScalar(t *testing.T) {
	src := `
int A[4]; int B[4];
void f(int k) { int i; for (i = 0; i < 4; i++) { B[i] = A[i] * k; } }
`
	res, err := core.CompileSource(src, "f", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(res.Kernel, res.Datapath, Config{BusElems: 1}); err == nil {
		t.Error("missing scalar parameter not reported")
	}
}

func TestEngineCycles(t *testing.T) {
	e := Engine{BusElems: 4}
	if e.LoadCycles(16) != 4 || e.LoadCycles(17) != 5 {
		t.Error("engine cycle arithmetic wrong")
	}
}

const dividerSource = `
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

// TestSystemDividerDrainBubbles is the poison-semantics acceptance test:
// a kernel with an input-dependent divisor must run end to end through
// System.Run even though every fill/drain bubble feeds the divider a
// zero divisor. The seed simulator faulted with "division by zero"
// mid-flush; poisoned bubbles now mask the fault, and the harvested
// outputs still match software exactly.
func TestSystemDividerDrainBubbles(t *testing.T) {
	_, sys := buildSystem(t, dividerSource, "divide", core.DefaultOptions(), Config{BusElems: 1})
	rng := rand.New(rand.NewSource(9))
	a := make([]int64, 24)
	b := make([]int64, 24)
	for i := range a {
		a[i] = rng.Int63n(2000) - 1000
		b[i] = rng.Int63n(99) + 1 // valid iterations divide by nonzero
		if rng.Intn(2) == 0 {
			b[i] = -b[i]
		}
	}
	if err := sys.LoadInput("A", a); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadInput("B", b); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatalf("Run with drain bubbles faulted: %v", err)
	}
	got, err := sys.Output("Q")
	if err != nil {
		t.Fatal(err)
	}
	ip := runInterp(t, dividerSource, "divide", map[string][]int64{"A": a, "B": b})
	want := ip.Arrays["Q"]
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Q[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestSystemDividerValidFault pins the other half of the poison
// contract: a divide-by-zero on a *valid* iteration is a genuine fault
// and must still abort the run.
func TestSystemDividerValidFault(t *testing.T) {
	_, sys := buildSystem(t, dividerSource, "divide", core.DefaultOptions(), Config{BusElems: 1})
	a := make([]int64, 24)
	b := make([]int64, 24)
	for i := range a {
		a[i] = int64(i + 1)
		b[i] = 3
	}
	b[11] = 0 // valid iteration 11 divides by zero
	if err := sys.LoadInput("A", a); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadInput("B", b); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err == nil {
		t.Fatal("divide by zero on a valid iteration did not fault")
	}
}

// TestSystemRunTwiceGuarded pins the Run lifecycle: the seed silently
// mis-executed a second Run (generators already consumed, cycles stale);
// now it returns a clear error, and Reset rearms the system for a
// bit-identical rerun on fresh data.
func TestSystemRunTwiceGuarded(t *testing.T) {
	_, sys := buildSystem(t, firSource, "fir", core.DefaultOptions(), Config{BusElems: 1})
	rng := rand.New(rand.NewSource(21))
	in := make([]int64, 21)
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	if err := sys.LoadInput("A", in); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	first, err := sys.Output("C")
	if err != nil {
		t.Fatal(err)
	}
	firstCycles := sys.Cycles()
	if _, err := sys.Run(); err == nil {
		t.Fatal("second Run without Reset did not error")
	}
	// Reset + reload different data: the rerun must match software again
	// and burn the same cycle count.
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	sys.Reset()
	if err := sys.LoadInput("A", in); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	got, err := sys.Output("C")
	if err != nil {
		t.Fatal(err)
	}
	ip := runInterp(t, firSource, "fir", map[string][]int64{"A": in})
	want := ip.Arrays["C"]
	same := len(first) == len(got)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rerun C[%d] = %d, want %d", i, got[i], want[i])
		}
		if same && got[i] != first[i] {
			same = false
		}
	}
	if sys.Cycles() != firstCycles {
		t.Errorf("rerun cycles = %d, first run %d", sys.Cycles(), firstCycles)
	}
	// Fetch-once property must hold per run after Reset.
	reads, _ := sys.inBRAMs["A"].Stats()
	if reads != 21 {
		t.Errorf("rerun BRAM reads = %d, want 21", reads)
	}
}

// TestSystemOutputBeforeRun: reading an output BRAM before a completed
// run used to return all-zero data indistinguishable from a real
// result; it must be an error.
func TestSystemOutputBeforeRun(t *testing.T) {
	_, sys := buildSystem(t, firSource, "fir", core.DefaultOptions(), Config{BusElems: 1})
	if _, err := sys.Output("C"); err == nil {
		t.Fatal("Output before Run did not error")
	}
	in := make([]int64, 21)
	for i := range in {
		in[i] = int64(i)
	}
	if err := sys.LoadInput("A", in); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Output("C"); err != nil {
		t.Fatalf("Output after Run: %v", err)
	}
	// After Reset the previous results are gone again.
	sys.Reset()
	if _, err := sys.Output("C"); err == nil {
		t.Fatal("Output after Reset (before rerun) did not error")
	}
}

// TestSystemFusedLoops runs two filters written as one loop through the
// complete pipeline: one kernel with two read windows and two write
// patterns, streamed through one controller.
func TestSystemFusedLoops(t *testing.T) {
	src := `
int A[20];
int B[20];
int S[18];
int D[18];
void two(int k) {
	int i;
	for (i = 0; i < 18; i++) {
		S[i] = A[i] + A[i+1] + A[i+2];
		D[i] = (B[i] - B[i+2]) * k;
	}
}
`
	res, err := core.CompileSource(src, "two", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kernel.Reads) != 2 || len(res.Kernel.Writes) != 2 {
		t.Fatalf("fused kernel: %d reads, %d writes", len(res.Kernel.Reads), len(res.Kernel.Writes))
	}
	sys, err := NewSystem(res.Kernel, res.Datapath, Config{
		BusElems: 1, Scalars: map[string]int64{"k": 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	a := make([]int64, 20)
	b := make([]int64, 20)
	for i := range a {
		a[i] = rng.Int63n(100)
		b[i] = rng.Int63n(100)
	}
	if err := sys.LoadInput("A", a); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadInput("B", b); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	s, _ := sys.Output("S")
	d, _ := sys.Output("D")
	for i := 0; i < 18; i++ {
		if s[i] != a[i]+a[i+1]+a[i+2] {
			t.Errorf("S[%d] = %d", i, s[i])
		}
		if d[i] != (b[i]-b[i+2])*3 {
			t.Errorf("D[%d] = %d", i, d[i])
		}
	}
	// One loop: both outputs stream under a single controller in ~18
	// iterations + fill, not 2x.
	if sys.Cycles() > 18+4+res.Datapath.Latency()+8 {
		t.Errorf("fused kernel took %d cycles", sys.Cycles())
	}
}
