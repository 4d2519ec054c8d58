package core

import (
	"strings"
	"testing"

	"roccc/internal/dp"
	"roccc/internal/synth"
	"roccc/internal/vm"
)

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

func TestCompileSourceFIR(t *testing.T) {
	res, err := CompileSource(firSource, "fir", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel == nil || res.Routine == nil || res.Graph == nil || res.Datapath == nil {
		t.Fatal("missing intermediate representations")
	}
	if res.Datapath.Stages < 1 {
		t.Error("unpipelined data path")
	}
}

func TestCompileUnknownFunction(t *testing.T) {
	if _, err := CompileSource(firSource, "nope", DefaultOptions()); err == nil {
		t.Error("unknown kernel not reported")
	}
}

func TestCompileParseError(t *testing.T) {
	if _, err := CompileSource("void f( {", "f", DefaultOptions()); err == nil {
		t.Error("syntax error not reported")
	}
}

func TestCompileUnrollAllRemovesLoops(t *testing.T) {
	src := `
void pop(uint8 x, uint4* n) {
	int i; uint4 c;
	c = 0;
	for (i = 0; i < 8; i++) { c = c + ((x >> i) & 1); }
	*n = c;
}
`
	res, err := CompileSource(src, "pop", Options{Optimize: true, UnrollAll: true, PeriodNs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel.Nest.Depth() != 0 {
		t.Errorf("nest depth = %d after full unroll, want 0", res.Kernel.Nest.Depth())
	}
}

func TestCompileUnrollFactorWidensDatapath(t *testing.T) {
	narrow, err := CompileSource(firSource, "fir", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 17 iterations are not divisible by 2; use a 16-output variant.
	src := strings.ReplaceAll(firSource, "i < 17", "i < 16")
	opt := DefaultOptions()
	opt.UnrollFactor = 2
	wide, err := CompileSource(src, "fir", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.Datapath.Outputs) != 2*len(narrow.Datapath.Outputs) {
		t.Errorf("unroll by 2: outputs %d vs %d", len(wide.Datapath.Outputs), len(narrow.Datapath.Outputs))
	}
	if wide.Kernel.Nest.Step[0] != 2 {
		t.Errorf("step = %d, want 2", wide.Kernel.Nest.Step[0])
	}
}

func TestCompileOptimizeReducesOps(t *testing.T) {
	src := `
void f(int a, int b, int* o1, int* o2) {
	*o1 = (a + b) * (a + b);
	*o2 = (a + b) * 3;
}
`
	opt := DefaultOptions()
	optimized, err := CompileSource(src, "f", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize = false
	plain, err := CompileSource(src, "f", opt)
	if err != nil {
		t.Fatal(err)
	}
	countAdds := func(r *Result) int {
		n := 0
		for _, op := range r.Datapath.Ops {
			if op.Instr.Op == vm.ADD {
				n++
			}
		}
		return n
	}
	if countAdds(optimized) >= countAdds(plain) {
		t.Errorf("CSE did not reduce adders: %d vs %d", countAdds(optimized), countAdds(plain))
	}
}

func TestCompileDefaultPeriod(t *testing.T) {
	res, err := CompileSource(firSource, "fir", Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Datapath.Period != 5.0 {
		t.Errorf("default period = %.1f", res.Datapath.Period)
	}
}

func TestCompileRejectsWhileLoop(t *testing.T) {
	src := `void f(int n, int* o) { int s; s = 0; while (n > 0) { n = n - 1; } *o = s; }`
	if _, err := CompileSource(src, "f", DefaultOptions()); err == nil {
		t.Error("while loop not rejected")
	}
}

// TestCompileCustomDelayModel pins the one delay model: Compile places
// latches with synth.OpDelay, so re-pipelining with it at the same
// period changes nothing, and Pipeline refuses to run without a model.
func TestCompileCustomDelayModel(t *testing.T) {
	res, err := CompileSource(firSource, "fir", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Datapath
	stages, latches, worst := d.Stages, d.LatchCount(), d.MaxStageDelay
	if latches == 0 || worst <= 0 {
		t.Fatalf("FIR compiled with %d latches and stage delay %.2f ns", latches, worst)
	}
	if err := dp.Pipeline(d, dp.PipelineConfig{Period: d.Period, Delay: synth.OpDelay(d, false)}); err != nil {
		t.Fatal(err)
	}
	if d.Stages != stages || d.LatchCount() != latches || d.MaxStageDelay != worst {
		t.Errorf("re-pipelined with synth.OpDelay: %d stages, %d latches, %.3f ns; Compile gave %d, %d, %.3f",
			d.Stages, d.LatchCount(), d.MaxStageDelay, stages, latches, worst)
	}
	if err := dp.Pipeline(d, dp.PipelineConfig{Period: d.Period}); err == nil {
		t.Error("Pipeline without a delay model returned no error")
	}
}
