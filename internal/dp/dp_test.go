package dp_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/hir"
	"roccc/internal/vm"
)

const ifElseSource = `
void if_else(int x1, int x2, int* x3, int* x4) {
	int a, c;
	c = x1 - x2;
	if (c < x2)
		a = x1*x1;
	else
		a = x1 * x2 + 3;
	c = c - a;
	*x3 = c;
	*x4 = a;
	return;
}
`

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

func compile(t *testing.T, src, name string, opt core.Options) *core.Result {
	t.Helper()
	res, err := core.CompileSource(src, name, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFig6BranchDatapath reproduces the paper's Fig. 6: the if_else
// kernel's data path has soft nodes for the CFG blocks plus one mux node
// (node 7) and one pipe node (node 6) — the "hard nodes [that] only
// appear in hardware and have no equivalence in software".
func TestFig6BranchDatapath(t *testing.T) {
	res := compile(t, ifElseSource, "if_else", core.Options{Optimize: false, PeriodNs: 5})
	d := res.Datapath
	if n := len(d.NodesOfKind(dp.MuxNode)); n != 1 {
		t.Errorf("mux nodes = %d, want 1", n)
	}
	if n := len(d.NodesOfKind(dp.PipeNode)); n != 1 {
		t.Errorf("pipe nodes = %d, want 1", n)
	}
	soft := len(d.NodesOfKind(dp.SoftNode))
	if soft < 3 || soft > 4 {
		t.Errorf("soft nodes = %d, want 3..4 (entry, then, else, join)", soft)
	}
	// The mux node must carry exactly one mux op (variable a).
	mux := d.NodesOfKind(dp.MuxNode)[0]
	if len(mux.Ops) != 1 || mux.Ops[0].Instr.Op != vm.MUX {
		t.Errorf("mux node ops = %v", mux.Ops)
	}
	// The pipe node copies c (live through the branch).
	pipe := d.NodesOfKind(dp.PipeNode)[0]
	if len(pipe.Ops) < 1 {
		t.Error("pipe node is empty")
	}
	for _, op := range pipe.Ops {
		if op.Instr.Op != vm.MOV {
			t.Errorf("pipe node contains %s, want only copies", op.Instr.Op)
		}
	}
	// Mux and pipe share a level strictly between branches and join.
	if mux.Level != pipe.Level {
		t.Errorf("mux level %d != pipe level %d", mux.Level, pipe.Level)
	}
	// Pipe copies rewrite data-path operands only: the CFG, which soft
	// nodes share instructions with, keeps reading the original registers.
	copies := map[vm.Reg]bool{}
	for _, op := range pipe.Ops {
		copies[op.Instr.Dst] = true
	}
	readsCopy := func(in *vm.Instr) bool {
		for _, r := range in.Uses() {
			if copies[r] {
				return true
			}
		}
		return false
	}
	for _, blk := range res.Graph.Blocks {
		for _, in := range slices.Concat(blk.Phis, blk.Instrs, []*vm.Instr{blk.BranchCond}) {
			if in != nil && readsCopy(in) {
				t.Errorf("CFG block %d: %s reads a pipe copy", blk.ID, in)
			}
		}
	}
	if !slices.ContainsFunc(d.Ops, func(op *dp.Op) bool { return readsCopy(op.Instr) }) {
		t.Error("no data-path op reads a pipe copy")
	}
}

// TestFig7AccumulatorDatapath reproduces Fig. 7: the accumulator data
// path has an LPR/SNX feedback latch pair on sum.
func TestFig7AccumulatorDatapath(t *testing.T) {
	res := compile(t, accumSource, "accum", core.DefaultOptions())
	d := res.Datapath
	if len(d.Feedbacks) != 1 {
		t.Fatalf("feedbacks = %d, want 1", len(d.Feedbacks))
	}
	fb := d.Feedbacks[0]
	if fb.State.Name != "sum" {
		t.Errorf("feedback state = %s", fb.State.Name)
	}
	if !fb.SNX.Latched {
		t.Error("SNX must have a latch (§4.2.3)")
	}
	for _, lpr := range fb.LPRs {
		if lpr.Stage != fb.SNX.Stage {
			t.Errorf("LPR stage %d != SNX stage %d", lpr.Stage, fb.SNX.Stage)
		}
	}
}

// TestDatapathSimIfElse checks the pipelined circuit against the HIR
// reference on random inputs, streaming one iteration per cycle.
func TestDatapathSimIfElse(t *testing.T) {
	res := compile(t, ifElseSource, "if_else", core.DefaultOptions())
	d := res.Datapath
	k := res.Kernel
	sim := dp.NewSim(d)
	rng := rand.New(rand.NewSource(5))
	const n = 64
	iters := make([][]int64, n)
	for i := range iters {
		iters[i] = []int64{rng.Int63n(1 << 15), rng.Int63n(1 << 15)}
	}
	outs, err := sim.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range iters {
		env := hir.NewEnv()
		for j, p := range k.DP.Params {
			env.Vars[p] = in[j]
		}
		if err := hir.RunFunc(k.DP, env); err != nil {
			t.Fatal(err)
		}
		for j, o := range k.DP.Outs {
			if outs[i][j] != env.Vars[o] {
				t.Fatalf("iter %d out %d: sim=%d ref=%d", i, j, outs[i][j], env.Vars[o])
			}
		}
	}
}

// TestDatapathSimAccumulator streams 32 values and checks the running
// sums appear in order — the feedback latch must carry state between
// consecutive pipeline iterations.
func TestDatapathSimAccumulator(t *testing.T) {
	res := compile(t, accumSource, "accum", core.DefaultOptions())
	sim := dp.NewSim(res.Datapath)
	iters := make([][]int64, 32)
	var want []int64
	total := int64(0)
	for i := range iters {
		v := int64(i*3 - 11)
		iters[i] = []int64{v}
		total += v
		want = append(want, total)
	}
	outs, err := sim.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	// Find the sum_out port index.
	outIdx := -1
	for j, p := range res.Datapath.Outputs {
		if strings.HasSuffix(p.Var.Name, "_out") {
			outIdx = j
		}
	}
	if outIdx < 0 {
		t.Fatalf("no feedback output port in %v", res.Datapath.Outputs)
	}
	for i := range iters {
		if outs[i][outIdx] != want[i] {
			t.Fatalf("iter %d: out=%d want=%d", i, outs[i][outIdx], want[i])
		}
	}
}

// TestDatapathFIRPipeline checks FIR: 5 inputs per cycle, one output per
// cycle, semantics match, and the pipeline actually has >1 stage at a
// tight clock target.
func TestDatapathFIRPipeline(t *testing.T) {
	res := compile(t, firSource, "fir", core.DefaultOptions())
	d := res.Datapath
	if len(d.Inputs) != 5 {
		t.Fatalf("inputs = %d, want 5", len(d.Inputs))
	}
	if d.Stages < 2 {
		t.Errorf("stages = %d, want pipelined (>= 2) at 5ns target", d.Stages)
	}
	sim := dp.NewSim(d)
	rng := rand.New(rand.NewSource(3))
	const n = 40
	iters := make([][]int64, n)
	for i := range iters {
		iters[i] = []int64{
			rng.Int63n(255) - 128, rng.Int63n(255) - 128, rng.Int63n(255) - 128,
			rng.Int63n(255) - 128, rng.Int63n(255) - 128,
		}
	}
	outs, err := sim.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range iters {
		want := 3*in[0] + 5*in[1] + 7*in[2] + 9*in[3] - in[4]
		if outs[i][0] != want {
			t.Fatalf("iter %d: %d, want %d", i, outs[i][0], want)
		}
	}
}

// TestWidthInference checks §4.2.4: widths grow through operators and
// are capped by the semantic type.
func TestWidthInference(t *testing.T) {
	src := `
void w(uint8 a, uint8 b, uint18* o) {
	*o = a * b + 1;
}
`
	res := compile(t, src, "w", core.Options{Optimize: false, PeriodNs: 5})
	d := res.Datapath
	var mulW, addW int
	for _, op := range d.Ops {
		switch op.Instr.Op {
		case vm.MUL:
			mulW = op.Width
		case vm.ADD:
			addW = op.Width
		}
	}
	if mulW != 16 {
		t.Errorf("8x8 multiplier width = %d, want 16", mulW)
	}
	if addW != 17 {
		t.Errorf("16+1 adder width = %d, want 17", addW)
	}
	// Comparator widths are 1 bit.
	res2 := compile(t, ifElseSource, "if_else", core.Options{Optimize: false, PeriodNs: 5})
	for _, op := range res2.Datapath.Ops {
		if op.Instr.Op == vm.SLT && op.Width != 1 {
			t.Errorf("comparator width = %d, want 1", op.Width)
		}
	}
}

// TestWidthSimAgreement: with aggressive narrowing, the simulator (which
// wraps at the inferred hardware width) must still match the reference —
// i.e. inference is sound.
func TestWidthSimAgreement(t *testing.T) {
	src := `
void f(uint4 a, uint4 b, uint4 c, uint16* o) {
	*o = (a + b) * c + (a & b);
}
`
	res := compile(t, src, "f", core.DefaultOptions())
	sim := dp.NewSim(res.Datapath)
	var iters [][]int64
	for a := int64(0); a < 16; a += 3 {
		for b := int64(0); b < 16; b += 5 {
			for c := int64(0); c < 16; c += 7 {
				iters = append(iters, []int64{a, b, c})
			}
		}
	}
	outs, err := sim.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range iters {
		a, b, c := in[0], in[1], in[2]
		// C semantics: uint4 operands promote to int, so no intermediate
		// wrapping; the store truncates to uint16.
		want := ((a+b)*c + (a & b)) % 65536
		if outs[i][0] != want {
			t.Fatalf("f(%d,%d,%d) = %d, want %d", a, b, c, outs[i][0], want)
		}
	}
}

// TestPipelineLatchPlacement: a long adder chain at a tight period must
// split into multiple stages, and loosening the period must reduce the
// stage count.
func TestPipelineLatchPlacement(t *testing.T) {
	src := `
void chain(int a, int b, int* o) {
	*o = ((((((a + b) + a) + b) + a) + b) + a) + b;
}
`
	tight := compile(t, src, "chain", core.Options{PeriodNs: 4, Optimize: false})
	loose := compile(t, src, "chain", core.Options{PeriodNs: 1000, Optimize: false})
	if tight.Datapath.Stages <= loose.Datapath.Stages {
		t.Errorf("tight=%d stages, loose=%d stages", tight.Datapath.Stages, loose.Datapath.Stages)
	}
	if loose.Datapath.Stages != 1 {
		t.Errorf("loose pipeline = %d stages, want 1", loose.Datapath.Stages)
	}
	if tight.Datapath.MaxStageDelay > 4.0+1e-9 {
		t.Errorf("stage delay %.2f exceeds 4ns target", tight.Datapath.MaxStageDelay)
	}
}

// TestMulAccConditionalFeedback reproduces the paper's mul_acc: a
// multiplier-accumulator with an nd (new data) control input expressed
// as an if statement; extra mux and latch hardware appears (§5).
func TestMulAccConditionalFeedback(t *testing.T) {
	src := `
int20 acc;
void mul_acc(int12 a, int12 b, uint1 nd) {
	int i;
	acc = 0;
	for (i = 0; i < 1024; i++) {
		if (nd) { acc = acc + a * b; }
	}
}
`
	res := compile(t, src, "mul_acc", core.DefaultOptions())
	d := res.Datapath
	if len(d.Feedbacks) != 1 {
		t.Fatalf("feedbacks = %d", len(d.Feedbacks))
	}
	muxes := 0
	for _, op := range d.Ops {
		if op.Instr.Op == vm.MUX {
			muxes++
		}
	}
	if muxes < 1 {
		t.Error("conditional accumulate needs a mux")
	}
	sim := dp.NewSim(d)
	iters := [][]int64{
		{3, 4, 1}, {5, 5, 1}, {7, 9, 0}, {2, 2, 1},
	}
	if _, err := sim.Run(iters); err != nil {
		t.Fatal(err)
	}
	if got, _ := sim.FeedbackByName(d.Feedbacks[0].State.Name); got != 12+25+4 {
		t.Errorf("acc = %d, want 41", got)
	}
}

// TestLUTDatapath: ROM lookups appear as LUT ops and simulate correctly.
func TestLUTDatapath(t *testing.T) {
	src := `
const int16 costab[16] = {16384, 16069, 15137, 13623, 11585, 9102, 6270, 3196,
                          0, -3196, -6270, -9102, -11585, -13623, -15137, -16069};
void coslut(uint4 theta, int16* y) { *y = costab[theta]; }
`
	res := compile(t, src, "coslut", core.DefaultOptions())
	sim := dp.NewSim(res.Datapath)
	var iters [][]int64
	for i := int64(0); i < 16; i++ {
		iters = append(iters, []int64{i})
	}
	outs, err := sim.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{16384, 16069, 15137, 13623, 11585, 9102, 6270, 3196,
		0, -3196, -6270, -9102, -11585, -13623, -15137, -16069}
	for i := range iters {
		if outs[i][0] != want[i] {
			t.Errorf("costab[%d] = %d, want %d", i, outs[i][0], want[i])
		}
	}
}

// TestSoftNodesEquivalence is the paper's §4.2.2 property: "the soft
// nodes, by themselves, will have the same behavior on a CPU compared
// with the whole data path on a FPGA". We run the SSA graph (software,
// soft nodes only) and the full pipelined data path (hardware, with mux
// and pipe nodes) and compare.
func TestSoftNodesEquivalence(t *testing.T) {
	res := compile(t, ifElseSource, "if_else", core.DefaultOptions())
	rng := rand.New(rand.NewSource(11))
	sim := dp.NewSim(res.Datapath)
	const n = 50
	iters := make([][]int64, n)
	for i := range iters {
		iters[i] = []int64{rng.Int63n(1 << 14), rng.Int63n(1 << 14)}
	}
	hwOuts, err := sim.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range iters {
		swOuts, err := ssaExec(res, in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range swOuts {
			if hwOuts[i][j] != swOuts[j] {
				t.Fatalf("iter %d out %d: hw=%d sw=%d", i, j, hwOuts[i][j], swOuts[j])
			}
		}
	}
}

func ssaExec(res *core.Result, in []int64) ([]int64, error) {
	return ssaExecGraph(res, in)
}

// TestDotOutput sanity-checks the DOT export.
func TestDotOutput(t *testing.T) {
	res := compile(t, ifElseSource, "if_else", core.DefaultOptions())
	dot := res.Datapath.Dot()
	for _, want := range []string{"digraph", "mux", "pipe", "cluster"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// TestSummary checks the structural summary format.
func TestSummary(t *testing.T) {
	res := compile(t, ifElseSource, "if_else", core.Options{Optimize: false, PeriodNs: 5})
	s := res.Datapath.Summary()
	if !strings.Contains(s, "mux=1") || !strings.Contains(s, "pipe=1") {
		t.Errorf("summary = %s", s)
	}
}
