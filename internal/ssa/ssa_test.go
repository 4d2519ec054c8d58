package ssa_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"roccc/internal/cfg"
	"roccc/internal/dfa"
	"roccc/internal/dp"
	"roccc/internal/hir"
	"roccc/internal/ssa"
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

func buildGraph(t *testing.T, src, name string) (*hir.Kernel, *cfg.Graph) {
	t.Helper()
	p, f, err := hir.BuildFunc(src, name)
	if err != nil {
		t.Fatal(err)
	}
	k, err := hir.ExtractKernel(p, f)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := vm.Lower(k.DP)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(rt)
	if err != nil {
		t.Fatal(err)
	}
	return k, g
}

func TestCFGDiamond(t *testing.T) {
	_, g := buildGraph(t, ifElseSource, "if_else")
	// if/else produces a diamond: entry, then, else, join (some possibly
	// merged/empty). The entry must end in a conditional branch.
	if g.Entry().BranchCond == nil {
		t.Fatal("entry has no conditional branch")
	}
	if len(g.Entry().Succs) != 2 {
		t.Fatalf("entry succs = %d", len(g.Entry().Succs))
	}
	// Exactly one block with 2 predecessors (the join).
	joins := 0
	for _, b := range g.Blocks {
		if len(b.Preds) == 2 {
			joins++
		}
	}
	if joins != 1 {
		t.Errorf("joins = %d, want 1", joins)
	}
}

func TestDominators(t *testing.T) {
	_, g := buildGraph(t, ifElseSource, "if_else")
	idom := g.Dominators()
	entry := g.Entry()
	for _, b := range g.ReversePostOrder() {
		if b == entry {
			continue
		}
		// All blocks in a diamond are dominated (transitively) by entry.
		d := b
		for i := 0; i < 10 && d != nil && d != entry; i++ {
			d = idom[d.ID]
		}
		if d != entry {
			t.Errorf("block %d not dominated by entry", b.ID)
		}
	}
}

func TestDominanceFrontierJoin(t *testing.T) {
	_, g := buildGraph(t, ifElseSource, "if_else")
	df := g.DominanceFrontier(g.Dominators())
	// The two branch blocks must have the join in their frontier.
	var join *cfg.Block
	for _, b := range g.Blocks {
		if len(b.Preds) == 2 {
			join = b
		}
	}
	if join == nil {
		t.Fatal("no join block")
	}
	count := 0
	for _, frontier := range df {
		for _, fb := range frontier {
			if fb == join {
				count++
			}
		}
	}
	if count < 2 {
		t.Errorf("join appears in %d frontiers, want >= 2", count)
	}
}

func TestLiveness(t *testing.T) {
	_, g := buildGraph(t, ifElseSource, "if_else")
	liveIn, liveOut := dfa.Liveness(g)
	// Inputs must be live-in at the entry (used in branches).
	for _, p := range g.Routine.Inputs {
		if !liveIn[g.Entry().ID].Has(p.Reg) {
			t.Errorf("input %s not live-in at entry", p.Reg)
		}
	}
	// Output registers are live-out of their defining block.
	for _, p := range g.Routine.Outputs {
		found := false
		for _, b := range g.Blocks {
			if liveOut[b.ID].Has(p.Reg) {
				found = true
			}
		}
		if !found {
			t.Errorf("output %s never live-out", p.Reg)
		}
	}
}

func TestConvertInsertsPhis(t *testing.T) {
	_, g := buildGraph(t, ifElseSource, "if_else")
	if err := ssa.Convert(g); err != nil {
		t.Fatal(err)
	}
	phis := 0
	for _, b := range g.Blocks {
		phis += len(b.Phis)
	}
	// Variable a is assigned in both branches: at least one phi.
	if phis < 1 {
		t.Errorf("phis = %d, want >= 1", phis)
	}
}

func TestConvertSSASingleAssignment(t *testing.T) {
	k, g := buildGraph(t, ifElseSource, "if_else")
	// Before conversion a and c are each assigned twice. Check names the
	// lowest register defined more than once, and dp.Build refuses the
	// graph.
	defs := make([]int, g.Routine.NumRegs+1)
	for _, p := range g.Routine.Inputs {
		defs[p.Reg]++
	}
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasDst() {
				defs[in.Dst]++
			}
		}
	}
	var multi []vm.Reg
	for r, n := range defs {
		if n > 1 {
			multi = append(multi, vm.Reg(r))
		}
	}
	if len(multi) < 2 {
		t.Fatalf("registers defined more than once: %v, want at least 2", multi)
	}
	want := fmt.Sprintf("ssa: register %s has %d definitions", multi[0], defs[multi[0]])
	if err := ssa.Check(g); err == nil || err.Error() != want {
		t.Errorf("Check before Convert = %v, want %q", err, want)
	}
	if _, err := dp.Build(k, g); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("dp.Build before Convert = %v, want it to refuse with %q", err, want)
	}
	if err := ssa.Convert(g); err != nil {
		t.Fatal(err)
	}
	if err := ssa.Check(g); err != nil {
		t.Error(err)
	}
}

func TestSSAExecMatchesHIR(t *testing.T) {
	k, g := buildGraph(t, ifElseSource, "if_else")
	if err := ssa.Convert(g); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		x1 := rng.Int63n(1<<16) - 1<<15
		x2 := rng.Int63n(1<<16) - 1<<15
		env := hir.NewEnv()
		env.Vars[k.DP.Params[0]] = x1
		env.Vars[k.DP.Params[1]] = x2
		if err := hir.RunFunc(k.DP, env); err != nil {
			t.Fatal(err)
		}
		outs, err := ssa.Exec(g, []int64{x1, x2}, map[*hir.Var]int64{})
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range k.DP.Outs {
			if outs[i] != env.Vars[o] {
				t.Fatalf("trial %d: out[%d] = %d, want %d", trial, i, outs[i], env.Vars[o])
			}
		}
	}
}

func TestSSAFeedbackKernel(t *testing.T) {
	src := `
int acc;
void macc(int12 a, int12 b, uint1 nd) {
	int i;
	acc = 0;
	for (i = 0; i < 4; i++) {
		if (nd) { acc = acc + a * b; }
	}
}
`
	k, g := buildGraph(t, src, "macc")
	if err := ssa.Convert(g); err != nil {
		t.Fatal(err)
	}
	fb := k.Feedback[0]
	state := map[*hir.Var]int64{fb.Var: fb.Init}
	// nd=1 accumulates, nd=0 holds.
	if _, err := ssa.Exec(g, []int64{3, 5, 1}, state); err != nil {
		t.Fatal(err)
	}
	if state[fb.Var] != 15 {
		t.Errorf("state after nd=1: %d, want 15", state[fb.Var])
	}
	if _, err := ssa.Exec(g, []int64{7, 7, 0}, state); err != nil {
		t.Fatal(err)
	}
	if state[fb.Var] != 15 {
		t.Errorf("state after nd=0: %d, want 15 (hold)", state[fb.Var])
	}
	if _, err := ssa.Exec(g, []int64{2, 2, 1}, state); err != nil {
		t.Fatal(err)
	}
	if state[fb.Var] != 19 {
		t.Errorf("state = %d, want 19", state[fb.Var])
	}
}

func TestSSANestedIf(t *testing.T) {
	src := `
void f(int a, int b, int* o) {
	int r;
	if (a > 0) {
		if (b > 0) { r = a + b; } else { r = a - b; }
	} else {
		r = -a;
	}
	*o = r;
}
`
	k, g := buildGraph(t, src, "f")
	if err := ssa.Convert(g); err != nil {
		t.Fatal(err)
	}
	ref := func(a, b int64) int64 {
		if a > 0 {
			if b > 0 {
				return a + b
			}
			return a - b
		}
		return -a
	}
	_ = k
	for a := int64(-3); a <= 3; a++ {
		for b := int64(-3); b <= 3; b++ {
			outs, err := ssa.Exec(g, []int64{a, b}, map[*hir.Var]int64{})
			if err != nil {
				t.Fatal(err)
			}
			if outs[0] != ref(a, b) {
				t.Errorf("f(%d,%d) = %d, want %d", a, b, outs[0], ref(a, b))
			}
		}
	}
}
