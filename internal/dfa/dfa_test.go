package dfa

import (
	"testing"

	"roccc/internal/cfg"
	"roccc/internal/hir"
	"roccc/internal/vm"
)

func buildGraph(t *testing.T, src, name string) *cfg.Graph {
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
	return g
}

func TestRegSetOps(t *testing.T) {
	// 130 registers span three words; 64 and 129 sit on word edges.
	a, b := NewRegSet(130), NewRegSet(130)
	a.Add(1)
	a.Add(64)
	b.Add(3)
	b.Add(129)
	for _, r := range []vm.Reg{1, 64} {
		if !a.Has(r) || b.Has(r) {
			t.Errorf("register %d: a has it %v, b has it %v", r, a.Has(r), b.Has(r))
		}
	}
	if a.Has(2) || a.Has(65) || a.Has(1000) {
		t.Error("set holds a register never added")
	}
	changed := a.Union(b)
	if !changed || !a.Has(3) || !a.Has(129) || !a.Has(1) {
		t.Error("union failed")
	}
	if a.Union(b) {
		t.Error("second union reported change")
	}
}

func TestDefsUsesBranchCond(t *testing.T) {
	src := `void f(int a, int b, int* o) { int r; if (a < b) { r = a; } else { r = b; } *o = r; }`
	g := buildGraph(t, src, "f")
	defs, uses := DefsUses(g.Entry(), g.Routine.NumRegs)
	// The comparison defines its result and uses the inputs; the branch
	// condition use is covered by the defining SLT.
	cond := g.Entry().BranchCond.Srcs[0].Reg
	if !defs.Has(cond) || uses.Has(cond) {
		t.Errorf("branch condition %s: def %v, use %v; want def only", cond, defs.Has(cond), uses.Has(cond))
	}
	for _, p := range g.Routine.Inputs {
		if !uses.Has(p.Reg) {
			t.Errorf("input %s not recorded as use", p.Reg)
		}
	}
}

func TestLivenessStraightLine(t *testing.T) {
	g := buildGraph(t, `void f(int a, int b, int* o) { *o = a * b + a; }`, "f")
	liveIn, liveOut := Liveness(g)
	for _, p := range g.Routine.Inputs {
		if !liveIn[g.Entry().ID].Has(p.Reg) {
			t.Errorf("input %s not live-in", p.Reg)
		}
	}
	// Output register must be live somewhere.
	out := g.Routine.Outputs[0].Reg
	found := false
	for _, b := range g.Blocks {
		if liveOut[b.ID].Has(out) {
			found = true
		}
	}
	if !found {
		t.Error("output never live-out")
	}
}

func TestLivenessThroughBranch(t *testing.T) {
	// c is defined before the branch and used after: live through both
	// branch blocks (the value pipe nodes carry, §4.2.2).
	src := `
void f(int x1, int x2, int* x3, int* x4) {
	int a, c;
	c = x1 - x2;
	if (c < x2) { a = x1*x1; } else { a = x1 * x2 + 3; }
	c = c - a;
	*x3 = c;
	*x4 = a;
}
`
	g := buildGraph(t, src, "f")
	liveIn, _ := Liveness(g)
	// Find c's register: defined in entry by the SUB.
	var cReg vm.Reg
	for _, in := range g.Entry().Instrs {
		if in.Op == vm.SUB {
			cReg = in.Dst
		}
	}
	if cReg == 0 {
		t.Fatal("no SUB in entry")
	}
	throughs := 0
	for _, b := range g.Blocks {
		if b != g.Entry() && liveIn[b.ID].Has(cReg) {
			throughs++
		}
	}
	if throughs < 2 {
		t.Errorf("c live-in at %d blocks, want >= 2 (both branch paths)", throughs)
	}
}

func TestDefSites(t *testing.T) {
	src := `void f(int a, int* o) { int r; if (a > 0) { r = a; } else { r = -a; } *o = r; }`
	g := buildGraph(t, src, "f")
	sites := DefSites(g)
	if len(sites) != g.Routine.NumRegs+1 {
		t.Errorf("%d site lists for %d registers", len(sites), g.Routine.NumRegs)
	}
	for _, p := range g.Routine.Inputs {
		found := false
		for _, d := range sites[p.Reg] {
			if d.Index == -1 && d.Block == g.Entry() {
				found = true
			}
		}
		if !found {
			t.Errorf("input %s missing entry def site", p.Reg)
		}
	}
	// r has two definition sites (one per branch).
	twoSites := 0
	for _, defs := range sites {
		if len(defs) == 2 {
			twoSites++
		}
	}
	if twoSites == 0 {
		t.Error("no register with two def sites (r should have them)")
	}
}

func TestUseCount(t *testing.T) {
	g := buildGraph(t, `void f(int a, int* o) { *o = a + a; }`, "f")
	counts := UseCount(g)
	in := g.Routine.Inputs[0].Reg
	if counts[in] < 2 {
		t.Errorf("a used %d times, want >= 2", counts[in])
	}
	out := g.Routine.Outputs[0].Reg
	if counts[out] < 1 {
		t.Error("output port not counted as use")
	}
}
