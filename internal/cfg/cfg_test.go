package cfg

import (
	"strings"
	"testing"

	"roccc/internal/cc"
	"roccc/internal/hir"
	"roccc/internal/vm"
)

func lower(t *testing.T, src, name string) *vm.Routine {
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
	return rt
}

func TestBuildStraightLine(t *testing.T) {
	rt := lower(t, `void f(int a, int b, int* o) { *o = a + b * 2; }`, "f")
	g, err := Build(rt)
	if err != nil {
		t.Fatal(err)
	}
	// Straight-line code: a single block into the exit.
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
	if len(g.Entry().Succs) != 1 || g.Entry().Succs[0] != g.Exit {
		t.Error("entry must flow to exit")
	}
}

func TestBuildDiamond(t *testing.T) {
	src := `void f(int a, int* o) { int r; if (a > 0) { r = a; } else { r = -a; } *o = r; }`
	g, err := Build(lower(t, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	entry := g.Entry()
	if entry.BranchCond == nil || len(entry.Succs) != 2 {
		t.Fatal("entry is not a branch")
	}
	// Both branch targets converge.
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

func TestBuildNestedDiamonds(t *testing.T) {
	src := `
void f(int a, int b, int* o) {
	int r;
	if (a > 0) {
		if (b > 0) { r = 1; } else { r = 2; }
	} else {
		if (b > 0) { r = 3; } else { r = 4; }
	}
	*o = r;
}
`
	g, err := Build(lower(t, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	branches := 0
	for _, b := range g.Blocks {
		if b.BranchCond != nil {
			branches++
		}
	}
	if branches != 3 {
		t.Errorf("branches = %d, want 3", branches)
	}
	// Block IDs are dense: the analyses index their results by them.
	for i, b := range g.Blocks {
		if b.ID != i {
			t.Errorf("Blocks[%d].ID = %d", i, b.ID)
		}
	}
	if g.Exit.ID != len(g.Blocks) {
		t.Errorf("Exit.ID = %d, want %d", g.Exit.ID, len(g.Blocks))
	}
	// RPO visits entry first and every reachable block once.
	rpo := g.ReversePostOrder()
	if rpo[0] != g.Entry() {
		t.Error("RPO does not start at entry")
	}
	if len(rpo) != len(g.Blocks) {
		t.Errorf("RPO has %d blocks, want %d", len(rpo), len(g.Blocks))
	}
	seen := make([]bool, len(g.Blocks)+1)
	for _, b := range rpo {
		if seen[b.ID] {
			t.Error("duplicate block in RPO")
		}
		seen[b.ID] = true
	}
}

func TestDominatorsChain(t *testing.T) {
	src := `
void f(int a, int* o) {
	int r;
	r = a;
	if (a > 0) { r = r + 1; }
	if (a > 1) { r = r + 2; }
	*o = r;
}
`
	g, err := Build(lower(t, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	idom := g.Dominators()
	entry := g.Entry()
	if idom[entry.ID] != entry {
		t.Error("entry must dominate itself")
	}
	// Every reachable block walks up to the entry.
	for _, b := range g.ReversePostOrder() {
		d := b
		for i := 0; i < 50 && d != entry; i++ {
			nd := idom[d.ID]
			if nd == nil {
				t.Fatalf("block %d has no idom", d.ID)
			}
			d = nd
		}
		if d != entry {
			t.Errorf("block %d does not reach entry in the dom tree", b.ID)
		}
	}
	if idom[g.Exit.ID] != nil {
		t.Error("exit has an idom")
	}

	// A block after a JMP that no branch targets is unreachable: it has
	// no idom and is in no block's frontier, while the join it falls
	// into still is.
	rt := &vm.Routine{Name: "dead", Inputs: []vm.Port{{Reg: 1}}}
	rt.NewReg(cc.Int32)
	rt.NewReg(cc.Int32)
	rt.Instrs = []*vm.Instr{
		{Op: vm.BTR, Srcs: []vm.Operand{vm.R(1)}, Label: "join"},
		{Op: vm.JMP, Label: "join"},
		{Op: vm.LDC, Dst: 2, Srcs: []vm.Operand{vm.Imm(7)}, Typ: cc.Int32},
		{Op: vm.LAB, Label: "join"},
		{Op: vm.RET},
	}
	g, err = Build(rt)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4:\n%s", len(g.Blocks), g)
	}
	dead, join := g.Blocks[2], g.Blocks[3]
	if len(dead.Instrs) != 1 || len(join.Preds) != 3 {
		t.Fatalf("unexpected shape:\n%s", g)
	}
	idom = g.Dominators()
	if idom[dead.ID] != nil {
		t.Errorf("unreachable block %d has idom %d", dead.ID, idom[dead.ID].ID)
	}
	if idom[join.ID] != g.Entry() {
		t.Errorf("join's idom is %v, want the entry", idom[join.ID])
	}
	df := g.DominanceFrontier(idom)
	joinIn := 0
	for _, frontier := range df {
		for _, fb := range frontier {
			if fb == dead {
				t.Errorf("unreachable block %d in a frontier", dead.ID)
			}
			if fb == join {
				joinIn++
			}
		}
	}
	if joinIn == 0 {
		t.Error("join in no frontier")
	}
}

func TestDominanceFrontierTriangle(t *testing.T) {
	// If without else: the join's frontier relation still holds.
	src := `void f(int a, int* o) { int r; r = 0; if (a > 0) { r = a; } *o = r; }`
	g, err := Build(lower(t, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	df := g.DominanceFrontier(g.Dominators())
	var join *Block
	for _, b := range g.Blocks {
		if len(b.Preds) == 2 {
			join = b
		}
	}
	if join == nil {
		t.Fatal("no join")
	}
	found := false
	for _, frontier := range df {
		for _, fb := range frontier {
			if fb == join {
				found = true
			}
		}
	}
	if !found {
		t.Error("join not in any dominance frontier")
	}
}

func TestPredIndex(t *testing.T) {
	src := `void f(int a, int* o) { int r; if (a > 0) { r = 1; } else { r = 2; } *o = r; }`
	g, err := Build(lower(t, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Blocks {
		for i, p := range b.Preds {
			if b.PredIndex(p) != i {
				t.Errorf("PredIndex mismatch at block %d", b.ID)
			}
		}
		if b.PredIndex(g.Exit) != -1 && len(b.Preds) == 0 {
			t.Error("PredIndex of non-pred should be -1")
		}
	}
}

func TestGraphString(t *testing.T) {
	g, err := Build(lower(t, `void f(int a, int* o) { *o = a; }`, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.String(), "block 0") {
		t.Error("graph printout missing block header")
	}
}

func TestUnknownLabelError(t *testing.T) {
	rt := &vm.Routine{
		Name: "bad",
		Instrs: []*vm.Instr{
			{Op: vm.JMP, Label: "nowhere"},
			{Op: vm.RET},
		},
	}
	if _, err := Build(rt); err == nil {
		t.Error("unknown label not reported")
	}
}
