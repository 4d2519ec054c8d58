package hir

import (
	"math/rand"
	"testing"
	"testing/quick"

	"roccc/internal/cc"
)

// randomEnvRun executes f twice — original and transformed — on the same
// random inputs and array contents, and compares outputs and arrays.
func semanticsPreserved(t *testing.T, src, name string, transform func(*Func)) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		p1, f1 := mustBuild(t, src, name)
		p2, f2 := mustBuild(t, src, name)
		transform(f2)

		env1, env2 := NewEnv(), NewEnv()
		args := make([]int64, len(f1.Params))
		for i, prm := range f1.Params {
			args[i] = rng.Int63n(1<<uint(min(prm.Type.Bits, 16))) - 1<<uint(min(prm.Type.Bits, 16)-1)
		}
		for i, arr := range p1.Arrays {
			vals := make([]int64, arr.Len())
			for j := range vals {
				vals[j] = rng.Int63n(255) - 128
			}
			env1.BindArray(arr, vals)
			env2.BindArray(p2.Arrays[i], vals)
		}
		out1, err1 := RunProgramFunc(p1, f1, env1, args)
		out2, err2 := RunProgramFunc(p2, f2, env2, args)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: err1=%v err2=%v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		for i := range out1 {
			if out1[i] != out2[i] {
				t.Fatalf("trial %d: output %d: %d != %d", trial, i, out1[i], out2[i])
			}
		}
		for i, arr := range p1.Arrays {
			a1 := env1.Arrays[arr]
			a2 := env2.Arrays[p2.Arrays[i]]
			for j := range a1 {
				if a1[j] != a2[j] {
					t.Fatalf("trial %d: %s[%d]: %d != %d", trial, arr.Name, j, a1[j], a2[j])
				}
			}
		}
		// Globals must match too.
		for i, g := range p1.Globals {
			if env1.Vars[g] != env2.Vars[p2.Globals[i]] {
				t.Fatalf("trial %d: global %s: %d != %d", trial, g.Name,
					env1.Vars[g], env2.Vars[p2.Globals[i]])
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFoldConstants(t *testing.T) {
	e := FoldExpr(&Bin{Op: OpAdd,
		X:   &Bin{Op: OpMul, X: &Const{Val: 3, Typ: cc.Int32}, Y: &Const{Val: 4, Typ: cc.Int32}, Typ: cc.Int32},
		Y:   &Const{Val: 5, Typ: cc.Int32},
		Typ: cc.Int32})
	c, ok := e.(*Const)
	if !ok || c.Val != 17 {
		t.Errorf("3*4+5 folded to %s", ExprString(e))
	}
}

func TestFoldIdentities(t *testing.T) {
	v := &Var{Name: "x", Type: cc.Int32}
	cases := []struct {
		e    Expr
		want string
	}{
		{&Bin{Op: OpAdd, X: &VarRef{Var: v}, Y: &Const{Val: 0, Typ: cc.Int32}, Typ: cc.Int32}, "x"},
		{&Bin{Op: OpMul, X: &VarRef{Var: v}, Y: &Const{Val: 1, Typ: cc.Int32}, Typ: cc.Int32}, "x"},
		{&Bin{Op: OpMul, X: &VarRef{Var: v}, Y: &Const{Val: 0, Typ: cc.Int32}, Typ: cc.Int32}, "0"},
		{&Bin{Op: OpShl, X: &VarRef{Var: v}, Y: &Const{Val: 0, Typ: cc.Int32}, Typ: cc.Int32}, "x"},
		{&Bin{Op: OpAnd, X: &VarRef{Var: v}, Y: &Const{Val: 0, Typ: cc.Int32}, Typ: cc.Int32}, "0"},
	}
	for _, tc := range cases {
		if got := ExprString(FoldExpr(tc.e)); got != tc.want {
			t.Errorf("folded to %s, want %s", got, tc.want)
		}
	}
}

func TestFoldDeadBranch(t *testing.T) {
	src := `void f(int a, int* o) { if (1 < 2) { *o = a; } else { *o = -a; } }`
	_, f := mustBuild(t, src, "f")
	Fold(f)
	if len(f.Body) != 1 {
		t.Fatalf("body = %d stmts", len(f.Body))
	}
	if _, ok := f.Body[0].(*Assign); !ok {
		t.Errorf("dead branch not pruned: %T", f.Body[0])
	}
}

func TestFoldPreservesSemantics(t *testing.T) {
	semanticsPreserved(t, ifElseSource, "if_else", Fold)
}

func TestUnrollFullFIR(t *testing.T) {
	_, f := mustBuild(t, firSource, "fir")
	loop := f.Body[0].(*For)
	body, err := UnrollFull(loop)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 17 {
		t.Errorf("unrolled to %d stmts, want 17", len(body))
	}
	// First iteration indexes are folded constants.
	st := body[0].(*Store)
	c, ok := st.Idx[0].(*Const)
	if !ok || c.Val != 0 {
		t.Errorf("first store index = %s", ExprString(st.Idx[0]))
	}
}

func TestUnrollPreservesSemantics(t *testing.T) {
	semanticsPreserved(t, firSource, "fir", func(f *Func) { UnrollAll(f) })
	semanticsPreserved(t, accumSource, "accum", func(f *Func) { UnrollAll(f) })
}

func TestUnrollByFactor(t *testing.T) {
	src := `int A[16]; int B[16]; void f() { int i; for (i = 0; i < 16; i++) { B[i] = A[i] * 2; } }`
	_, f := mustBuild(t, src, "f")
	loop := f.Body[0].(*For)
	u, err := UnrollBy(loop, 4)
	if err != nil {
		t.Fatal(err)
	}
	if u.Step != 4 {
		t.Errorf("step = %d, want 4", u.Step)
	}
	if len(u.Body) != 4 {
		t.Errorf("body = %d stores, want 4", len(u.Body))
	}
	semanticsPreserved(t, src, "f", func(f *Func) {
		l := f.Body[0].(*For)
		if nl, err := UnrollBy(l, 4); err == nil {
			f.Body[0] = nl
		}
	})
}

func TestUnrollByRejectsNonMultiple(t *testing.T) {
	src := `int A[10]; void f() { int i; for (i = 0; i < 10; i++) { A[i] = i; } }`
	_, f := mustBuild(t, src, "f")
	if _, err := UnrollBy(f.Body[0].(*For), 3); err == nil {
		t.Error("expected non-multiple factor rejection")
	}
}

func TestStripMine(t *testing.T) {
	src := `int A[16]; int B[16]; void f() { int i; for (i = 0; i < 16; i++) { B[i] = A[i] + 1; } }`
	_, f := mustBuild(t, src, "f")
	outer, err := StripMine(f.Body[0].(*For), 4)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Step != 4 {
		t.Errorf("outer step = %d", outer.Step)
	}
	inner, ok := outer.Body[0].(*For)
	if !ok {
		t.Fatalf("inner not a loop")
	}
	if inner.Step != 1 {
		t.Errorf("inner step = %d", inner.Step)
	}
	semanticsPreserved(t, src, "f", func(f *Func) {
		if nl, err := StripMine(f.Body[0].(*For), 4); err == nil {
			f.Body[0] = nl
		}
	})
}

func TestStripMineAndUnroll(t *testing.T) {
	src := `int A[16]; int B[16]; void f() { int i; for (i = 0; i < 16; i++) { B[i] = A[i] + 1; } }`
	_, f := mustBuild(t, src, "f")
	outer, err := StripMineAndUnroll(f.Body[0].(*For), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(outer.Body) != 4 {
		t.Errorf("widened body = %d stores, want 4", len(outer.Body))
	}
	semanticsPreserved(t, src, "f", func(f *Func) {
		if nl, err := StripMineAndUnroll(f.Body[0].(*For), 4); err == nil {
			f.Body[0] = nl
		}
	})
}

func TestFuse(t *testing.T) {
	src := `
int A[8]; int B[8]; int C[8];
void f() {
	int i; int j;
	for (i = 0; i < 8; i++) { B[i] = A[i] * 2; }
	for (j = 0; j < 8; j++) { C[j] = B[j] + 1; }
}
`
	_, f := mustBuild(t, src, "f")
	if n := FuseAdjacent(f); n != 1 {
		t.Fatalf("fused %d pairs, want 1", n)
	}
	if len(f.Body) != 1 {
		t.Fatalf("body = %d stmts after fusion", len(f.Body))
	}
	semanticsPreserved(t, src, "f", func(f *Func) { FuseAdjacent(f) })
}

func TestFuseRejectsOffsetMismatch(t *testing.T) {
	src := `
int A[9]; int B[9]; int C[8];
void f() {
	int i; int j;
	for (i = 0; i < 8; i++) { B[i] = A[i] * 2; }
	for (j = 0; j < 8; j++) { C[j] = B[j+1] + 1; }
}
`
	_, f := mustBuild(t, src, "f")
	if n := FuseAdjacent(f); n != 0 {
		t.Errorf("fused %d pairs, want 0 (loop-carried dependence)", n)
	}
}

func TestFuseRejectsDifferentBounds(t *testing.T) {
	src := `
int A[10]; int B[10]; int C[8];
void f() {
	int i; int j;
	for (i = 0; i < 10; i++) { B[i] = A[i]; }
	for (j = 0; j < 8; j++) { C[j] = B[j]; }
}
`
	_, f := mustBuild(t, src, "f")
	if n := FuseAdjacent(f); n != 0 {
		t.Errorf("fused %d pairs, want 0", n)
	}
}

func TestHoistInvariants(t *testing.T) {
	src := `
int A[8]; int B[8];
void f(int k) {
	int i; int c;
	for (i = 0; i < 8; i++) {
		c = k * 3;
		B[i] = A[i] + c;
	}
}
`
	_, f := mustBuild(t, src, "f")
	if n := HoistInvariants(f); n != 1 {
		t.Fatalf("hoisted %d, want 1", n)
	}
	if _, ok := f.Body[0].(*Assign); !ok {
		t.Errorf("hoisted statement missing; body[0] is %T", f.Body[0])
	}
	semanticsPreserved(t, src, "f", func(f *Func) { HoistInvariants(f) })
}

func TestHoistRefusesLoopCarried(t *testing.T) {
	src := `
int A[8]; int B[8];
void f(int k) {
	int i; int c;
	c = 0;
	for (i = 0; i < 8; i++) {
		c = c + k;
		B[i] = A[i] + c;
	}
}
`
	_, f := mustBuild(t, src, "f")
	if n := HoistInvariants(f); n != 0 {
		t.Errorf("hoisted %d, want 0 (c is loop-carried)", n)
	}
}

func TestCSERemovesDuplicates(t *testing.T) {
	src := `void f(int a, int b, int* o1, int* o2) {
		*o1 = (a + b) * (a + b);
		*o2 = (a + b) * 3;
	}`
	_, f := mustBuild(t, src, "f")
	if n := CSE(f); n < 2 {
		t.Errorf("CSE replaced %d, want >= 2 (a+b reused)", n)
	}
	CopyProp(f)
	DCE(f)
	adds := 0
	VisitExprs(f.Body, func(e Expr) Expr {
		if b, ok := e.(*Bin); ok && b.Op == OpAdd {
			adds++
		}
		return e
	})
	if adds != 1 {
		t.Errorf("adds after CSE = %d, want 1", adds)
	}
	semanticsPreserved(t, src, "f", func(f *Func) { CSE(f); CopyProp(f); DCE(f) })
}

// TestCSECommutativeOperands checks that value numbering orders the
// operands of a commutative operator: a+b and b+a, then t*c and c*t,
// each get one value number.
func TestCSECommutativeOperands(t *testing.T) {
	src := `void f(int a, int b, int c, int* o1, int* o2) {
		*o1 = (a + b) * c;
		*o2 = c * (b + a);
	}`
	_, f := mustBuild(t, src, "f")
	if n := CSE(f); n != 2 {
		t.Errorf("CSE replaced %d, want 2 (b+a and c*(b+a))", n)
	}
	CopyProp(f)
	DCE(f)
	ops := map[Op]int{}
	VisitExprs(f.Body, func(e Expr) Expr {
		if b, ok := e.(*Bin); ok {
			ops[b.Op]++
		}
		return e
	})
	if ops[OpAdd] != 1 || ops[OpMul] != 1 || len(ops) != 2 {
		t.Errorf("binary ops after CSE = %v, want one add and one mul", ops)
	}
	semanticsPreserved(t, src, "f", func(f *Func) { CSE(f); CopyProp(f); DCE(f) })
}

func TestCSEPreservesIfElse(t *testing.T) {
	semanticsPreserved(t, ifElseSource, "if_else", func(f *Func) { CSE(f); CopyProp(f); DCE(f) })
}

func TestDCERemovesDeadCode(t *testing.T) {
	src := `void f(int a, int* o) { int dead; dead = a * 17; *o = a + 1; }`
	_, f := mustBuild(t, src, "f")
	DCE(f)
	if len(f.Body) != 1 {
		t.Errorf("body = %d stmts after DCE, want 1", len(f.Body))
	}
	semanticsPreserved(t, src, "f", DCE)
}

func TestLinearizeThreeAddress(t *testing.T) {
	src := `void f(int a, int b, int* o) { *o = (a + b) * (a - b) + 7; }`
	_, f := mustBuild(t, src, "f")
	Linearize(f)
	for _, s := range f.Body {
		a, ok := s.(*Assign)
		if !ok {
			continue
		}
		// RHS must have depth <= 1: operands are leaves.
		if bin, ok := a.Src.(*Bin); ok {
			if !isLeaf(bin.X) || !isLeaf(bin.Y) {
				t.Errorf("non-linearized: %s", StmtString(a))
			}
		}
	}
	semanticsPreserved(t, src, "f", Linearize)
}

func isLeaf(e Expr) bool {
	switch e.(type) {
	case *Const, *VarRef, *LoadPrev:
		return true
	}
	return false
}

func TestPipelineOfPassesQuick(t *testing.T) {
	// Property: the full optimization pipeline preserves if_else
	// semantics on random inputs.
	p, f := mustBuild(t, ifElseSource, "if_else")
	Fold(f)
	CSE(f)
	CopyProp(f)
	DCE(f)
	pr, fr := mustBuild(t, ifElseSource, "if_else")
	check := func(x1, x2 int16) bool {
		e1, e2 := NewEnv(), NewEnv()
		o1, err1 := RunProgramFunc(p, f, e1, []int64{int64(x1), int64(x2)})
		o2, err2 := RunProgramFunc(pr, fr, e2, []int64{int64(x1), int64(x2)})
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return o1[0] == o2[0] && o1[1] == o2[1]
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
