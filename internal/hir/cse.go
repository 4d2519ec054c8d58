package hir

import (
	"sort"

	"roccc/internal/cc"
)

// cse.go implements local value numbering over linearized regions —
// ROCCC's common-subexpression elimination. Combined with Linearize and
// DCE it removes redundant operators from the data path.

// CSE performs local value numbering on every straight-line region of f.
// The function should be linearized first (CSE calls Linearize itself
// for convenience). Returns the number of replaced right-hand sides.
func CSE(f *Func) int {
	Linearize(f)
	n := 0
	f.Body = cseRegion(f.Body, &n)
	return n
}

type vnState struct {
	varVN  map[*Var]int
	exprVN map[vnKey]int
	repOf  map[int]*Var // value number -> variable currently holding it
	// Leaf value numbers of constants and feedback reads, so that every
	// operand of a linearized expression is one value number.
	constVN map[Const]int
	lprVN   map[*Var]int
	next    int
}

// vnKey is the value-numbering key of a linearized right-hand side: its
// form, operator and result type, and the value numbers of its leaf
// operands. Two right-hand sides get one value number exactly when
// their keys are equal.
type vnKey struct {
	form    exprForm
	op      Op
	typ     cc.IntType
	x, y, z int    // operand value numbers
	rom     string // lookup table of a LutRef
}

// exprForm tells apart the expression types a vnKey can stand for.
type exprForm uint8

const (
	formLeaf exprForm = iota // a constant, variable or feedback read
	formLut
	formUn
	formBin
	formSel
	formCast
)

func newVNState() *vnState {
	return &vnState{varVN: map[*Var]int{}, exprVN: map[vnKey]int{}, repOf: map[int]*Var{},
		constVN: map[Const]int{}, lprVN: map[*Var]int{}}
}

func (st *vnState) fresh() int {
	st.next++
	return st.next
}

// vnOfVar returns the current value number of v, creating one if the
// variable is seen for the first time (an input value).
func (st *vnState) vnOfVar(v *Var) int {
	if vn, ok := st.varVN[v]; ok {
		return vn
	}
	vn := st.fresh()
	st.varVN[v] = vn
	st.repOf[vn] = v
	return vn
}

// valid reports whether rep still holds value number vn.
func (st *vnState) valid(rep *Var, vn int) bool {
	return rep != nil && st.varVN[rep] == vn
}

var commutative = map[Op]bool{
	OpAdd: true, OpMul: true, OpAnd: true, OpOr: true, OpXor: true,
	OpEq: true, OpNe: true, OpLAnd: true, OpLOr: true,
}

// leafVN returns the value number of a linearized operand: a variable's
// current one, or one per distinct constant (value and type) and per
// feedback-read variable, which is constant within one iteration. Each
// kind draws from the one counter, so no two kinds share a number. ok is
// false for anything else.
func (st *vnState) leafVN(e Expr) (int, bool) {
	switch e := e.(type) {
	case *VarRef:
		return st.vnOfVar(e.Var), true
	case *Const:
		vn, ok := st.constVN[*e]
		if !ok {
			vn = st.fresh()
			st.constVN[*e] = vn
		}
		return vn, true
	case *LoadPrev:
		vn, ok := st.lprVN[e.Var]
		if !ok {
			vn = st.fresh()
			st.lprVN[e.Var] = vn
		}
		return vn, true
	}
	return 0, false
}

// keyOf builds the canonical value-numbering key for a linearized
// expression; ok is false when the expression must not be numbered
// (memory loads and anything unrecognized).
func (st *vnState) keyOf(e Expr) (vnKey, bool) {
	switch e := e.(type) {
	case *Const, *VarRef, *LoadPrev:
		x, _ := st.leafVN(e)
		return vnKey{form: formLeaf, x: x}, true
	case *LutRef:
		x, ok := st.leafVN(e.Idx)
		return vnKey{form: formLut, x: x, rom: e.Rom.Name}, ok
	case *Un:
		x, ok := st.leafVN(e.X)
		return vnKey{form: formUn, op: e.Op, typ: e.Typ, x: x}, ok
	case *Bin:
		x, okx := st.leafVN(e.X)
		y, oky := st.leafVN(e.Y)
		if commutative[e.Op] && y < x {
			x, y = y, x
		}
		return vnKey{form: formBin, op: e.Op, typ: e.Typ, x: x, y: y}, okx && oky
	case *Sel:
		c, okc := st.leafVN(e.Cond)
		t, okt := st.leafVN(e.Then)
		f, okf := st.leafVN(e.Else)
		return vnKey{form: formSel, typ: e.Typ, x: c, y: t, z: f}, okc && okt && okf
	case *Cast:
		x, ok := st.leafVN(e.X)
		return vnKey{form: formCast, typ: e.Typ, x: x}, ok
	default:
		return vnKey{}, false
	}
}

func cseRegion(list []Stmt, replaced *int) []Stmt {
	st := newVNState()
	var out []Stmt
	for _, s := range list {
		switch s := s.(type) {
		case *Assign:
			key, ok := st.keyOf(s.Src)
			if !ok {
				// Unnumberable RHS (memory load): dst gets a fresh value.
				st.varVN[s.Dst] = st.fresh()
				st.repOf[st.varVN[s.Dst]] = s.Dst
				out = append(out, s)
				continue
			}
			if vn, seen := st.exprVN[key]; seen {
				if rep := st.repOf[vn]; st.valid(rep, vn) && rep != s.Dst {
					if _, already := s.Src.(*VarRef); !already {
						s.Src = &VarRef{Var: rep}
						*replaced++
					}
				}
				st.varVN[s.Dst] = vn
				out = append(out, s)
				continue
			}
			vn := st.fresh()
			st.exprVN[key] = vn
			st.varVN[s.Dst] = vn
			st.repOf[vn] = s.Dst
			out = append(out, s)
		case *StoreNext:
			// The feedback write changes the variable's software value.
			vn := st.fresh()
			st.varVN[s.Var] = vn
			st.repOf[vn] = s.Var
			out = append(out, s)
		case *If:
			// Branch bodies are separate regions; state after the If is
			// conservatively reset for variables assigned inside.
			s.Then = cseRegion(s.Then, replaced)
			s.Else = cseRegion(s.Else, replaced)
			killAssigned(st, s.Then)
			killAssigned(st, s.Else)
			out = append(out, s)
		case *For:
			s.Body = cseRegion(s.Body, replaced)
			killAssigned(st, s.Body)
			st.varVN[s.Var] = st.fresh()
			out = append(out, s)
		default:
			out = append(out, s)
		}
	}
	return out
}

func killAssigned(st *vnState, body []Stmt) {
	assigned := AssignedVars(body)
	vars := make([]*Var, 0, len(assigned))
	for v := range assigned {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
	for _, v := range vars {
		vn := st.fresh()
		st.varVN[v] = vn
		st.repOf[vn] = v
	}
}

// CopyProp replaces reads of variables whose defining assignment in the
// same region is a plain copy (t = v) or constant (t = c), enabling DCE
// to drop the copies. Returns the number of replaced uses.
func CopyProp(f *Func) int {
	n := 0
	f.Body = copyPropRegion(f.Body, &n)
	return n
}

func copyPropRegion(list []Stmt, n *int) []Stmt {
	// binding: var -> replacement leaf expression currently valid.
	binding := map[*Var]Expr{}
	kill := func(v *Var) {
		delete(binding, v)
		// Any binding whose value reads v is stale.
		for dst, repl := range binding {
			if ref, ok := repl.(*VarRef); ok && ref.Var == v {
				delete(binding, dst)
			}
		}
	}
	substitute := func(e Expr) Expr {
		return visitExpr(e, func(x Expr) Expr {
			if ref, ok := x.(*VarRef); ok {
				if repl, ok2 := binding[ref.Var]; ok2 {
					*n++
					return CloneExpr(repl)
				}
			}
			return x
		})
	}
	var out []Stmt
	for _, s := range list {
		switch s := s.(type) {
		case *Assign:
			s.Src = substitute(s.Src)
			kill(s.Dst)
			switch src := s.Src.(type) {
			case *VarRef:
				if src.Var != s.Dst && s.Dst.Type == src.Var.Type {
					binding[s.Dst] = src
				}
			case *Const:
				if src.Typ == s.Dst.Type {
					binding[s.Dst] = src
				}
			}
			out = append(out, s)
		case *StoreNext:
			s.Src = substitute(s.Src)
			kill(s.Var) // the feedback write changes the software value
			out = append(out, s)
		case *Store:
			for i := range s.Idx {
				s.Idx[i] = substitute(s.Idx[i])
			}
			s.Src = substitute(s.Src)
			out = append(out, s)
		case *If:
			s.Cond = substitute(s.Cond)
			s.Then = copyPropRegion(s.Then, n)
			s.Else = copyPropRegion(s.Else, n)
			for v := range AssignedVars(s.Then) {
				kill(v)
			}
			for v := range AssignedVars(s.Else) {
				kill(v)
			}
			out = append(out, s)
		case *For:
			s.Body = copyPropRegion(s.Body, n)
			for v := range AssignedVars(s.Body) {
				kill(v)
			}
			kill(s.Var)
			out = append(out, s)
		default:
			out = append(out, s)
		}
	}
	return out
}
