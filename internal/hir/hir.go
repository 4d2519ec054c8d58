// Package hir is the high-level intermediate representation of the ROCCC
// reproduction — the stage the DATE'05 paper implements on SUIF IRs.
// It preserves loop statements and array accesses so that loop-level
// optimizations (unrolling, strip-mining, fusion), scalar replacement and
// feedback detection can run before the kernel is handed to the
// Machine-SUIF-like back end (package vm).
package hir

import (
	"fmt"
	"strconv"
	"strings"

	"roccc/internal/cc"
)

// Op is an HIR operator.
type Op int

// HIR operators. Comparison and logical operators produce 1-bit values.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpLAnd
	OpLOr
	OpNeg  // unary minus
	OpNot  // bitwise complement
	OpLNot // logical not
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpRem: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", OpEq: "==", OpNe: "!=",
	OpLAnd: "&&", OpLOr: "||", OpNeg: "-", OpNot: "~", OpLNot: "!",
}

// String returns the C spelling of the operator.
func (o Op) String() string { return opNames[o] }

// IsComparison reports whether the operator yields a 1-bit result.
func (o Op) IsComparison() bool {
	switch o {
	case OpLt, OpLe, OpGt, OpGe, OpEq, OpNe, OpLAnd, OpLOr, OpLNot:
		return true
	}
	return false
}

// VarKind classifies HIR variables.
type VarKind int

// Variable kinds.
const (
	VarLocal    VarKind = iota // function-local scalar
	VarParam                   // scalar input parameter
	VarOut                     // scalar output
	VarLoop                    // loop induction variable
	VarGlobal                  // global scalar (becomes feedback state)
	VarFeedback                // detected loop-carried scalar
)

func (k VarKind) String() string {
	switch k {
	case VarLocal:
		return "local"
	case VarParam:
		return "param"
	case VarOut:
		return "out"
	case VarLoop:
		return "loop"
	case VarGlobal:
		return "global"
	case VarFeedback:
		return "feedback"
	}
	return "var"
}

// Var is an HIR scalar variable.
type Var struct {
	Name string
	Type cc.IntType
	Kind VarKind
	// Init is the reset value for globals and feedback variables.
	Init int64
}

// String returns the variable name.
func (v *Var) String() string { return v.Name }

// Array is a memory-resident data array (mapped to BRAM in the paper's
// execution model, Fig. 2).
type Array struct {
	Name string
	Elem cc.IntType
	Dims []int
}

// Len returns the flattened element count.
func (a *Array) Len() int {
	n := a.Dims[0]
	if len(a.Dims) == 2 {
		n *= a.Dims[1]
	}
	return n
}

// String returns the array's C-style declaration.
func (a *Array) String() string {
	var b strings.Builder
	b.WriteString(a.Name)
	for _, d := range a.Dims {
		fmt.Fprintf(&b, "[%d]", d)
	}
	return b.String()
}

// Rom is a read-only lookup table (a const array in the source). The
// compiler instantiates it as a ROM IP with a plain-text init file, as
// §4.2.4 of the paper describes.
type Rom struct {
	Name    string
	Elem    cc.IntType
	Size    int
	Content []int64
	// Half marks a pre-existing half-wave sine/cosine IP component: the
	// stored table covers a quarter wave and the rest is mirrored, which
	// is why the Xilinx cos core is smaller than an arbitrary ROM with
	// the same ports (§5).
	Half bool
}

// String returns the ROM name.
func (r *Rom) String() string { return r.Name }

// Program is a whole compiled translation unit in HIR form.
type Program struct {
	Arrays  []*Array
	Roms    []*Rom
	Globals []*Var
	Funcs   []*Func
}

// Func returns the function named name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Array returns the array named name, or nil.
func (p *Program) Array(name string) *Array {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Func is an HIR function: scalar parameters, scalar outputs and a body.
// All user function calls have been inlined during construction.
type Func struct {
	Name   string
	Params []*Var
	Outs   []*Var
	Body   []Stmt

	nextTemp int
}

// NewTemp creates a fresh local variable with the given type.
func (f *Func) NewTemp(t cc.IntType) *Var {
	f.nextTemp++
	return &Var{Name: "t" + strconv.Itoa(f.nextTemp), Type: t, Kind: VarLocal}
}

// --- Statements ---

// Stmt is an HIR statement.
type Stmt interface {
	stmtNode()
}

// Assign writes a scalar variable.
type Assign struct {
	Dst *Var
	Src Expr
}

// Store writes an array element.
type Store struct {
	Arr *Array
	Idx []Expr
	Src Expr
}

// StoreNext is the feedback write annotation (ROCCC_store2next /
// the SNX opcode of §4.2.1).
type StoreNext struct {
	Var *Var
	Src Expr
}

// If is a two-way conditional.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// For is a canonical counted loop: Var runs From (inclusive) to To
// (exclusive) in steps of Step.
type For struct {
	Var  *Var
	From Expr
	To   Expr
	Step int64
	Body []Stmt
}

func (*Assign) stmtNode()    {}
func (*Store) stmtNode()     {}
func (*StoreNext) stmtNode() {}
func (*If) stmtNode()        {}
func (*For) stmtNode()       {}

// --- Expressions ---

// Expr is an HIR expression.
type Expr interface {
	exprNode()
	// Type returns the expression's result type.
	Type() cc.IntType
}

// Const is an integer constant.
type Const struct {
	Val int64
	Typ cc.IntType
}

// VarRef reads a scalar variable.
type VarRef struct {
	Var *Var
}

// Load reads an array element.
type Load struct {
	Arr *Array
	Idx []Expr
}

// LutRef reads a ROM (lookup table); compiled to the LUT opcode.
type LutRef struct {
	Rom *Rom
	Idx Expr
}

// LoadPrev is the feedback read annotation (ROCCC_load_prev / LPR).
type LoadPrev struct {
	Var *Var
}

// Un is a unary operation.
type Un struct {
	Op  Op
	X   Expr
	Typ cc.IntType
}

// Bin is a binary operation.
type Bin struct {
	Op   Op
	X, Y Expr
	Typ  cc.IntType
}

// Sel is the ternary select c ? t : f.
type Sel struct {
	Cond, Then, Else Expr
	Typ              cc.IntType
}

// Cast converts a value to a different width/signedness.
type Cast struct {
	X   Expr
	Typ cc.IntType
}

func (*Const) exprNode()    {}
func (*VarRef) exprNode()   {}
func (*Load) exprNode()     {}
func (*LutRef) exprNode()   {}
func (*LoadPrev) exprNode() {}
func (*Un) exprNode()       {}
func (*Bin) exprNode()      {}
func (*Sel) exprNode()      {}
func (*Cast) exprNode()     {}

// Type implementations.
func (e *Const) Type() cc.IntType    { return e.Typ }
func (e *VarRef) Type() cc.IntType   { return e.Var.Type }
func (e *Load) Type() cc.IntType     { return e.Arr.Elem }
func (e *LutRef) Type() cc.IntType   { return e.Rom.Elem }
func (e *LoadPrev) Type() cc.IntType { return e.Var.Type }
func (e *Un) Type() cc.IntType       { return e.Typ }
func (e *Bin) Type() cc.IntType      { return e.Typ }
func (e *Sel) Type() cc.IntType      { return e.Typ }
func (e *Cast) Type() cc.IntType     { return e.Typ }

// String renders an expression as C-like text.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *Const:
		return fmt.Sprintf("%d", e.Val)
	case *VarRef:
		return e.Var.Name
	case *Load:
		var b strings.Builder
		b.WriteString(e.Arr.Name)
		for _, ix := range e.Idx {
			fmt.Fprintf(&b, "[%s]", ExprString(ix))
		}
		return b.String()
	case *LutRef:
		return fmt.Sprintf("%s[%s]", e.Rom.Name, ExprString(e.Idx))
	case *LoadPrev:
		return fmt.Sprintf("ROCCC_load_prev(%s)", e.Var.Name)
	case *Un:
		return fmt.Sprintf("%s%s", e.Op, ExprString(e.X))
	case *Bin:
		return fmt.Sprintf("(%s %s %s)", ExprString(e.X), e.Op, ExprString(e.Y))
	case *Sel:
		return fmt.Sprintf("(%s ? %s : %s)", ExprString(e.Cond), ExprString(e.Then), ExprString(e.Else))
	case *Cast:
		return fmt.Sprintf("(%s)%s", e.Typ, ExprString(e.X))
	default:
		return fmt.Sprintf("<?%T>", e)
	}
}

// StmtString renders a statement (single line for simple statements).
func StmtString(s Stmt) string {
	var b strings.Builder
	writeStmt(&b, s, 0)
	return strings.TrimRight(b.String(), "\n")
}

// FuncString renders a whole function body, used by golden tests.
func FuncString(f *Func) string {
	var b strings.Builder
	params := make([]string, 0, len(f.Params)+len(f.Outs))
	for _, p := range f.Params {
		params = append(params, fmt.Sprintf("%s %s", p.Type, p.Name))
	}
	for _, o := range f.Outs {
		params = append(params, fmt.Sprintf("%s* %s", o.Type, o.Name))
	}
	fmt.Fprintf(&b, "void %s(%s) {\n", f.Name, strings.Join(params, ", "))
	for _, s := range f.Body {
		writeStmt(&b, s, 1)
	}
	b.WriteString("}")
	return b.String()
}

func writeStmt(b *strings.Builder, s Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	switch s := s.(type) {
	case *Assign:
		fmt.Fprintf(b, "%s%s = %s;\n", ind, s.Dst.Name, ExprString(s.Src))
	case *Store:
		var ix strings.Builder
		for _, e := range s.Idx {
			fmt.Fprintf(&ix, "[%s]", ExprString(e))
		}
		fmt.Fprintf(b, "%s%s%s = %s;\n", ind, s.Arr.Name, ix.String(), ExprString(s.Src))
	case *StoreNext:
		fmt.Fprintf(b, "%sROCCC_store2next(%s, %s);\n", ind, s.Var.Name, ExprString(s.Src))
	case *If:
		fmt.Fprintf(b, "%sif (%s) {\n", ind, ExprString(s.Cond))
		for _, t := range s.Then {
			writeStmt(b, t, depth+1)
		}
		if len(s.Else) > 0 {
			fmt.Fprintf(b, "%s} else {\n", ind)
			for _, t := range s.Else {
				writeStmt(b, t, depth+1)
			}
		}
		fmt.Fprintf(b, "%s}\n", ind)
	case *For:
		fmt.Fprintf(b, "%sfor (%s = %s; %s < %s; %s += %d) {\n",
			ind, s.Var.Name, ExprString(s.From), s.Var.Name, ExprString(s.To), s.Var.Name, s.Step)
		for _, t := range s.Body {
			writeStmt(b, t, depth+1)
		}
		fmt.Fprintf(b, "%s}\n", ind)
	default:
		fmt.Fprintf(b, "%s<?stmt %T>\n", ind, s)
	}
}

// CloneExpr deep-copies an expression tree (Vars/Arrays/Roms are shared).
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case *Const:
		cp := *e
		return &cp
	case *VarRef:
		cp := *e
		return &cp
	case *Load:
		idx := make([]Expr, len(e.Idx))
		for i, ix := range e.Idx {
			idx[i] = CloneExpr(ix)
		}
		return &Load{Arr: e.Arr, Idx: idx}
	case *LutRef:
		return &LutRef{Rom: e.Rom, Idx: CloneExpr(e.Idx)}
	case *LoadPrev:
		cp := *e
		return &cp
	case *Un:
		return &Un{Op: e.Op, X: CloneExpr(e.X), Typ: e.Typ}
	case *Bin:
		return &Bin{Op: e.Op, X: CloneExpr(e.X), Y: CloneExpr(e.Y), Typ: e.Typ}
	case *Sel:
		return &Sel{Cond: CloneExpr(e.Cond), Then: CloneExpr(e.Then), Else: CloneExpr(e.Else), Typ: e.Typ}
	case *Cast:
		return &Cast{X: CloneExpr(e.X), Typ: e.Typ}
	default:
		panic(fmt.Sprintf("hir: CloneExpr: unexpected %T", e))
	}
}

// CloneStmt deep-copies a statement tree.
func CloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *Assign:
		return &Assign{Dst: s.Dst, Src: CloneExpr(s.Src)}
	case *Store:
		idx := make([]Expr, len(s.Idx))
		for i, ix := range s.Idx {
			idx[i] = CloneExpr(ix)
		}
		return &Store{Arr: s.Arr, Idx: idx, Src: CloneExpr(s.Src)}
	case *StoreNext:
		return &StoreNext{Var: s.Var, Src: CloneExpr(s.Src)}
	case *If:
		return &If{Cond: CloneExpr(s.Cond), Then: CloneStmts(s.Then), Else: CloneStmts(s.Else)}
	case *For:
		return &For{Var: s.Var, From: CloneExpr(s.From), To: CloneExpr(s.To), Step: s.Step, Body: CloneStmts(s.Body)}
	default:
		panic(fmt.Sprintf("hir: CloneStmt: unexpected %T", s))
	}
}

// CloneStmts deep-copies a statement list.
func CloneStmts(list []Stmt) []Stmt {
	out := make([]Stmt, len(list))
	for i, s := range list {
		out[i] = CloneStmt(s)
	}
	return out
}
