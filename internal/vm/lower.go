package vm

import (
	"fmt"
	"strconv"

	"roccc/internal/cc"
	"roccc/internal/hir"
)

// Lower translates the exported data-path function (straight-line +
// if/else scalar HIR) into a vm Routine. Each HIR variable is bound to
// one virtual register (SSA conversion renames them later); expression
// temporaries get fresh registers.
func Lower(f *hir.Func) (*Routine, error) {
	lo := &lowerer{
		rt:   &Routine{Name: f.Name},
		bind: map[*hir.Var]Reg{},
	}
	for _, p := range f.Params {
		r := lo.rt.NewReg(p.Type)
		lo.bind[p] = r
		lo.rt.Inputs = append(lo.rt.Inputs, Port{Var: p, Reg: r})
	}
	if err := lo.stmts(f.Body); err != nil {
		return nil, err
	}
	for _, o := range f.Outs {
		r, ok := lo.bind[o]
		if !ok {
			return nil, fmt.Errorf("vm: output %s is never assigned", o.Name)
		}
		// Outputs get dedicated registers so the exit copy is explicit
		// ("All the input and output operands are copied to the entry or
		// exit of the data flow", §4.2.2).
		or := lo.rt.NewReg(o.Type)
		lo.emit(&Instr{Op: MOV, Dst: or, Srcs: []Operand{R(r)}, Typ: o.Type})
		lo.rt.Outputs = append(lo.rt.Outputs, Port{Var: o, Reg: or})
	}
	lo.emit(&Instr{Op: RET})
	return lo.rt, nil
}

type lowerer struct {
	rt        *Routine
	bind      map[*hir.Var]Reg
	nextLabel int
	// target, when set, is consumed by the root expression op so the
	// value lands directly in the assigned variable's register (depth
	// tracks expression nesting).
	target Reg
	depth  int
}

// newDst picks the destination register for an operation: the pending
// assignment target at expression root, a fresh register otherwise.
func (lo *lowerer) newDst(t cc.IntType) Reg {
	if lo.depth == 1 && lo.target != 0 {
		r := lo.target
		lo.target = 0
		return r
	}
	return lo.rt.NewReg(t)
}

// exprInto lowers e so its root operation defines dst directly. It
// reports false (emitting nothing) when e is a leaf or its type differs
// from the variable's, in which case the caller materializes a MOV.
func (lo *lowerer) exprInto(e hir.Expr, dst Reg, typ cc.IntType) (bool, error) {
	switch e.(type) {
	case *hir.Bin, *hir.Un, *hir.Sel, *hir.Cast, *hir.LutRef, *hir.LoadPrev:
		if e.Type() != typ {
			return false, nil
		}
	default:
		return false, nil
	}
	lo.target = dst
	op, err := lo.expr(e)
	lo.target = 0
	if err != nil {
		return false, err
	}
	if op.IsImm || op.Reg != dst {
		// The root folded to something unexpected; fall back to a MOV.
		lo.emit(&Instr{Op: MOV, Dst: dst, Srcs: []Operand{op}, Typ: typ})
	}
	return true, nil
}

func (lo *lowerer) emit(in *Instr) { lo.rt.Instrs = append(lo.rt.Instrs, in) }

func (lo *lowerer) label(prefix string) string {
	lo.nextLabel++
	return prefix + strconv.Itoa(lo.nextLabel)
}

func (lo *lowerer) stmts(list []hir.Stmt) error {
	for _, s := range list {
		if err := lo.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) stmt(s hir.Stmt) error {
	switch s := s.(type) {
	case *hir.Assign:
		dst, ok := lo.bind[s.Dst]
		if !ok {
			dst = lo.rt.NewReg(s.Dst.Type)
			lo.bind[s.Dst] = dst
		}
		// When the right-hand side is a single operation of the same
		// type, the op writes the variable's register directly; a MOV is
		// only materialized for leaf copies and type-changing roots.
		if in, err := lo.exprInto(s.Src, dst, s.Dst.Type); err != nil {
			return err
		} else if in {
			return nil
		}
		op, err := lo.expr(s.Src)
		if err != nil {
			return err
		}
		lo.emit(&Instr{Op: MOV, Dst: dst, Srcs: []Operand{op}, Typ: s.Dst.Type})
		return nil
	case *hir.StoreNext:
		op, err := lo.expr(s.Src)
		if err != nil {
			return err
		}
		lo.emit(&Instr{Op: SNX, Srcs: []Operand{op}, Typ: s.Var.Type, State: s.Var})
		return nil
	case *hir.If:
		cond, err := lo.expr(s.Cond)
		if err != nil {
			return err
		}
		elseLab := lo.label("else")
		endLab := lo.label("end")
		lo.emit(&Instr{Op: BFL, Srcs: []Operand{cond}, Typ: s.Cond.Type(), Label: elseLab})
		if err := lo.stmts(s.Then); err != nil {
			return err
		}
		lo.emit(&Instr{Op: JMP, Label: endLab})
		lo.emit(&Instr{Op: LAB, Label: elseLab})
		if err := lo.stmts(s.Else); err != nil {
			return err
		}
		lo.emit(&Instr{Op: LAB, Label: endLab})
		return nil
	default:
		return fmt.Errorf("vm: cannot lower %T (data-path functions are loop- and memory-free)", s)
	}
}

var binOpcodes = map[hir.Op]Opcode{
	hir.OpAdd: ADD, hir.OpSub: SUB, hir.OpMul: MUL, hir.OpDiv: DIV,
	hir.OpRem: REM, hir.OpAnd: AND, hir.OpOr: IOR, hir.OpXor: XOR,
	hir.OpShl: SHL, hir.OpShr: SHR, hir.OpEq: SEQ, hir.OpNe: SNE,
	hir.OpLt: SLT, hir.OpLe: SLE,
}

func (lo *lowerer) expr(e hir.Expr) (Operand, error) {
	lo.depth++
	defer func() { lo.depth-- }()
	switch e := e.(type) {
	case *hir.Const:
		return Imm(e.Val), nil
	case *hir.VarRef:
		r, ok := lo.bind[e.Var]
		if !ok {
			// Read of a never-written local: materialize zero.
			dst := lo.rt.NewReg(e.Var.Type)
			lo.emit(&Instr{Op: LDC, Dst: dst, Srcs: []Operand{Imm(0)}, Typ: e.Var.Type})
			lo.bind[e.Var] = dst
			return R(dst), nil
		}
		return R(r), nil
	case *hir.LoadPrev:
		dst := lo.newDst(e.Var.Type)
		lo.emit(&Instr{Op: LPR, Dst: dst, Typ: e.Var.Type, State: e.Var})
		return R(dst), nil
	case *hir.LutRef:
		idx, err := lo.expr(e.Idx)
		if err != nil {
			return Operand{}, err
		}
		dst := lo.newDst(e.Rom.Elem)
		lo.emit(&Instr{Op: LUT, Dst: dst, Srcs: []Operand{idx}, Typ: e.Rom.Elem, Rom: e.Rom})
		return R(dst), nil
	case *hir.Cast:
		x, err := lo.expr(e.X)
		if err != nil {
			return Operand{}, err
		}
		dst := lo.newDst(e.Typ)
		lo.emit(&Instr{Op: CVT, Dst: dst, Srcs: []Operand{x}, Typ: e.Typ})
		return R(dst), nil
	case *hir.Un:
		x, err := lo.expr(e.X)
		if err != nil {
			return Operand{}, err
		}
		dst := lo.newDst(e.Typ)
		switch e.Op {
		case hir.OpNeg:
			lo.emit(&Instr{Op: NEG, Dst: dst, Srcs: []Operand{x}, Typ: e.Typ})
		case hir.OpNot:
			lo.emit(&Instr{Op: NOT, Dst: dst, Srcs: []Operand{x}, Typ: e.Typ})
		case hir.OpLNot:
			lo.emit(&Instr{Op: SEQ, Dst: dst, Srcs: []Operand{x, Imm(0)}, Typ: cc.UInt1})
		default:
			return Operand{}, fmt.Errorf("vm: unary %s", e.Op)
		}
		return R(dst), nil
	case *hir.Bin:
		return lo.bin(e)
	case *hir.Sel:
		c, err := lo.expr(e.Cond)
		if err != nil {
			return Operand{}, err
		}
		t, err := lo.expr(e.Then)
		if err != nil {
			return Operand{}, err
		}
		f, err := lo.expr(e.Else)
		if err != nil {
			return Operand{}, err
		}
		dst := lo.newDst(e.Typ)
		lo.emit(&Instr{Op: MUX, Dst: dst, Srcs: []Operand{c, t, f}, Typ: e.Typ})
		return R(dst), nil
	default:
		return Operand{}, fmt.Errorf("vm: cannot lower expression %T", e)
	}
}

func (lo *lowerer) bin(e *hir.Bin) (Operand, error) {
	// Logical && / || evaluate both sides in hardware and operate on
	// booleanized (x != 0) values.
	if e.Op == hir.OpLAnd || e.Op == hir.OpLOr {
		xb, err := lo.boolize(e.X)
		if err != nil {
			return Operand{}, err
		}
		yb, err := lo.boolize(e.Y)
		if err != nil {
			return Operand{}, err
		}
		op := AND
		if e.Op == hir.OpLOr {
			op = IOR
		}
		dst := lo.newDst(cc.UInt1)
		lo.emit(&Instr{Op: op, Dst: dst, Srcs: []Operand{xb, yb}, Typ: cc.UInt1})
		return R(dst), nil
	}
	x, err := lo.expr(e.X)
	if err != nil {
		return Operand{}, err
	}
	y, err := lo.expr(e.Y)
	if err != nil {
		return Operand{}, err
	}
	switch e.Op {
	case hir.OpGt: // a > b  ==  b < a
		dst := lo.newDst(cc.UInt1)
		lo.emit(&Instr{Op: SLT, Dst: dst, Srcs: []Operand{y, x}, Typ: cc.UInt1})
		return R(dst), nil
	case hir.OpGe: // a >= b  ==  b <= a
		dst := lo.newDst(cc.UInt1)
		lo.emit(&Instr{Op: SLE, Dst: dst, Srcs: []Operand{y, x}, Typ: cc.UInt1})
		return R(dst), nil
	}
	op, ok := binOpcodes[e.Op]
	if !ok {
		return Operand{}, fmt.Errorf("vm: binary %s", e.Op)
	}
	typ := e.Typ
	if e.Op.IsComparison() {
		typ = cc.UInt1
	}
	dst := lo.newDst(typ)
	in := &Instr{Op: op, Dst: dst, Srcs: []Operand{x, y}, Typ: typ}
	if op == SLT || op == SLE || op == SHR {
		// Comparisons and right shifts need the operand signedness;
		// record the left operand type on the instruction.
		in.Typ = typ
		in.OperandTyp = e.X.Type()
	}
	lo.emit(in)
	return R(dst), nil
}

// boolize emits x != 0 unless x is already 1-bit.
func (lo *lowerer) boolize(e hir.Expr) (Operand, error) {
	x, err := lo.expr(e)
	if err != nil {
		return Operand{}, err
	}
	if e.Type() == cc.UInt1 {
		return x, nil
	}
	dst := lo.rt.NewReg(cc.UInt1)
	lo.emit(&Instr{Op: SNE, Dst: dst, Srcs: []Operand{x, Imm(0)}, Typ: cc.UInt1})
	return R(dst), nil
}
