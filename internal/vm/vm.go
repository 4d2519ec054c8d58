// Package vm is the reproduction's Machine-SUIF SUIFvm analogue: an
// assembly-like virtual-machine IR with virtual registers (§4.2.1). The
// data-path function exported by the front end is lowered to vm
// instructions, which then undergo CFG construction (package cfg),
// data-flow analysis (package dfa) and SSA conversion (package ssa)
// before data-path building (package dp).
package vm

import (
	"fmt"
	"strings"

	"roccc/internal/cc"
	"roccc/internal/hir"
)

// Opcode is a SUIFvm-style opcode, extended with the ROCCC-specific
// opcodes of §4.2.1: LPR (load previous), SNX (store next) and LUT.
type Opcode int

// Opcodes.
const (
	NOP Opcode = iota
	LDC        // dst = immediate
	MOV        // dst = a
	ADD        // dst = a + b
	SUB        // dst = a - b
	MUL        // dst = a * b
	DIV        // dst = a / b
	REM        // dst = a % b
	AND        // dst = a & b
	IOR        // dst = a | b
	XOR        // dst = a ^ b
	SHL        // dst = a << b
	SHR        // dst = a >> b (arithmetic/logical by a's signedness)
	NEG        // dst = -a
	NOT        // dst = ^a
	SEQ        // dst = a == b
	SNE        // dst = a != b
	SLT        // dst = a < b
	SLE        // dst = a <= b
	MUX        // dst = a != 0 ? b : c
	CVT        // dst = (type)a
	LUT        // dst = rom[a]
	LPR        // dst = feedback latch of State
	SNX        // feedback latch of State <- a
	BTR        // branch to Label if a != 0
	BFL        // branch to Label if a == 0
	JMP        // unconditional branch to Label
	LAB        // label pseudo-instruction
	RET        // routine end
	PHI        // SSA phi: dst = phi(src per predecessor)
)

var opcodeNames = map[Opcode]string{
	NOP: "nop", LDC: "ldc", MOV: "mov", ADD: "add", SUB: "sub", MUL: "mul",
	DIV: "div", REM: "rem", AND: "and", IOR: "ior", XOR: "xor", SHL: "shl",
	SHR: "shr", NEG: "neg", NOT: "not", SEQ: "seq", SNE: "sne", SLT: "slt",
	SLE: "sle", MUX: "mux", CVT: "cvt", LUT: "lut", LPR: "lpr", SNX: "snx",
	BTR: "btr", BFL: "bfl", JMP: "jmp", LAB: "lab", RET: "ret", PHI: "phi",
}

// String returns the mnemonic.
func (o Opcode) String() string { return opcodeNames[o] }

// IsBranch reports whether the opcode transfers control.
func (o Opcode) IsBranch() bool { return o == BTR || o == BFL || o == JMP }

// HasDst reports whether the opcode defines its Dst register.
func (o Opcode) HasDst() bool {
	switch o {
	case NOP, SNX, BTR, BFL, JMP, LAB, RET:
		return false
	}
	return true
}

// IsCompute reports whether the instruction computes a value placed in
// the data path (arithmetic/logic/copy/state/lookup).
func (o Opcode) IsCompute() bool {
	return o.HasDst() || o == SNX
}

// Reg is a virtual register number. Register 0 is invalid.
type Reg int

// String renders the register as vrN, matching the paper's figures.
func (r Reg) String() string { return fmt.Sprintf("vr%d", int(r)) }

// Operand is either a virtual register or an immediate constant.
type Operand struct {
	IsImm bool
	Reg   Reg
	Imm   int64
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Reg: r} }

// Imm makes an immediate operand.
func Imm(v int64) Operand { return Operand{IsImm: true, Imm: v} }

// String renders the operand.
func (o Operand) String() string {
	if o.IsImm {
		return fmt.Sprintf("#%d", o.Imm)
	}
	return o.Reg.String()
}

// Instr is a single vm instruction.
type Instr struct {
	Op    Opcode
	Dst   Reg
	Srcs  []Operand
	Typ   cc.IntType // result (or operand, for SNX/branches) type
	Label string     // branch target or label name
	Rom   *hir.Rom   // LUT table
	State *hir.Var   // LPR/SNX feedback state
	// OperandTyp records the left operand's type where it changes the
	// operation's semantics (SHR: arithmetic vs logical shift).
	OperandTyp cc.IntType
}

// Clone returns a copy of the instruction with its own operand slice,
// so rewrites on the copy do not affect the original.
func (in *Instr) Clone() *Instr {
	cp := *in
	cp.Srcs = append([]Operand(nil), in.Srcs...)
	return &cp
}

// ShiftOperandType resolves the left-operand type that fixes SHR
// semantics (arithmetic vs logical shift): OperandTyp where the lowerer
// recorded it, else the result type. The vm interpreter and the
// compiled data-path simulator both dispatch on it so the two layers
// cannot drift apart.
func (in *Instr) ShiftOperandType() cc.IntType {
	if in.OperandTyp.Bits != 0 {
		return in.OperandTyp
	}
	return in.Typ
}

// Uses returns the register operands read by the instruction.
func (in *Instr) Uses() []Reg {
	var rs []Reg
	for _, s := range in.Srcs {
		if !s.IsImm && s.Reg != 0 {
			rs = append(rs, s.Reg)
		}
	}
	return rs
}

// String renders the instruction in a readable assembly syntax.
func (in *Instr) String() string {
	switch in.Op {
	case LAB:
		return in.Label + ":"
	case JMP:
		return fmt.Sprintf("  jmp %s", in.Label)
	case BTR, BFL:
		return fmt.Sprintf("  %s %s, %s", in.Op, in.Srcs[0], in.Label)
	case RET:
		return "  ret"
	case SNX:
		return fmt.Sprintf("  snx %s <- %s", in.State.Name, in.Srcs[0])
	case LPR:
		return fmt.Sprintf("  %s = lpr %s", in.Dst, in.State.Name)
	case LUT:
		return fmt.Sprintf("  %s = lut %s[%s]", in.Dst, in.Rom.Name, in.Srcs[0])
	case LDC:
		return fmt.Sprintf("  %s = ldc %s : %s", in.Dst, in.Srcs[0], in.Typ)
	default:
		var parts []string
		for _, s := range in.Srcs {
			parts = append(parts, s.String())
		}
		return fmt.Sprintf("  %s = %s %s : %s", in.Dst, in.Op, strings.Join(parts, ", "), in.Typ)
	}
}

// Port binds a data-path function variable to a virtual register.
type Port struct {
	Var *hir.Var
	Reg Reg
}

// Routine is a lowered data-path function: a linear instruction stream
// with labels (CFG construction groups it into blocks).
//
// Registers are dense: every register the routine mentions lies in
// 1..NumRegs, so later passes index per-register state by Reg. RegType
// holds each register's type at index Reg (entry 0 is unused); NewReg
// keeps len(RegType) == NumRegs+1.
type Routine struct {
	Name    string
	Instrs  []*Instr
	Inputs  []Port
	Outputs []Port
	NumRegs int
	RegType []cc.IntType
}

// NewReg allocates the next register, of type t.
func (rt *Routine) NewReg(t cc.IntType) Reg {
	if len(rt.RegType) == 0 {
		rt.RegType = append(rt.RegType, cc.IntType{}) // register 0 is invalid
	}
	rt.NumRegs++
	rt.RegType = append(rt.RegType, t)
	return Reg(rt.NumRegs)
}

// String renders the routine.
func (rt *Routine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "routine %s\n", rt.Name)
	for _, p := range rt.Inputs {
		fmt.Fprintf(&b, "  in  %s = %s : %s\n", p.Reg, p.Var.Name, p.Var.Type)
	}
	for _, p := range rt.Outputs {
		fmt.Fprintf(&b, "  out %s = %s : %s\n", p.Reg, p.Var.Name, p.Var.Type)
	}
	for _, in := range rt.Instrs {
		b.WriteString(in.String())
		b.WriteByte('\n')
	}
	return b.String()
}
