package vm

import (
	"testing"
	"testing/quick"

	"roccc/internal/cc"
)

func TestOpcodeClassifiers(t *testing.T) {
	if !BTR.IsBranch() || !JMP.IsBranch() || ADD.IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	if !ADD.HasDst() || SNX.HasDst() || RET.HasDst() {
		t.Error("HasDst misclassifies")
	}
	if !SNX.IsCompute() || RET.IsCompute() {
		t.Error("IsCompute misclassifies")
	}
	for op := NOP; op <= PHI; op++ {
		if op.String() == "" {
			t.Errorf("opcode %d has no mnemonic", int(op))
		}
	}
}

func TestInstrClone(t *testing.T) {
	in := &Instr{Op: ADD, Dst: 3, Srcs: []Operand{R(1), R(2)}, Typ: cc.Int32}
	cp := in.Clone()
	cp.Srcs[0].Reg = 99
	if in.Srcs[0].Reg != 1 {
		t.Error("clone shares operand storage")
	}
	cp.Dst = 7
	if in.Dst != 3 {
		t.Error("clone shares header")
	}
}

func TestInstrUses(t *testing.T) {
	in := &Instr{Op: MUX, Srcs: []Operand{R(1), Imm(5), R(2)}}
	uses := in.Uses()
	if len(uses) != 2 || uses[0] != 1 || uses[1] != 2 {
		t.Errorf("uses = %v", uses)
	}
}

// TestEvalOpMatchesGo checks the arithmetic opcodes against native Go
// semantics at 32-bit width on random operands.
func TestEvalOpMatchesGo(t *testing.T) {
	mk := func(op Opcode) *Instr {
		return &Instr{Op: op, Dst: 3, Srcs: []Operand{R(1), R(2)}, Typ: cc.Int32}
	}
	f := func(a, b int32) bool {
		vals := map[Reg]int64{1: int64(a), 2: int64(b)}
		val := func(o Operand) int64 {
			if o.IsImm {
				return o.Imm
			}
			return vals[o.Reg]
		}
		checks := []struct {
			op   Opcode
			want int64
		}{
			{ADD, int64(a + b)},
			{SUB, int64(a - b)},
			{MUL, int64(a * b)},
			{AND, int64(a & b)},
			{IOR, int64(a | b)},
			{XOR, int64(a ^ b)},
		}
		for _, c := range checks {
			got, err := EvalOp(mk(c.op), val)
			if err != nil || got != c.want {
				return false
			}
		}
		// Comparisons.
		slt, _ := EvalOp(mk(SLT), val)
		if (slt == 1) != (a < b) {
			return false
		}
		seq, _ := EvalOp(mk(SEQ), val)
		return (seq == 1) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvalOpShiftSemantics(t *testing.T) {
	// Arithmetic vs logical right shift by operand signedness.
	signed := &Instr{Op: SHR, Dst: 3, Srcs: []Operand{R(1), Imm(4)},
		Typ: cc.Int32, OperandTyp: cc.IntType{Bits: 16, Signed: true}}
	vals := map[Reg]int64{1: -32768}
	val := func(o Operand) int64 {
		if o.IsImm {
			return o.Imm
		}
		return vals[o.Reg]
	}
	got, err := EvalOp(signed, val)
	if err != nil || got != -2048 {
		t.Errorf("arithmetic shift: %d (%v), want -2048", got, err)
	}
	unsigned := &Instr{Op: SHR, Dst: 3, Srcs: []Operand{R(1), Imm(4)},
		Typ: cc.UInt32, OperandTyp: cc.IntType{Bits: 16, Signed: false}}
	vals[1] = 0x8000
	got, err = EvalOp(unsigned, val)
	if err != nil || got != 0x800 {
		t.Errorf("logical shift: %d (%v), want 2048", got, err)
	}
}

func TestEvalOpDivByZero(t *testing.T) {
	in := &Instr{Op: DIV, Dst: 3, Srcs: []Operand{Imm(5), Imm(0)}, Typ: cc.Int32}
	if _, err := EvalOp(in, func(o Operand) int64 { return o.Imm }); err == nil {
		t.Error("division by zero not reported")
	}
}

func TestExecArityChecks(t *testing.T) {
	rt := &Routine{Name: "t"}
	if _, err := Exec(rt, []int64{1}, nil); err == nil {
		t.Error("input arity not checked")
	}
}

func TestOperandString(t *testing.T) {
	if R(3).String() != "vr3" || Imm(-4).String() != "#-4" {
		t.Errorf("operand rendering: %s %s", R(3), Imm(-4))
	}
}
