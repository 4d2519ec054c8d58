package dp

import (
	"roccc/internal/cc"
	"roccc/internal/vm"
)

// width.go implements §4.2.4/§5: "By adding more data type in
// Machine-SUIF, ROCCC supports any signed and unsigned integer type up
// to 32 bit. The compiler infers the inner signals' bit size
// automatically" and "We derive bit width only based on port size and
// opcodes."
//
// Every signal carries (width, signed) where signed tracks whether the
// VALUE can be negative — independent of the C-typed (semantic) width.
// Growth rules propagate magnitude bits per opcode; the result is capped
// at the semantic width, where hardware truncation coincides exactly
// with the software wrap.

// sig is an inferred signal shape: u magnitude bits plus a sign bit when
// s is set (total width = u + (s ? 1 : 0)).
type sig struct {
	u int
	s bool
}

func (x sig) width() int {
	if x.s {
		return x.u + 1
	}
	if x.u < 1 {
		return 1
	}
	return x.u
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// sigForConst returns the shape of an immediate.
func sigForConst(v int64) sig {
	if v < 0 {
		n := 0
		for x := v; x != -1; x >>= 1 {
			n++
		}
		return sig{u: n, s: true}
	}
	n := 0
	for x := v; x != 0; x >>= 1 {
		n++
	}
	if n == 0 {
		n = 1
	}
	return sig{u: n, s: false}
}

// InferWidths computes hardware widths for every op in topological
// order. Call between Build and Pipeline.
func InferWidths(d *Datapath) {
	shapes := map[*Op]sig{}
	shapeOf := func(o vm.Operand) sig {
		if o.IsImm {
			return sigForConst(o.Imm)
		}
		if def := d.DefOf[o.Reg]; def != nil {
			return shapes[def]
		}
		return sig{u: 31, s: true}
	}
	for _, op := range d.Ops {
		in := op.Instr
		sem := in.Typ
		if op.Node.Kind == InputNode {
			t := sig{u: sem.Bits, s: sem.Signed}
			if sem.Signed {
				t.u = sem.Bits - 1
			}
			shapes[op] = t
			op.Width = sem.Bits
			op.Signed = sem.Signed
			continue
		}
		var a, b, c sig
		if len(in.Srcs) > 0 {
			a = shapeOf(in.Srcs[0])
		}
		if len(in.Srcs) > 1 {
			b = shapeOf(in.Srcs[1])
		}
		if len(in.Srcs) > 2 {
			c = shapeOf(in.Srcs[2])
		}
		var t sig
		switch in.Op {
		case vm.LDC, vm.MOV:
			t = a
		case vm.CVT:
			// A widening conversion keeps the value's shape (extension
			// carries no information); only a narrowing or sign-domain
			// change takes the target shape.
			if fitsIn(a, sem) {
				t = a
			} else {
				t = semShape(sem)
			}
		case vm.NOT:
			// Complement sets high bits: full semantic shape.
			t = semShape(sem)
		case vm.ADD:
			t = sig{u: maxInt(a.u, b.u) + 1, s: a.s || b.s}
		case vm.SUB:
			t = sig{u: maxInt(a.u, b.u) + 1, s: true}
		case vm.NEG:
			// Negating a signed value needs one extra magnitude bit:
			// -(-2^u) = +2^u.
			u := a.u
			if a.s {
				u++
			}
			t = sig{u: u, s: true}
		case vm.MUL:
			// (-2^au) * (-2^bu) = +2^(au+bu) needs one extra bit when
			// both operands are signed.
			u := a.u + b.u
			if a.s && b.s {
				u++
			}
			t = sig{u: u, s: a.s || b.s}
		case vm.DIV:
			// (-2^au) / -1 = +2^au.
			u := a.u
			if a.s && b.s {
				u++
			}
			t = sig{u: u, s: a.s || b.s}
		case vm.REM:
			t = sig{u: minInt(a.u, b.u), s: a.s}
		case vm.AND:
			if !a.s && !b.s {
				t = sig{u: minInt(a.u, b.u), s: false}
			} else {
				t = sig{u: maxInt(a.u, b.u), s: a.s || b.s}
			}
		case vm.IOR, vm.XOR:
			t = sig{u: maxInt(a.u, b.u), s: a.s || b.s}
		case vm.SHL:
			if in.Srcs[1].IsImm {
				t = sig{u: a.u + int(in.Srcs[1].Imm), s: a.s}
			} else {
				t = semShape(sem)
			}
		case vm.SHR:
			if in.Srcs[1].IsImm {
				u := a.u - int(in.Srcs[1].Imm)
				if u < 1 {
					u = 1
				}
				t = sig{u: u, s: a.s}
			} else {
				t = a
			}
		case vm.SEQ, vm.SNE, vm.SLT, vm.SLE:
			t = sig{u: 1, s: false}
		case vm.MUX:
			t = sig{u: maxInt(b.u, c.u), s: b.s || c.s}
		case vm.LUT:
			t = semShape(in.Rom.Elem)
		case vm.LPR, vm.SNX:
			t = semShape(in.State.Type)
		default:
			t = semShape(sem)
		}
		// Cap at the semantic width: hardware truncates exactly where
		// the C-typed software wraps.
		if t.width() >= sem.Bits {
			t = semShape(sem)
		}
		shapes[op] = t
		op.Width = t.width()
		op.Signed = t.s
	}
	for i := range d.Inputs {
		d.Inputs[i].Width = d.Inputs[i].Var.Type.Bits
	}
	for i := range d.Outputs {
		d.Outputs[i].Width = d.Outputs[i].Var.Type.Bits
	}
}

func semShape(t cc.IntType) sig {
	if t.Signed {
		return sig{u: t.Bits - 1, s: true}
	}
	return sig{u: t.Bits, s: false}
}

// fitsIn reports whether every value of shape a is representable in
// semantic type t.
func fitsIn(a sig, t cc.IntType) bool {
	ts := semShape(t)
	if a.s && !ts.s {
		return false
	}
	return a.u <= ts.u
}
