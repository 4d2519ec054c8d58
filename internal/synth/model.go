package synth

import (
	"roccc/internal/dp"
	"roccc/internal/vm"
)

// model.go maps data-path operations to the primitive area/delay models.

// opWidth returns the effective operator width (operand-dominated for
// comparisons).
func opWidth(d *dp.Datapath, op *dp.Op) int {
	w := op.Width
	switch op.Instr.Op {
	case vm.SEQ, vm.SNE, vm.SLT, vm.SLE:
		w = 1
		for _, o := range op.Instr.Srcs {
			if o.IsImm {
				continue
			}
			if def := d.DefOf[o.Reg]; def != nil && def.Width > w {
				w = def.Width
			}
		}
	}
	return w
}

// srcWidth returns the width of source operand i.
func srcWidth(d *dp.Datapath, op *dp.Op, i int) int {
	o := op.Instr.Srcs[i]
	if o.IsImm {
		return bitsFor(o.Imm)
	}
	if def := d.DefOf[o.Reg]; def != nil {
		return def.Width
	}
	return 32
}

func bitsFor(v int64) int {
	if v < 0 {
		v = -v
	}
	n := 1
	for x := v; x != 0; x >>= 1 {
		n++
	}
	return n
}

// zeroAreaOp reports whether the opcode maps to pure wiring.
func zeroAreaOp(op vm.Opcode, constShift bool) bool {
	switch op {
	case vm.MOV, vm.LDC, vm.CVT, vm.NOP, vm.NOT, vm.LPR:
		return true
	case vm.SHL, vm.SHR:
		return constShift
	}
	return false
}

// OpSlices returns the slice cost of a data-path op, including its
// pipeline register when the logic cannot absorb the flip-flops.
// usesMult reports whether the op claims a dedicated MULT18X18 block.
// lutMult selects the ISE "multiplier style LUT" costing for constant
// multipliers (the option the paper set for FIR, §5).
func OpSlices(d *dp.Datapath, op *dp.Op, lutMult bool) (slices int, usesMult bool) {
	in := op.Instr
	w := opWidth(d, op)
	constShift := (in.Op == vm.SHL || in.Op == vm.SHR) && len(in.Srcs) > 1 && in.Srcs[1].IsImm
	switch in.Op {
	case vm.ADD, vm.SUB, vm.NEG:
		slices = AdderSlices(w)
	case vm.MUL:
		switch {
		case in.Srcs[0].IsImm:
			slices = constMulArea(in.Srcs[0].Imm, srcWidth(d, op, 1), w, lutMult)
		case in.Srcs[1].IsImm:
			slices = constMulArea(in.Srcs[1].Imm, srcWidth(d, op, 0), w, lutMult)
		case srcWidth(d, op, 0) <= 18 && srcWidth(d, op, 1) <= 18:
			usesMult = true
		default:
			slices = MultLUTSlices(srcWidth(d, op, 0), srcWidth(d, op, 1))
		}
	case vm.DIV, vm.REM:
		if in.Srcs[1].IsImm && isPow2(in.Srcs[1].Imm) {
			slices = 0 // shift wiring
		} else {
			slices = DividerSlices(maxI(srcWidth(d, op, 0), srcWidth(d, op, 1)))
		}
	case vm.AND, vm.IOR, vm.XOR:
		// Masking/setting against a constant is wiring (bit selects and
		// tied levels), not logic.
		if in.Srcs[0].IsImm || in.Srcs[1].IsImm {
			slices = 0
		} else {
			slices = LogicSlices(w)
		}
	case vm.SEQ, vm.SNE, vm.SLT, vm.SLE:
		// A 1-bit compare against a constant is a wire or an inverter.
		if w <= 1 && (in.Srcs[0].IsImm || in.Srcs[1].IsImm) {
			slices = 0
		} else {
			slices = CmpSlices(w)
		}
	case vm.MUX:
		slices = MuxSlices(w)
	case vm.SHL, vm.SHR:
		if !constShift {
			slices = BarrelSlices(w)
		}
	case vm.LUT:
		if in.Rom.Half {
			slices = HalfWaveRomSlices(in.Rom.Size, in.Rom.Elem.Bits)
		} else {
			slices = RomSlices(in.Rom.Size, in.Rom.Elem.Bits)
		}
	case vm.SNX:
		slices = RegSlices(in.State.Type.Bits)
	}
	// Pipeline register: a latched op needs RegSlices(width) flip-flops;
	// slices already spent on its logic absorb them (each slice carries
	// two FFs next to its two LUTs), so only the excess is paid.
	if op.Latched && in.Op != vm.SNX {
		slices = maxI(slices, RegSlices(op.Width))
	}
	_ = constShift
	return slices, usesMult
}

// OpDelay returns the combinational delay of a data-path op in ns. It
// satisfies dp.DelayFn, so the pipeliner places latches against the same
// technology model that the area report uses.
func OpDelay(d *dp.Datapath, lutMult bool) dp.DelayFn {
	return func(op *dp.Op) float64 {
		in := op.Instr
		w := opWidth(d, op)
		switch in.Op {
		case vm.MOV, vm.LDC, vm.CVT, vm.NOP:
			return 0.1
		case vm.LPR:
			return 0.25
		case vm.SNX:
			return 0.25
		case vm.ADD, vm.SUB, vm.NEG:
			return AdderDelay(w)
		case vm.MUL:
			switch {
			case in.Srcs[0].IsImm:
				if lutMult {
					return KCMDelay(srcWidth(d, op, 1), w)
				}
				return ConstMultDelay(in.Srcs[0].Imm, srcWidth(d, op, 1)+3)
			case in.Srcs[1].IsImm:
				if lutMult {
					return KCMDelay(srcWidth(d, op, 0), w)
				}
				return ConstMultDelay(in.Srcs[1].Imm, srcWidth(d, op, 0)+3)
			case srcWidth(d, op, 0) <= 18 && srcWidth(d, op, 1) <= 18:
				return MultBlockDelay(w)
			default:
				return MultLUTDelay(srcWidth(d, op, 0), srcWidth(d, op, 1))
			}
		case vm.DIV, vm.REM:
			if in.Srcs[1].IsImm && isPow2(in.Srcs[1].Imm) {
				return 0.1
			}
			return DividerDelay(maxI(srcWidth(d, op, 0), srcWidth(d, op, 1)))
		case vm.AND, vm.IOR, vm.XOR:
			if in.Srcs[0].IsImm || in.Srcs[1].IsImm {
				return 0.15 // masking wiring
			}
			return LogicDelay()
		case vm.NOT:
			return 0.2
		case vm.SEQ, vm.SNE, vm.SLT, vm.SLE:
			if w <= 1 && (in.Srcs[0].IsImm || in.Srcs[1].IsImm) {
				return 0.15 // wire or inverter
			}
			return CmpDelay(w)
		case vm.MUX:
			return MuxDelay()
		case vm.SHL, vm.SHR:
			if len(in.Srcs) > 1 && in.Srcs[1].IsImm {
				return 0.1
			}
			return BarrelDelay(w)
		case vm.LUT:
			if in.Rom.Half {
				// Quarter-wave ROM plus the mirror negate/mux stage.
				return RomDelay(in.Rom.Size/4) + AdderDelay(in.Rom.Elem.Bits)*0.5 + MuxDelay()
			}
			return RomDelay(in.Rom.Size)
		}
		return 0.5
	}
}

func isPow2(v int64) bool { return v > 0 && v&(v-1) == 0 }

// constMulArea prices a constant multiplier: a CSD shift-add network
// (partial-sum adders near the variable operand's width), or a KCM
// LUT-group multiplier under the "multiplier style LUT" option.
func constMulArea(c int64, wIn, wOut int, lutMult bool) int {
	if lutMult {
		return KCMSlices(wIn, wOut)
	}
	adders := CSDDigits(c) - 1
	if adders < 0 {
		adders = 0
	}
	return adders * AdderSlices(wIn+3)
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
