// Package ssa is the reproduction's Machine-SUIF Static Single
// Assignment library analogue [16]. After Convert runs, "control flow
// graph information is visible and every virtual register is assigned
// only once" (§4.2.1) — the precondition for data-path building, where
// phis become the mux nodes of §4.2.2.
package ssa

import (
	"fmt"

	"roccc/internal/cfg"
	"roccc/internal/dfa"
	"roccc/internal/hir"
	"roccc/internal/vm"
)

// Convert rewrites the graph into pruned SSA form: phi instructions are
// inserted at dominance frontiers for registers live at the join, and
// all registers are renamed so each has exactly one definition. Routine
// output ports are updated to the renamed registers.
//
// Per-register and per-block state lives in slices indexed by register
// and block ID; registers are visited in ascending order and dominator
// children in reverse post-order, so one source always compiles to the
// same registers and so the same VHDL text.
func Convert(g *cfg.Graph) error {
	rt := g.Routine
	numRegs := rt.NumRegs // registers renaming adds are never renamed
	liveIn, _ := dfa.Liveness(g)
	defSites := dfa.DefSites(g)
	idom := g.Dominators()
	df := g.DominanceFrontier(idom)

	// Phase 1: phi placement (pruned SSA), register by register in
	// ascending order, so a join's phis are sorted by register.
	// phiOrig[b.ID][i] is the original register of b.Phis[i];
	// placedFor[b.ID] is the last register given a phi at b.
	phiOrig := make([][]vm.Reg, len(g.Blocks)+1)
	placedFor := make([]vm.Reg, len(g.Blocks)+1)
	var work []*cfg.Block
	for reg := vm.Reg(1); int(reg) <= numRegs; reg++ {
		sites := defSites[reg]
		if len(sites) < 2 {
			continue
		}
		work = work[:0]
		for _, d := range sites {
			work = append(work, d.Block)
		}
		for len(work) > 0 {
			x := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range df[x.ID] {
				if placedFor[y.ID] == reg || !liveIn[y.ID].Has(reg) {
					continue
				}
				placedFor[y.ID] = reg
				phi := &vm.Instr{
					Op:   vm.PHI,
					Dst:  reg,
					Srcs: make([]vm.Operand, len(y.Preds)),
					Typ:  rt.RegType[reg],
				}
				for i := range phi.Srcs {
					phi.Srcs[i] = vm.R(reg)
				}
				y.Phis = append(y.Phis, phi)
				phiOrig[y.ID] = append(phiOrig[y.ID], reg)
				work = append(work, y)
			}
		}
	}

	// Phase 2: renaming along the dominator tree. cur[r] is the name in
	// scope for original register r (0: none yet); each definition logs
	// the name it shadows in undo, and leaving a block restores them.
	domChildren := make([][]*cfg.Block, len(g.Blocks)+1)
	for _, b := range g.ReversePostOrder() {
		if p := idom[b.ID]; p != nil && p != b {
			domChildren[p.ID] = append(domChildren[p.ID], b)
		}
	}
	type shadowed struct{ orig, prev vm.Reg }
	cur := make([]vm.Reg, numRegs+1)
	var undo []shadowed
	define := func(orig vm.Reg) vm.Reg {
		nr := rt.NewReg(rt.RegType[orig])
		undo = append(undo, shadowed{orig, cur[orig]})
		cur[orig] = nr
		return nr
	}
	top := func(orig vm.Reg) vm.Reg {
		if c := cur[orig]; c != 0 {
			return c
		}
		// Never-defined register (read of an undefined value): keep the
		// original name.
		return orig
	}
	// Inputs are defined at the entry under their own names, so uses
	// keep the port register.
	for _, p := range rt.Inputs {
		cur[p.Reg] = p.Reg
	}
	isOutput := make([]bool, numRegs+1)
	for _, p := range rt.Outputs {
		isOutput[p.Reg] = true
	}
	outputRenamed := make([]vm.Reg, numRegs+1)

	renameOperand := func(o *vm.Operand) {
		if !o.IsImm && o.Reg != 0 {
			o.Reg = top(o.Reg)
		}
	}
	var rename func(b *cfg.Block)
	rename = func(b *cfg.Block) {
		mark := len(undo)
		for i, phi := range b.Phis {
			phi.Dst = define(phiOrig[b.ID][i])
		}
		for _, in := range b.Instrs {
			for i := range in.Srcs {
				renameOperand(&in.Srcs[i])
			}
			if in.Op.HasDst() {
				orig := in.Dst
				in.Dst = define(orig)
				if isOutput[orig] {
					outputRenamed[orig] = in.Dst
				}
			}
		}
		if b.BranchCond != nil {
			for i := range b.BranchCond.Srcs {
				renameOperand(&b.BranchCond.Srcs[i])
			}
		}
		for _, s := range b.Succs {
			pi := s.PredIndex(b)
			for i, phi := range s.Phis {
				phi.Srcs[pi] = vm.R(top(phiOrig[s.ID][i]))
			}
		}
		for _, c := range domChildren[b.ID] {
			rename(c)
		}
		for i := len(undo) - 1; i >= mark; i-- {
			cur[undo[i].orig] = undo[i].prev
		}
		undo = undo[:mark]
	}
	rename(g.Entry())

	// Update output ports to the renamed definitions.
	for i := range rt.Outputs {
		if nr := outputRenamed[rt.Outputs[i].Reg]; nr != 0 {
			rt.Outputs[i].Reg = nr
		}
	}
	return Check(g)
}

// Check verifies the single-assignment invariant: every register is
// defined at most once across the graph (inputs count as definitions).
// It names the lowest register defined more than once.
func Check(g *cfg.Graph) error {
	defs := make([]int, g.Routine.NumRegs+1)
	def := func(r vm.Reg) {
		if int(r) >= len(defs) {
			defs = append(defs, make([]int, int(r)+1-len(defs))...)
		}
		defs[r]++
	}
	for _, p := range g.Routine.Inputs {
		def(p.Reg)
	}
	for _, b := range g.Blocks {
		for _, phi := range b.Phis {
			def(phi.Dst)
		}
		for _, in := range b.Instrs {
			if in.Op.HasDst() {
				def(in.Dst)
			}
		}
	}
	for r, n := range defs {
		if n > 1 {
			return fmt.Errorf("ssa: register %s has %d definitions", vm.Reg(r), n)
		}
	}
	return nil
}

// Exec interprets an SSA-form graph: one call is one kernel iteration.
// state carries the feedback latches (LPR reads, SNX stages; staged
// values commit on return). It is used to validate SSA conversion and
// as a reference for the data-path generator.
func Exec(g *cfg.Graph, inputs []int64, state map[*hir.Var]int64) ([]int64, error) {
	rt := g.Routine
	if len(inputs) != len(rt.Inputs) {
		return nil, fmt.Errorf("ssa: exec: %d inputs, routine has %d", len(inputs), len(rt.Inputs))
	}
	regs := make([]int64, rt.NumRegs+1)
	for i, p := range rt.Inputs {
		regs[p.Reg] = p.Var.Type.Wrap(inputs[i])
	}
	next := map[*hir.Var]int64{}
	val := func(o vm.Operand) int64 {
		if o.IsImm {
			return o.Imm
		}
		return regs[o.Reg]
	}
	var prev *cfg.Block
	blk := g.Entry()
	steps := 0
	for blk != g.Exit {
		steps++
		if steps > 10000 {
			return nil, fmt.Errorf("ssa: exec: runaway control flow")
		}
		// Phis read values along the incoming edge, all in parallel.
		if len(blk.Phis) > 0 {
			pi := blk.PredIndex(prev)
			if pi < 0 {
				return nil, fmt.Errorf("ssa: exec: block %d entered from non-predecessor", blk.ID)
			}
			vals := make([]int64, len(blk.Phis))
			for i, phi := range blk.Phis {
				vals[i] = phi.Typ.Wrap(val(phi.Srcs[pi]))
			}
			for i, phi := range blk.Phis {
				regs[phi.Dst] = vals[i]
			}
		}
		for _, in := range blk.Instrs {
			switch in.Op {
			case vm.SNX:
				next[in.State] = in.Typ.Wrap(val(in.Srcs[0]))
			case vm.LPR:
				regs[in.Dst] = state[in.State]
			case vm.LUT:
				ix := val(in.Srcs[0])
				if ix < 0 || ix >= int64(in.Rom.Size) {
					return nil, fmt.Errorf("ssa: exec: LUT index %d out of range", ix)
				}
				regs[in.Dst] = in.Rom.Content[ix]
			default:
				v, err := vm.EvalOp(in, val)
				if err != nil {
					return nil, err
				}
				regs[in.Dst] = v
			}
		}
		prev = blk
		switch {
		case blk.BranchCond != nil:
			taken := val(blk.BranchCond.Srcs[0]) != 0
			if blk.BranchCond.Op == vm.BFL {
				taken = !taken
			}
			if taken {
				blk = blk.Succs[0]
			} else {
				blk = blk.Succs[1]
			}
		case len(blk.Succs) > 0:
			blk = blk.Succs[0]
		default:
			return nil, fmt.Errorf("ssa: exec: block %d has no successor", blk.ID)
		}
	}
	for v, nv := range next {
		state[v] = nv
	}
	outs := make([]int64, len(rt.Outputs))
	for i, p := range rt.Outputs {
		outs[i] = regs[p.Reg]
	}
	return outs, nil
}
