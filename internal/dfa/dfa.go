// Package dfa is the reproduction's Machine-SUIF bit-vector
// data-flow-analysis library analogue [15]: liveness and reaching
// definitions over vm virtual registers, plus def-use summaries. SSA
// conversion and pipe-node insertion (live-through variables around
// alternative branches, §4.2.2) are built on it.
//
// Registers and blocks are dense IDs (vm.Routine, cfg.Graph), so every
// result is a slice indexed by register or by block ID.
package dfa

import (
	"roccc/internal/cfg"
	"roccc/internal/vm"
)

// RegSet is a bit vector over virtual registers: register r is bit r%64
// of word r/64. Sets combined with Union share one universe (NewRegSet
// with the same count).
type RegSet []uint64

// NewRegSet returns an empty set over registers 0..numRegs.
func NewRegSet(numRegs int) RegSet { return make(RegSet, numRegs/64+1) }

// Has reports whether r is in the set.
func (s RegSet) Has(r vm.Reg) bool {
	w := int(r) >> 6
	return w < len(s) && s[w]&(1<<(uint(r)&63)) != 0
}

// Add inserts r.
func (s RegSet) Add(r vm.Reg) { s[int(r)>>6] |= 1 << (uint(r) & 63) }

// Union adds all of o into s and reports whether s changed.
func (s RegSet) Union(o RegSet) bool {
	changed := false
	for i, w := range o {
		if add := w &^ s[i]; add != 0 {
			s[i] |= add
			changed = true
		}
	}
	return changed
}

// unionMinus adds o minus drop into s and reports whether s changed.
func (s RegSet) unionMinus(o, drop RegSet) bool {
	changed := false
	for i, w := range o {
		if add := w &^ drop[i] &^ s[i]; add != 0 {
			s[i] |= add
			changed = true
		}
	}
	return changed
}

// DefsUses returns the registers defined and used by one block,
// including the branch condition use, as sets over registers
// 0..numRegs.
func DefsUses(b *cfg.Block, numRegs int) (defs, uses RegSet) {
	defs, uses = NewRegSet(numRegs), NewRegSet(numRegs)
	use := func(in *vm.Instr) {
		for _, s := range in.Srcs {
			if !s.IsImm && s.Reg != 0 && !defs.Has(s.Reg) {
				uses.Add(s.Reg)
			}
		}
	}
	for _, in := range b.Instrs {
		use(in)
		if in.Op.HasDst() {
			defs.Add(in.Dst)
		}
	}
	if b.BranchCond != nil {
		use(b.BranchCond)
	}
	return defs, uses
}

// Liveness computes per-block live-in and live-out register sets,
// indexed by block ID (the exit included), with the standard backward
// bit-vector fixpoint. Each block's defs and uses are computed once;
// the sets only grow from uses, so the iteration stops at the least
// fixpoint. Routine outputs are live at the exit block.
func Liveness(g *cfg.Graph) (liveIn, liveOut []RegSet) {
	n := g.Routine.NumRegs
	liveIn = make([]RegSet, len(g.Blocks)+1)
	liveOut = make([]RegSet, len(g.Blocks)+1)
	defs := make([]RegSet, len(g.Blocks))
	for i, b := range g.Blocks {
		defs[i], liveIn[i] = DefsUses(b, n)
		liveOut[i] = NewRegSet(n)
	}
	exit := g.Exit.ID
	liveIn[exit], liveOut[exit] = NewRegSet(n), NewRegSet(n)
	for _, p := range g.Routine.Outputs {
		liveIn[exit].Add(p.Reg) // the fixed seed: the exit is never revisited
	}
	for changed := true; changed; {
		changed = false
		for i := len(g.Blocks) - 1; i >= 0; i-- {
			out := liveOut[i]
			for _, s := range g.Blocks[i].Succs {
				if out.Union(liveIn[s.ID]) {
					changed = true
				}
			}
			if liveIn[i].unionMinus(out, defs[i]) {
				changed = true
			}
		}
	}
	return liveIn, liveOut
}

// Def is a definition site: block and instruction index within it.
type Def struct {
	Block *cfg.Block
	Index int
}

// DefSites returns every definition site in the graph, indexed by
// register. Routine inputs are treated as defined in the entry block at
// index -1.
func DefSites(g *cfg.Graph) [][]Def {
	sites := make([][]Def, g.Routine.NumRegs+1)
	for _, p := range g.Routine.Inputs {
		sites[p.Reg] = append(sites[p.Reg], Def{Block: g.Entry(), Index: -1})
	}
	for _, b := range g.Blocks {
		for i, in := range b.Instrs {
			if in.Op.HasDst() {
				sites[in.Dst] = append(sites[in.Dst], Def{Block: b, Index: i})
			}
		}
	}
	return sites
}

// UseCount returns the number of reading occurrences of each register,
// indexed by register.
func UseCount(g *cfg.Graph) []int {
	counts := make([]int, g.Routine.NumRegs+1)
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			for _, r := range in.Uses() {
				counts[r]++
			}
		}
		if b.BranchCond != nil {
			for _, r := range b.BranchCond.Uses() {
				counts[r]++
			}
		}
	}
	for _, p := range g.Routine.Outputs {
		counts[p.Reg]++
	}
	return counts
}
