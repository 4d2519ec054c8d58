package dp

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"roccc/internal/cfg"
	"roccc/internal/hir"
	"roccc/internal/ssa"
	"roccc/internal/vm"
)

// Build constructs the data path from a kernel's SSA-form CFG. The
// graph must already be in SSA form (ssa.Convert); Build is deterministic
// and purely structural — pipelining and width inference run afterwards
// (Pipeline, InferWidths).
func Build(k *hir.Kernel, g *cfg.Graph) (*Datapath, error) {
	if err := ssa.Check(g); err != nil {
		return nil, fmt.Errorf("dp: graph is not in SSA form: %v", err)
	}
	d := &Datapath{
		Name:  k.Name,
		Graph: g,
		DefOf: map[vm.Reg]*Op{},
	}
	b := &dpBuilder{d: d, g: g}

	// Input node (level 0): one pseudo op per input port ("all the input
	// operands are copied to the entry of the data flow").
	inNode := b.newNode(InputNode, 0, nil)
	for _, p := range g.Routine.Inputs {
		op := b.newOp(inNode, &vm.Instr{Op: vm.MOV, Dst: p.Reg, Typ: p.Var.Type})
		d.DefOf[p.Reg] = op
		d.Inputs = append(d.Inputs, PortW{Var: p.Var, Reg: p.Reg, Width: p.Var.Type.Bits})
	}

	// Level assignment for blocks, indexed by block ID; joins with phis
	// reserve an extra level for their mux/pipe nodes (muxLevel 0: no
	// mux node).
	rpo := g.ReversePostOrder()
	idom := g.Dominators()
	blockLevel := make([]int, len(g.Blocks)+1)
	muxLevel := make([]int, len(g.Blocks)+1)
	for _, blk := range rpo {
		base := 0
		for _, p := range blk.Preds {
			base = max(base, blockLevel[p.ID])
		}
		if len(blk.Phis) > 0 {
			muxLevel[blk.ID] = base + 1
			blockLevel[blk.ID] = base + 2
		} else {
			blockLevel[blk.ID] = base + 1
		}
	}

	// Create nodes and ops in level order.
	for _, blk := range rpo {
		if len(blk.Phis) > 0 {
			if err := b.buildJoin(blk, idom, muxLevel[blk.ID]); err != nil {
				return nil, err
			}
		}
		if len(blk.Instrs) == 0 {
			continue // null node (§4.2.2 builds data path for non-null nodes)
		}
		node := b.newNode(SoftNode, blockLevel[blk.ID], blk)
		for _, in := range blk.Instrs {
			op := b.newOp(node, in)
			if in.Op.HasDst() {
				d.DefOf[in.Dst] = op
			}
		}
	}

	// Pipe nodes: copy live-through values so every definition/reference
	// pair is adjoining across the mux level (Fig. 6 node 6).
	b.insertPipeCopies(muxLevel)

	// Output ports.
	for _, p := range g.Routine.Outputs {
		if d.DefOf[p.Reg] == nil {
			return nil, fmt.Errorf("dp: output %s (reg %s) has no definition", p.Var.Name, p.Reg)
		}
		d.Outputs = append(d.Outputs, PortW{Var: p.Var, Reg: p.Reg, Width: p.Var.Type.Bits})
	}

	// Feedback pairs (Fig. 7): match LPR and SNX ops by state variable.
	inits := map[*hir.Var]int64{}
	for _, fb := range k.Feedback {
		inits[fb.Var] = fb.Init
	}
	lprs := map[*hir.Var][]*Op{}
	snxs := map[*hir.Var]*Op{}
	for _, op := range d.Ops {
		switch op.Instr.Op {
		case vm.LPR:
			lprs[op.Instr.State] = append(lprs[op.Instr.State], op)
		case vm.SNX:
			snxs[op.Instr.State] = op
		}
	}
	for state, readers := range lprs {
		snx, ok := snxs[state]
		if !ok {
			return nil, fmt.Errorf("dp: LPR of %s has no matching SNX", state.Name)
		}
		d.Feedbacks = append(d.Feedbacks, &Feedback{State: state, LPRs: readers, SNX: snx, Init: inits[state]})
	}
	sort.Slice(d.Feedbacks, func(i, j int) bool {
		return d.Feedbacks[i].State.Name < d.Feedbacks[j].State.Name
	})

	b.sortOps()
	return d, nil
}

type dpBuilder struct {
	d      *Datapath
	g      *cfg.Graph
	nextOp int
}

func (b *dpBuilder) newNode(kind NodeKind, level int, blk *cfg.Block) *Node {
	n := &Node{ID: len(b.d.Nodes) + 1, Kind: kind, Level: level, Block: blk}
	b.d.Nodes = append(b.d.Nodes, n)
	return n
}

func (b *dpBuilder) newOp(n *Node, in *vm.Instr) *Op {
	b.nextOp++
	// A soft-node op shares its instruction with the CFG until
	// insertPipeCopies rewrites an operand.
	op := &Op{ID: b.nextOp, Instr: in, Node: n}
	n.Ops = append(n.Ops, op)
	b.d.Ops = append(b.d.Ops, op)
	return op
}

// dominatesOrEq reports whether a dominates b (or a == b); idom is
// indexed by block ID.
func dominatesOrEq(idom []*cfg.Block, a, b *cfg.Block) bool {
	for i := 0; i < 1000; i++ {
		if a == b {
			return true
		}
		next := idom[b.ID]
		if next == nil || next == b {
			return false
		}
		b = next
	}
	return false
}

// buildJoin converts the phis of join block blk into a mux node. The
// select signal is the branch condition of the nearest dominating branch
// block; phi operands are assigned to the true/false mux inputs by
// checking which branch-successor dominates each predecessor.
func (b *dpBuilder) buildJoin(blk *cfg.Block, idom []*cfg.Block, level int) error {
	if len(blk.Preds) != 2 {
		return fmt.Errorf("dp: join block %d has %d predecessors (structured if/else expected)", blk.ID, len(blk.Preds))
	}
	branch := idom[blk.ID]
	for branch != nil && branch.BranchCond == nil {
		next := idom[branch.ID]
		if next == nil || next == branch {
			return fmt.Errorf("dp: join block %d has no dominating branch", blk.ID)
		}
		branch = next
	}
	cond := branch.BranchCond.Srcs[0]
	trueSucc := branch.Succs[0] // BTR: taken on true
	falseSucc := branch.Succs[1]
	if branch.BranchCond.Op == vm.BFL {
		trueSucc, falseSucc = falseSucc, trueSucc
	}
	sideOf := func(p *cfg.Block) (bool, error) {
		if p == branch {
			// Direct edge from the branch block to the join.
			if blk == trueSucc {
				return true, nil
			}
			if blk == falseSucc {
				return false, nil
			}
			return false, fmt.Errorf("dp: cannot classify direct edge into join %d", blk.ID)
		}
		if dominatesOrEq(idom, trueSucc, p) {
			return true, nil
		}
		if dominatesOrEq(idom, falseSucc, p) {
			return false, nil
		}
		return false, fmt.Errorf("dp: predecessor %d of join %d is on neither branch side", p.ID, blk.ID)
	}
	side0, err := sideOf(blk.Preds[0])
	if err != nil {
		return err
	}
	node := b.newNode(MuxNode, level, blk)
	for _, phi := range blk.Phis {
		tv, fv := phi.Srcs[0], phi.Srcs[1]
		if !side0 {
			tv, fv = fv, tv
		}
		mux := &vm.Instr{Op: vm.MUX, Dst: phi.Dst, Srcs: []vm.Operand{cond, tv, fv}, Typ: phi.Typ}
		op := b.newOp(node, mux)
		b.d.DefOf[phi.Dst] = op
	}
	return nil
}

// insertPipeCopies adds pipe nodes at every mux level: any register
// defined below that level and referenced above it gets a copy, so that
// "a virtual register's definition and reference [are] adjoining in the
// data flow" (§4.2.2). muxLevel is indexed by block ID, 0 where a block
// has no mux node. The CFG (still used for soft-node software
// execution) must stay untouched, so a soft-node op gets a private copy
// of its instruction before its first operand rewrite.
func (b *dpBuilder) insertPipeCopies(muxLevel []int) {
	// Collect mux levels in ascending order.
	var levels []int
	for _, lv := range muxLevel {
		if lv > 0 {
			levels = append(levels, lv)
		}
	}
	if len(levels) == 0 {
		return
	}
	slices.Sort(levels)
	private := make([]bool, b.nextOp+1) // soft op ID -> owns its instruction
	for _, lv := range levels {
		// Registers used strictly above lv but defined strictly below lv.
		var pipeRegs []vm.Reg
		seen := map[vm.Reg]bool{}
		for _, op := range b.d.Ops {
			if op.Node.Level <= lv {
				continue
			}
			for _, r := range op.Instr.Uses() {
				def := b.d.DefOf[r]
				if def == nil || def.Node.Level >= lv || seen[r] {
					continue
				}
				seen[r] = true
				pipeRegs = append(pipeRegs, r)
			}
		}
		// Output ports referenced above every level also hold defs; they
		// are reads at the very end and handled naturally since their
		// defining MOVs are ops.
		if len(pipeRegs) == 0 {
			continue
		}
		slices.Sort(pipeRegs)
		node := b.newNode(PipeNode, lv, nil)
		rt := b.g.Routine
		for _, r := range pipeRegs {
			nr := rt.NewReg(rt.RegType[r])
			cp := &vm.Instr{Op: vm.MOV, Dst: nr, Srcs: []vm.Operand{vm.R(r)}, Typ: rt.RegType[r]}
			op := b.newOp(node, cp)
			b.d.DefOf[nr] = op
			// Rewrite uses above the level.
			for _, user := range b.d.Ops {
				if user.Node.Level <= lv || user == op {
					continue
				}
				for i, s := range user.Instr.Srcs {
					if s.IsImm || s.Reg != r {
						continue
					}
					if user.Node.Kind == SoftNode && !private[user.ID] {
						user.Instr = user.Instr.Clone()
						private[user.ID] = true
					}
					user.Instr.Srcs[i].Reg = nr
				}
			}
		}
	}
}

// sortOps orders d.Ops topologically: by node level, then by data
// dependence inside a level (ASAP), breaking ties by op ID for
// determinism. Op IDs run 1..len(d.Ops), so depths live in a slice.
func (b *dpBuilder) sortOps() {
	d := b.d
	depth := make([]int, len(d.Ops)+1)
	for i := range depth {
		depth[i] = -1
	}
	var depthOf func(op *Op) int
	depthOf = func(op *Op) int {
		if v := depth[op.ID]; v >= 0 {
			return v
		}
		depth[op.ID] = 0 // breaks cycles defensively; the DAG has none
		m := 0
		for _, s := range op.Instr.Srcs {
			if s.IsImm || s.Reg == 0 {
				continue
			}
			if def := d.DefOf[s.Reg]; def != nil && def != op {
				m = max(m, depthOf(def)+1)
			}
		}
		depth[op.ID] = m
		return m
	}
	for _, op := range d.Ops {
		depthOf(op)
	}
	slices.SortStableFunc(d.Ops, func(x, y *Op) int {
		if c := cmp.Compare(depth[x.ID], depth[y.ID]); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
}
