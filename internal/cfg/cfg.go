// Package cfg is the reproduction's Machine-SUIF Control Flow Graph
// library analogue [14]: it groups a vm Routine's linear instruction
// stream into basic blocks, builds the edge structure, and provides
// dominator and traversal utilities used by SSA conversion and data-path
// building.
package cfg

import (
	"fmt"
	"slices"
	"strings"

	"roccc/internal/vm"
)

// Block is a basic block: straight-line compute instructions plus an
// optional conditional-branch condition at the end.
type Block struct {
	ID     int
	Label  string // label the block starts at, if any
	Instrs []*vm.Instr
	Succs  []*Block
	Preds  []*Block
	// BranchCond holds the conditional branch instruction when the block
	// ends in one; Succs[0] is the taken target, Succs[1] the fallthrough.
	BranchCond *vm.Instr
	// Phis holds SSA phi instructions once ssa.Convert has run; the i-th
	// source of each phi corresponds to Preds[i].
	Phis []*vm.Instr
}

// PredIndex returns the position of p in b.Preds, or -1.
func (b *Block) PredIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// String renders the block header and instructions.
func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "block %d", b.ID)
	if b.Label != "" {
		fmt.Fprintf(&sb, " (%s)", b.Label)
	}
	sb.WriteString(":\n")
	for _, in := range b.Instrs {
		sb.WriteString(in.String())
		sb.WriteByte('\n')
	}
	if b.BranchCond != nil {
		fmt.Fprintf(&sb, "  branch on %s\n", b.BranchCond.Srcs[0])
	}
	var succs []string
	for _, s := range b.Succs {
		succs = append(succs, fmt.Sprintf("%d", s.ID))
	}
	fmt.Fprintf(&sb, "  -> [%s]\n", strings.Join(succs, " "))
	return sb.String()
}

// Graph is a control flow graph over a vm routine. Block IDs are dense:
// Build sets Blocks[i].ID == i and Exit.ID == len(Blocks), so the
// analyses below return, and their users keep, per-block state in
// slices of length len(Blocks)+1 indexed by ID.
type Graph struct {
	Routine *vm.Routine
	Blocks  []*Block // Blocks[0] is the entry
	Exit    *Block   // synthetic exit (holds no instructions)
}

// Entry returns the entry block.
func (g *Graph) Entry() *Block { return g.Blocks[0] }

// Build groups rt's instructions into basic blocks and connects edges.
func Build(rt *vm.Routine) (*Graph, error) {
	g := &Graph{Routine: rt}
	// Identify leaders: first instruction, label positions, and
	// instructions following branches.
	labels := map[string]int{}
	leaders := make([]bool, len(rt.Instrs)+1)
	leaders[0] = true
	for i, in := range rt.Instrs {
		switch in.Op {
		case vm.LAB:
			labels[in.Label] = i
			leaders[i] = true
		case vm.JMP, vm.BTR, vm.BFL, vm.RET:
			leaders[i+1] = true
		}
	}
	// Carve blocks.
	exit := &Block{ID: -1}
	g.Exit = exit
	blockAt := make([]*Block, len(rt.Instrs))
	var order []int
	var cur *Block
	for i, in := range rt.Instrs {
		if leaders[i] {
			cur = &Block{ID: len(g.Blocks)}
			g.Blocks = append(g.Blocks, cur)
			blockAt[i] = cur
			order = append(order, i)
		}
		switch in.Op {
		case vm.LAB:
			if cur.Label == "" && len(cur.Instrs) == 0 {
				cur.Label = in.Label
			}
		case vm.NOP:
		default:
			cur.Instrs = append(cur.Instrs, in)
		}
	}
	exit.ID = len(g.Blocks)
	// Wire edges.
	addEdge := func(from, to *Block) {
		from.Succs = append(from.Succs, to)
		to.Preds = append(to.Preds, from)
	}
	targetOf := func(label string) (*Block, error) {
		ix, ok := labels[label]
		if !ok {
			return nil, fmt.Errorf("cfg: unknown label %q", label)
		}
		// The label instruction is a leader.
		return blockAt[ix], nil
	}
	for bi, start := range order {
		blk := blockAt[start]
		// Find last instruction of the block in the original stream.
		end := len(rt.Instrs)
		if bi+1 < len(order) {
			end = order[bi+1]
		}
		var last *vm.Instr
		for i := end - 1; i >= start; i-- {
			if rt.Instrs[i].Op != vm.LAB && rt.Instrs[i].Op != vm.NOP {
				last = rt.Instrs[i]
				break
			}
		}
		fallthroughTo := func() *Block {
			if bi+1 < len(order) {
				return blockAt[order[bi+1]]
			}
			return exit
		}
		if last == nil {
			addEdge(blk, fallthroughTo())
			continue
		}
		switch last.Op {
		case vm.JMP:
			// JMP is control-only: drop it from Instrs.
			blk.Instrs = blk.Instrs[:len(blk.Instrs)-1]
			t, err := targetOf(last.Label)
			if err != nil {
				return nil, err
			}
			addEdge(blk, t)
		case vm.BTR, vm.BFL:
			blk.Instrs = blk.Instrs[:len(blk.Instrs)-1]
			blk.BranchCond = last
			t, err := targetOf(last.Label)
			if err != nil {
				return nil, err
			}
			// Succs[0] = taken, Succs[1] = fallthrough.
			addEdge(blk, t)
			addEdge(blk, fallthroughTo())
		case vm.RET:
			blk.Instrs = blk.Instrs[:len(blk.Instrs)-1]
			addEdge(blk, exit)
		default:
			addEdge(blk, fallthroughTo())
		}
	}
	return g, nil
}

// ReversePostOrder returns the blocks in reverse post-order from the
// entry (the exit block is excluded, and so is any block the entry does
// not reach).
func (g *Graph) ReversePostOrder() []*Block {
	seen := make([]bool, len(g.Blocks)+1)
	seen[g.Exit.ID] = true
	post := make([]*Block, 0, len(g.Blocks))
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry())
	slices.Reverse(post)
	return post
}

// Dominators computes the immediate-dominator relation with the
// Cooper–Harvey–Kennedy iterative algorithm. idom[b.ID] is b's
// immediate dominator; the entry's is itself, and the exit's and those
// of blocks the entry does not reach are nil.
func (g *Graph) Dominators() []*Block {
	rpo := g.ReversePostOrder()
	index := make([]int, len(g.Blocks)+1)
	for i, b := range rpo {
		index[b.ID] = i
	}
	idom := make([]*Block, len(g.Blocks)+1)
	idom[rpo[0].ID] = rpo[0]
	intersect := func(a, b *Block) *Block {
		for a != b {
			for index[a.ID] > index[b.ID] {
				a = idom[a.ID]
			}
			for index[b.ID] > index[a.ID] {
				b = idom[b.ID]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *Block
			for _, p := range b.Preds {
				if idom[p.ID] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom == nil {
				continue
			}
			if idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// DominanceFrontier computes each block's dominance frontier from the
// immediate dominators idom (as Dominators returns them): df[b.ID]
// lists the joins in b's frontier in reverse post-order.
func (g *Graph) DominanceFrontier(idom []*Block) [][]*Block {
	df := make([][]*Block, len(g.Blocks)+1)
	for _, b := range g.ReversePostOrder() {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			for runner := p; runner != idom[b.ID] && runner != nil; {
				// Joins are visited one at a time, so a runner that
				// already holds b holds it last.
				if f := df[runner.ID]; len(f) == 0 || f[len(f)-1] != b {
					df[runner.ID] = append(f, b)
				}
				next := idom[runner.ID]
				if next == nil || next == runner {
					break
				}
				runner = next
			}
		}
	}
	return df
}

// String renders the whole graph.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		sb.WriteString(b.String())
	}
	return sb.String()
}
