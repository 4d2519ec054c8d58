// Package dp implements the paper's central contribution: data-path
// generation (§4.2). An SSA-form CFG is turned into a directed acyclic
// graph of hardware operations grouped into nodes:
//
//   - soft nodes — one per CFG basic block; "the soft nodes, by
//     themselves, will have the same behavior on a CPU compared with the
//     whole data path on a FPGA";
//   - mux nodes — hard nodes realizing the SSA phis of a join block
//     ("to parallelize alternative branches, the compiler adds a new mux
//     node between alternative branch nodes and their common successor
//     node", Fig. 6 node 7);
//   - pipe nodes — hard nodes copying live variables from the branch
//     parent to the common successor (Fig. 6 node 6).
//
// The data path is then pipelined by automatic latch placement driven by
// per-operation delay estimates (§4.2.3), and internal signal bit widths
// are inferred from port sizes and opcodes (§4.2.4, §5).
package dp

import (
	"fmt"
	"strings"
	"sync"

	"roccc/internal/cc"
	"roccc/internal/cfg"
	"roccc/internal/hir"
	"roccc/internal/vm"
)

// NodeKind classifies data-path nodes.
type NodeKind int

// Node kinds. Soft nodes mirror CFG blocks; mux and pipe nodes are the
// paper's "hard nodes" — "they only appear in hardware and have no
// equivalence in software".
const (
	SoftNode NodeKind = iota
	MuxNode
	PipeNode
	InputNode
	OutputNode
)

func (k NodeKind) String() string {
	switch k {
	case SoftNode:
		return "soft"
	case MuxNode:
		return "mux"
	case PipeNode:
		return "pipe"
	case InputNode:
		return "input"
	case OutputNode:
		return "output"
	}
	return "node"
}

// IsHard reports whether the node kind is hardware-only.
func (k NodeKind) IsHard() bool { return k == MuxNode || k == PipeNode }

// Node is a group of operations at one level of the data path.
type Node struct {
	ID    int
	Kind  NodeKind
	Level int
	Block *cfg.Block // for soft nodes
	Ops   []*Op
}

// Op is a single data-path operation (one instruction placed in a node,
// §4.2.2: "Each instruction that goes to hardware is assigned a location
// in the data path").
type Op struct {
	ID    int
	Instr *vm.Instr
	Node  *Node

	// Scheduling results (§4.2.3).
	Stage   int     // pipeline stage index
	TEnd    float64 // combinational end time within the stage (ns)
	Latched bool    // a pipeline latch follows this op's output

	// Width inference results (§4.2.4).
	Width  int
	Signed bool
}

// Dst returns the op's defining register (0 if none).
func (o *Op) Dst() vm.Reg {
	if o.Instr.Op.HasDst() {
		return o.Instr.Dst
	}
	return 0
}

// String renders the op.
func (o *Op) String() string {
	return fmt.Sprintf("op%d[%s stage%d w%d] %s", o.ID, o.Node.Kind, o.Stage, o.Width,
		strings.TrimSpace(o.Instr.String()))
}

// PortW is a data-path port with its hardware width.
type PortW struct {
	Var   *hir.Var
	Reg   vm.Reg
	Width int
}

// Feedback describes one feedback latch (Fig. 7): one SNX writer and
// every LPR reader of the same state (conditional updates produce one
// LPR per branch). All LPRs must share the SNX's pipeline stage so the
// latch carries values between consecutive iterations.
type Feedback struct {
	State *hir.Var
	LPRs  []*Op
	SNX   *Op
	Init  int64
}

// Datapath is the generated data path for one kernel iteration.
type Datapath struct {
	Name    string
	Graph   *cfg.Graph
	Nodes   []*Node
	Ops     []*Op // topologically ordered
	Inputs  []PortW
	Outputs []PortW
	// DefOf maps each SSA register to its producing op (inputs map to
	// the pseudo input ops).
	DefOf map[vm.Reg]*Op
	// Feedbacks lists the LPR/SNX latch pairs.
	Feedbacks []*Feedback
	// Stages is the pipeline depth (number of latch levels + 1).
	Stages int
	// Period is the target clock period used during latch placement, and
	// MaxStageDelay the worst realized combinational stage delay (ns).
	Period        float64
	MaxStageDelay float64

	// planOnce/plan cache the compiled simulator execution plan
	// (sim.go): built on the first NewSim over this data path and shared
	// by every later Sim, so sweep-style repeated NewSim calls skip
	// recompilation. Keyed by identity of the Datapath itself — the
	// structure is immutable once built.
	planOnce sync.Once
	plan     *simPlan
}

// simPlanFor returns the data path's compiled simulator plan, compiling
// it on first use.
func (d *Datapath) simPlanFor() *simPlan {
	d.planOnce.Do(func() { d.plan = compileSimPlan(d) })
	return d.plan
}

// NumOps returns the number of real compute ops (excluding input pseudo
// ops).
func (d *Datapath) NumOps() int {
	n := 0
	for _, op := range d.Ops {
		if op.Node.Kind != InputNode {
			n++
		}
	}
	return n
}

// NodesOfKind returns all nodes of kind k.
func (d *Datapath) NodesOfKind(k NodeKind) []*Node {
	var out []*Node
	for _, n := range d.Nodes {
		if n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// HardwareType returns the inferred hardware signal type (width-narrowed).
func (o *Op) HardwareType() cc.IntType {
	return cc.IntType{Bits: o.Width, Signed: o.Signed}
}

// String renders a node summary.
func (n *Node) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %d (%s, level %d): %d ops", n.ID, n.Kind, n.Level, len(n.Ops))
	return b.String()
}
