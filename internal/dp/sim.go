package dp

import (
	"fmt"
	"math/bits"
	"sync"

	"roccc/internal/cc"
	"roccc/internal/hir"
	"roccc/internal/vm"
)

// Sim is a cycle-accurate simulator of a pipelined data path. One Step
// is one clock: a new iteration's inputs enter the pipeline every cycle
// (initiation interval 1, §4.2.3), and each op at stage s works on the
// iteration admitted s cycles earlier. Stage-crossing values are taken
// from pipeline-register history, which models the latches exactly: any
// path between two ops crosses the same number of latches.
//
// The simulator is compiled: the data path is lowered once into an
// integer-indexed execution plan (dense operand descriptors, pre-resolved
// wrap masks, feedback-latch slots and one flat ring buffer holding every
// op's register history), which Step and Drain walk with switch dispatch
// — no map lookups and zero heap allocations per cycle. RunN runs the
// same plan over lane chunks (batch.go), bit-identical to the Step and
// Drain loop it stands for. The plan is cached on the Datapath itself:
// repeated NewSim calls over one data path (ablation/unroll sweeps,
// System reuse) share it and skip recompilation. RefSim keeps the
// direct, map-based §4.2.3 semantics; the two are checked bit-identical
// by differential tests.
type Sim struct {
	d *Datapath
	p *simPlan

	// ring holds every op's output history: one rdepth-sized circular
	// region per op (region base = op index × rdepth). ring[base+head] is
	// the value computed this cycle, ring[base+((head+j)&rmask)] the value
	// computed j cycles earlier.
	ring  []int64
	rmask int
	head  int
	// validRing records, for each of the last rdepth admitted iterations,
	// whether it carried real data; bubbles are poisoned: they do not
	// commit feedback latches and mask faulting ops. Indexed by
	// cycle&rmask (bounded, unlike a grow-only log).
	validRing []bool
	// stageValid[st] reports whether the iteration occupying stage st in
	// the current cycle carries real data; recomputed from validRing at
	// the top of every step.
	stageValid []bool

	// Feedback latches, dense (indexed like the plan's latch slots) plus
	// staged next-cycle values.
	state     []int64
	stagedVal []int64
	stagedSet []bool

	outBuf  []int64
	zeroBuf []int64
	// rowBuf is the input row serialChunk gathers from a port-major
	// RunN block for each clock it steps.
	rowBuf []int64
	cycle  int

	// Batch-path scratch (batch.go): structure-of-arrays lane values (one
	// flat region per op, stride stages+n for an n-clock chunk), per-lane
	// valid bits, the flat output/input buffers reused across RunN and
	// RunBatch calls, and the running feedback state of the feedback
	// cone. All grow on first use to the largest chunk seen and are
	// reused afterwards, so the batch steady state allocates nothing.
	laneVals   []int64
	laneValid  []bool
	batchOut   []int64
	batchIn    []int64
	batchState []int64
}

// simPlan is the compiled, immutable execution plan shared by every Sim
// over one Datapath. It carries no per-run state.
type simPlan struct {
	plan     []cop
	inSlots  []inSlot
	outSlots []outSlot
	fbVars   []*hir.Var
	fbInit   []int64
	// fbName indexes latch slots by state-variable name: the first latch
	// (in deterministic plan order: d.Feedbacks, then write-only SNX
	// latches in op order) with each name wins, so name collisions
	// resolve stably instead of by map iteration order.
	fbName map[string]int32
	rdepth int
	rmask  int
	stages int

	// Batch-path (RunN) tables. opShift turns a ring base back into an
	// op index (rdepth is a power of two); opStage is every op's pipeline
	// stage in d.Ops order (the plan's cops exclude input pseudo-ops, but
	// seeding in-flight iterations needs all of them); latency mirrors
	// d.Latency(). The cop list is partitioned for lane-parallel
	// execution: batchA ops do not depend on any feedback-latch read and
	// run op-major over all lanes at once; batchB is the feedback cone
	// (every LPR/SNX plus the ops between them) and serializes lane by
	// lane, because iteration i's latch read depends on iteration i-1's
	// latch write; batchC ops depend on latch reads but feed no latch
	// write, so they batch op-major again once the cone has run. Within
	// each class the plan's topological order is preserved.
	opShift uint
	opStage []int32
	nOps    int
	latency int
	batchA  []cop
	batchB  []cop
	batchC  []cop
	// ringNeed[idx] is the deepest read-back (in cycles) anything ever
	// performs on op idx's ring region: the max over consumer operand
	// stage deltas and output-port alignment delays. The batch path
	// seeds and commits only that much of each op's in-flight history —
	// for shallow data paths this cuts the per-chunk fixed cost from
	// nOps×(stages+rdepth) to roughly nOps×(2·ringNeed), which is what
	// makes small chunks (short system streaks) profitable. seeds and
	// commits are the compact worklists derived from it: only regions
	// somebody actually reads appear, so chunk setup/teardown skips
	// dead regions without a per-op branch.
	ringNeed []int32
	seeds    []ringEnt
	commits  []ringEnt

	// Lazily-compiled batch-path artifacts, shared by every Sim over
	// this plan (cone.go, lanes.go): the recognized closed-form feedback
	// cone, and the batch classes lowered to lane kernels.
	coneOnce   sync.Once
	cone       *coneSpec
	threadOnce sync.Once
	thread     *threadPlan
}

// ringEnt is one op region in the batch path's seed or commit worklist:
// the op index, its pipeline stage, and the read-back depth to move.
type ringEnt struct {
	idx, st, need int32
}

// cOperand is a pre-resolved instruction operand: either an immediate
// (imm, ring=false; unresolved registers become immediate zeros) or a
// read of the defining op's ring region at a fixed stage delta.
type cOperand struct {
	imm  int64
	base int32
	off  int32
	ring bool
}

// wrapSpec is a pre-compiled cc.IntType.Wrap: truncate to Bits and
// re-interpret by shifting through bit 63.
type wrapSpec struct {
	sh     uint8
	signed bool
}

func makeWrap(t cc.IntType) wrapSpec {
	sh := 0
	if t.Bits < 64 {
		sh = 64 - t.Bits
	}
	return wrapSpec{sh: uint8(sh), signed: t.Signed}
}

func (w wrapSpec) wrap(v int64) int64 {
	if w.signed {
		return v << w.sh >> w.sh
	}
	return int64(uint64(v) << w.sh >> w.sh)
}

// Wrap-pass modes for the batch path: after an op's raw values are
// computed for all lanes, one vectorized pass applies the same
// truncation Step applies per cycle. When the hardware width is no
// wider than the semantic type (the common case — width inference only
// narrows), hw.wrap(tw.wrap(v)) keeps exactly the hardware type's low
// bits, so the two wraps fuse into the hardware wrap alone; comparisons
// take only the hardware wrap by construction, and LUT reads none.
const (
	wrapNone   uint8 = iota // value is final as computed (LUT)
	wrapSingle              // one fused wrap (fw)
	wrapBoth                // semantic then hardware wrap, unfusable
)

// cop is one compiled data-path operation.
type cop struct {
	opc  vm.Opcode
	slot int32 // ring base of the op's own output region
	a    cOperand
	b    cOperand
	c    cOperand
	tw   wrapSpec // semantic result-type wrap (vm.EvalOp)
	hw   wrapSpec // inferred hardware-width wrap (§4.2.4)
	// Batch wrap pass (see the mode constants).
	wmode uint8
	fw    wrapSpec
	fb    int32 // feedback latch index for LPR/SNX
	// stage is the op's pipeline stage; it identifies which admitted
	// iteration the op is working on (valid or bubble) this cycle.
	stage int32
	rom   *hir.Rom
	// SHR semantics, resolved from the left operand's type: logical
	// (mask the operand to shrMask first) vs arithmetic.
	shrLogical bool
	shrMask    uint64
}

// inSlot routes one data-path input port into the ring.
type inSlot struct {
	base int32
	w    wrapSpec
}

// outSlot reads one output port from the ring: the defining op's value
// delta cycles back, so all outputs of one iteration appear together at
// the pipeline exit.
type outSlot struct {
	base  int32
	delta int32
}

// compileSimPlan lowers the data path into the integer-indexed execution
// plan. Called once per Datapath through Datapath.simPlanFor.
func compileSimPlan(d *Datapath) *simPlan {
	// Smallest power of two holding Stages+1 history entries per op.
	rdepth := 1 << bits.Len(uint(d.Stages))
	p := &simPlan{
		rdepth: rdepth,
		rmask:  rdepth - 1,
		stages: d.Stages,
		fbName: map[string]int32{},
	}

	opIndex := make(map[*Op]int, len(d.Ops))
	for i, op := range d.Ops {
		opIndex[op] = i
	}
	base := func(op *Op) int32 { return int32(opIndex[op] * rdepth) }

	fbIndex := map[*hir.Var]int32{}
	addLatch := func(v *hir.Var, init int64) int32 {
		idx := int32(len(p.fbVars))
		fbIndex[v] = idx
		p.fbVars = append(p.fbVars, v)
		p.fbInit = append(p.fbInit, init)
		if _, taken := p.fbName[v.Name]; !taken {
			p.fbName[v.Name] = idx
		}
		return idx
	}
	for _, fb := range d.Feedbacks {
		addLatch(fb.State, fb.State.Type.Wrap(fb.Init))
	}

	for _, port := range d.Inputs {
		p.inSlots = append(p.inSlots, inSlot{base: base(d.DefOf[port.Reg]), w: makeWrap(port.Var.Type)})
	}
	lat := d.Latency()
	for _, port := range d.Outputs {
		def := d.DefOf[port.Reg]
		p.outSlots = append(p.outSlots, outSlot{base: base(def), delta: int32(lat - def.Stage)})
	}

	for _, op := range d.Ops {
		if op.Node.Kind == InputNode {
			continue
		}
		operand := func(o vm.Operand) cOperand {
			if o.IsImm {
				return cOperand{imm: o.Imm}
			}
			def := d.DefOf[o.Reg]
			if def == nil {
				return cOperand{} // undefined register reads as zero
			}
			return cOperand{base: base(def), off: int32(op.Stage - def.Stage), ring: true}
		}
		c := cop{
			opc:   op.Instr.Op,
			slot:  base(op),
			tw:    makeWrap(op.Instr.Typ),
			hw:    makeWrap(op.HardwareType()),
			stage: int32(op.Stage),
			rom:   op.Instr.Rom,
			fb:    -1,
		}
		if op.Instr.State != nil {
			idx, ok := fbIndex[op.Instr.State]
			if !ok {
				// State variable without a detected feedback pair (e.g. a
				// write-only SNX that upstream passes did not eliminate):
				// give it its own latch slot, zero-initialized, so the op
				// behaves exactly like RefSim's map-keyed staging instead
				// of aliasing latch 0.
				idx = addLatch(op.Instr.State, 0)
			}
			c.fb = idx
		}
		if n := len(op.Instr.Srcs); n > 0 {
			c.a = operand(op.Instr.Srcs[0])
			if n > 1 {
				c.b = operand(op.Instr.Srcs[1])
			}
			if n > 2 {
				c.c = operand(op.Instr.Srcs[2])
			}
		}
		if op.Instr.Op == vm.SHR {
			ot := op.Instr.ShiftOperandType()
			if !ot.Signed {
				c.shrLogical = true
				c.shrMask = uint64(1)<<uint(ot.Bits) - 1
			}
		}
		switch {
		case c.opc == vm.LUT:
			c.wmode = wrapNone
		case c.opc == vm.SEQ || c.opc == vm.SNE || c.opc == vm.SLT || c.opc == vm.SLE:
			// Comparison results skip the semantic wrap (step applies only
			// the hardware wrap to boolBit).
			c.wmode, c.fw = wrapSingle, c.hw
		case c.hw.sh >= c.tw.sh:
			c.wmode, c.fw = wrapSingle, c.hw
		default:
			c.wmode = wrapBoth
		}
		if c.wmode == wrapSingle && c.fw.sh == 0 {
			c.wmode = wrapNone // 64-bit wrap is the identity
		}
		p.plan = append(p.plan, c)
	}

	p.opShift = uint(bits.TrailingZeros(uint(rdepth)))
	p.nOps = len(d.Ops)
	p.latency = d.Latency()
	p.opStage = make([]int32, len(d.Ops))
	for i, op := range d.Ops {
		p.opStage[i] = int32(op.Stage)
	}
	p.ringNeed = make([]int32, p.nOps)
	bump := func(base, delta int32) {
		if idx := int(base) >> p.opShift; delta > p.ringNeed[idx] {
			p.ringNeed[idx] = delta
		}
	}
	for i := range p.plan {
		c := &p.plan[i]
		for _, o := range [...]*cOperand{&c.a, &c.b, &c.c} {
			if o.ring {
				bump(o.base, o.off)
			}
		}
	}
	for i := range p.outSlots {
		bump(p.outSlots[i].base, p.outSlots[i].delta)
	}
	// Compact worklists: an op region is seeded only if somebody reads
	// its in-flight prefix (pre-chunk iterations still in the pipe), and
	// committed only if somebody can read its history after the chunk.
	// SNX ops never produce ring values; an op whose region nobody reads
	// (ringNeed 0) leaves no trace either way — exactly as its stale
	// ring slots are unobservable in the serial core.
	snx := make([]bool, p.nOps)
	for i := range p.plan {
		if p.plan[i].opc == vm.SNX {
			snx[int(p.plan[i].slot)>>p.opShift] = true
		}
	}
	for idx := 0; idx < p.nOps; idx++ {
		need := p.ringNeed[idx]
		if need == 0 || snx[idx] {
			continue
		}
		e := ringEnt{idx: int32(idx), st: p.opStage[idx], need: need}
		if int(p.opStage[idx]) < p.stages {
			p.seeds = append(p.seeds, e)
		}
		p.commits = append(p.commits, e)
	}
	p.partitionBatch()
	planVerifyHook(p, d)
	return p
}

// partitionBatch splits the compiled plan into the three batch-execution
// classes (see the simPlan field docs): ops not reachable from a
// feedback-latch read (batchA), the feedback cone (batchB), and ops fed
// by latch reads that feed no latch write (batchC). Reachability runs
// over op indices — the plan is in topological order, so one forward
// pass marks everything downstream of an LPR and one backward pass marks
// everything upstream of an SNX.
func (p *simPlan) partitionBatch() {
	lprReach := make([]bool, p.nOps)
	snxReach := make([]bool, p.nOps)
	idxOf := func(base int32) int { return int(base) >> p.opShift }
	marked := func(reach []bool, o *cOperand) bool {
		return o.ring && reach[idxOf(o.base)]
	}
	for i := range p.plan {
		c := &p.plan[i]
		idx := idxOf(c.slot)
		if c.opc == vm.LPR || marked(lprReach, &c.a) || marked(lprReach, &c.b) || marked(lprReach, &c.c) {
			lprReach[idx] = true
		}
	}
	for i := len(p.plan) - 1; i >= 0; i-- {
		c := &p.plan[i]
		if c.opc != vm.SNX && !snxReach[idxOf(c.slot)] {
			continue
		}
		for _, o := range [...]*cOperand{&c.a, &c.b, &c.c} {
			if o.ring {
				snxReach[idxOf(o.base)] = true
			}
		}
	}
	for _, c := range p.plan {
		idx := idxOf(c.slot)
		switch {
		case c.opc == vm.LPR || c.opc == vm.SNX || (lprReach[idx] && snxReach[idx]):
			p.batchB = append(p.batchB, c)
		case lprReach[idx]:
			p.batchC = append(p.batchC, c)
		default:
			p.batchA = append(p.batchA, c)
		}
	}
}

// NewSim instantiates a simulator over the data path's compiled
// execution plan (compiling it on first use, reusing it afterwards),
// with feedback latches reset to their init values. RunN's lane kernels
// are built eagerly here (and cached on the shared plan), so
// construction — not the first RunN — pays the lowering cost.
func NewSim(d *Datapath) *Sim {
	p := d.simPlanFor()
	p.threadFor()
	s := &Sim{
		d:          d,
		p:          p,
		ring:       make([]int64, len(d.Ops)*p.rdepth),
		rmask:      p.rmask,
		validRing:  make([]bool, p.rdepth),
		stageValid: make([]bool, p.stages+1),
		state:      make([]int64, len(p.fbInit)),
		stagedVal:  make([]int64, len(p.fbInit)),
		stagedSet:  make([]bool, len(p.fbInit)),
		outBuf:     make([]int64, len(d.Outputs)),
		zeroBuf:    make([]int64, len(d.Inputs)),
		rowBuf:     make([]int64, len(d.Inputs)),
		batchState: make([]int64, len(p.fbInit)),
	}
	s.Reset()
	return s
}

// Reset returns the simulator to its power-on state — empty pipeline,
// cycle zero, feedback latches at their init values — without
// allocating, so one Sim can be reused across runs (System.Reset,
// sweeps).
func (s *Sim) Reset() {
	clear(s.ring)
	clear(s.validRing)
	clear(s.stageValid)
	clear(s.stagedSet)
	copy(s.state, s.p.fbInit)
	s.head = 0
	s.cycle = 0
}

// Cycle returns the number of Steps executed.
func (s *Sim) Cycle() int { return s.cycle }

// Latency returns the cycle count between feeding an iteration's inputs
// and reading its outputs: outputs fed at Step n are read from the
// return value of Step n+Latency.
func (s *Sim) Latency() int { return s.d.Latency() }

// InWidth returns the number of input ports one Step consumes — the
// column count of a port-major RunN input block (an n-iteration block
// holds InWidth()*n values, port i's column at [i*n, (i+1)*n)).
func (s *Sim) InWidth() int { return len(s.p.inSlots) }

// OutWidth returns the number of output ports one Step produces — the
// column count of the port-major block RunN returns, so callers can
// slice one port's n iterations out of it (out[o*n:(o+1)*n]) without
// copying.
func (s *Sim) OutWidth() int { return len(s.p.outSlots) }

// FeedbackByName returns the current value of the feedback latch whose
// state variable has the given name. The name→latch mapping is built
// once at plan compile time (first latch in plan order wins on name
// collisions), so the lookup is O(1) and deterministic.
func (s *Sim) FeedbackByName(name string) (int64, bool) {
	idx, ok := s.p.fbName[name]
	if !ok {
		return 0, false
	}
	return s.state[idx], true
}

// Step advances one clock: inputs (one value per data-path input port)
// enter the pipeline, every stage computes, pipeline registers shift and
// feedback latches update. The returned slice holds the output-port
// values visible after this clock edge — they belong to the iteration
// admitted Latency() cycles earlier. The slice is reused between calls;
// copy it to retain values across Steps.
//
//roccc:hotpath
func (s *Sim) Step(inputs []int64) ([]int64, error) {
	return s.step(inputs, true)
}

// Drain advances one clock with a pipeline bubble: zero inputs enter,
// and the bubble carries a poison bit down the pipeline. A stage
// occupied by a bubble (or by nothing, before the first admission) is
// poisoned: its ops cannot fault — division or modulo by zero and LUT
// index overflow are masked to a zero result instead of trapping, and
// shifts are width-masked as always — and it never commits feedback
// latches, exactly as real hardware ignores bubble lanes while flushing
// (Fig. 2 drain). A fault is raised only when the stage's occupant is a
// valid iteration. Like Step, the returned slice is reused between
// calls.
//
//roccc:hotpath
func (s *Sim) Drain() ([]int64, error) {
	return s.step(s.zeroBuf, false)
}

// fetch reads one pre-resolved operand.
//
//roccc:hotpath
func (s *Sim) fetch(o *cOperand) int64 {
	if !o.ring {
		return o.imm
	}
	return s.ring[int(o.base)+((s.head+int(o.off))&s.rmask)]
}

// abort discards a failed cycle: the ring head is restored (every slot
// written during the aborted attempt is rewritten before it can be read
// once the next attempt rotates back onto it) and staged feedback
// writes are dropped, so an errored step leaves the pipeline exactly as
// it was before the call.
//
//roccc:hotpath
func (s *Sim) abort(prevHead int) {
	s.head = prevHead
	for i := range s.stagedSet {
		s.stagedSet[i] = false
	}
}

// step advances one clock through the interpreter loop: the reference
// semantics, and the only per-cycle path (Step, Drain, short chunks and
// fault replays).
//
//roccc:hotpath
func (s *Sim) step(inputs []int64, valid bool) ([]int64, error) {
	if len(inputs) != len(s.p.inSlots) {
		return nil, fmt.Errorf("dp: sim: %d inputs, want %d", len(inputs), len(s.p.inSlots))
	}
	prevHead := s.head
	// Rotate the ring one cycle: head now addresses this cycle's slots,
	// and every prior value ages by one latch.
	s.head = (s.head - 1) & s.rmask
	head := s.head
	rmask := s.rmask
	ring := s.ring
	s.validRing[s.cycle&rmask] = valid
	// Poison propagation: the iteration occupying stage st this cycle was
	// admitted st cycles ago; a stage fed by a bubble (or by nothing yet)
	// is poisoned for the whole cycle.
	stageValid := s.stageValid
	for st := range stageValid {
		it := s.cycle - st
		stageValid[st] = it >= 0 && s.validRing[it&rmask]
	}
	// Input pseudo-ops take this cycle's fed values.
	inSlots := s.p.inSlots
	for i := range inSlots {
		sl := &inSlots[i]
		ring[int(sl.base)+head] = sl.w.wrap(inputs[i])
	}
	staged := false
	plan := s.p.plan
	for i := range plan {
		op := &plan[i]
		var v int64
		switch op.opc {
		case vm.LDC, vm.MOV, vm.CVT:
			v = op.tw.wrap(s.fetch(&op.a))
		case vm.ADD:
			v = op.tw.wrap(s.fetch(&op.a) + s.fetch(&op.b))
		case vm.SUB:
			v = op.tw.wrap(s.fetch(&op.a) - s.fetch(&op.b))
		case vm.MUL:
			v = op.tw.wrap(s.fetch(&op.a) * s.fetch(&op.b))
		case vm.DIV:
			b := s.fetch(&op.b)
			if b == 0 {
				if !stageValid[op.stage] {
					break // poisoned lane: bubble masks the fault
				}
				s.abort(prevHead)
				return nil, faultErr(FaultDiv, s.cycle, "dp: sim: division by zero on a valid iteration (cycle %d)", s.cycle)
			}
			v = op.tw.wrap(s.fetch(&op.a) / b)
		case vm.REM:
			b := s.fetch(&op.b)
			if b == 0 {
				if !stageValid[op.stage] {
					break // poisoned lane: bubble masks the fault
				}
				s.abort(prevHead)
				return nil, faultErr(FaultRem, s.cycle, "dp: sim: modulo by zero on a valid iteration (cycle %d)", s.cycle)
			}
			v = op.tw.wrap(s.fetch(&op.a) % b)
		case vm.AND:
			v = op.tw.wrap(s.fetch(&op.a) & s.fetch(&op.b))
		case vm.IOR:
			v = op.tw.wrap(s.fetch(&op.a) | s.fetch(&op.b))
		case vm.XOR:
			v = op.tw.wrap(s.fetch(&op.a) ^ s.fetch(&op.b))
		case vm.SHL:
			v = op.tw.wrap(s.fetch(&op.a) << uint(s.fetch(&op.b)&63))
		case vm.SHR:
			a := s.fetch(&op.a)
			sh := uint(s.fetch(&op.b) & 63)
			if op.shrLogical {
				v = op.tw.wrap(int64((uint64(a) & op.shrMask) >> sh))
			} else {
				v = op.tw.wrap(a >> sh)
			}
		case vm.NEG:
			v = op.tw.wrap(-s.fetch(&op.a))
		case vm.NOT:
			v = op.tw.wrap(^s.fetch(&op.a))
		case vm.SEQ:
			v = boolBit(s.fetch(&op.a) == s.fetch(&op.b))
		case vm.SNE:
			v = boolBit(s.fetch(&op.a) != s.fetch(&op.b))
		case vm.SLT:
			v = boolBit(s.fetch(&op.a) < s.fetch(&op.b))
		case vm.SLE:
			v = boolBit(s.fetch(&op.a) <= s.fetch(&op.b))
		case vm.MUX:
			if s.fetch(&op.a) != 0 {
				v = op.tw.wrap(s.fetch(&op.b))
			} else {
				v = op.tw.wrap(s.fetch(&op.c))
			}
		case vm.LPR:
			// Feedback latches bypass hardware-width wrapping: the latch
			// is exactly as wide as the state variable.
			ring[int(op.slot)+head] = s.state[op.fb]
			continue
		case vm.SNX:
			// Only the valid iteration occupying this stage writes the
			// latch; poisoned bubbles never commit.
			if stageValid[op.stage] {
				s.stagedVal[op.fb] = op.tw.wrap(s.fetch(&op.a))
				s.stagedSet[op.fb] = true
				staged = true
			}
			continue
		case vm.LUT:
			ix := s.fetch(&op.a)
			if ix < 0 || ix >= int64(op.rom.Size) {
				if !stageValid[op.stage] {
					ring[int(op.slot)+head] = 0 // poisoned lane: masked
					continue
				}
				s.abort(prevHead)
				return nil, faultErr(FaultLUT, s.cycle, "dp: sim: LUT index %d out of range for %s (cycle %d)", ix, op.rom.Name, s.cycle)
			}
			ring[int(op.slot)+head] = op.rom.Content[ix]
			continue
		default:
			s.abort(prevHead)
			return nil, fmt.Errorf("dp: sim: unsupported opcode %s", op.opc)
		}
		// The hardware signal is op.Width bits wide; wrap to the inferred
		// hardware type to catch width-inference bugs.
		ring[int(op.slot)+head] = op.hw.wrap(v)
	}
	// Clock edge: commit feedback latches.
	if staged {
		for i := range s.stagedSet {
			if s.stagedSet[i] {
				s.stagedSet[i] = false
				s.state[i] = s.stagedVal[i]
			}
		}
	}
	s.cycle++
	// Output ports are aligned to the pipeline exit: a port whose
	// defining op sits in an earlier stage is delayed through alignment
	// registers so all outputs of one iteration appear together.
	outSlots := s.p.outSlots
	for i := range outSlots {
		o := &outSlots[i]
		s.outBuf[i] = ring[int(o.base)+((head+int(o.delta))&rmask)]
	}
	return s.outBuf, nil
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Run feeds a sequence of per-iteration input vectors through the
// pipeline (plus drain cycles) and returns one output vector per
// iteration, aligned with the inputs. The result rows share one flat
// backing array sized up front (two allocations per call, however long
// the run); drain cycles reuse the simulator's zero-input scratch, so
// Run performs no per-iteration allocation. RunBatch (batch.go) is the
// batched equivalent executing many iterations per dispatch.
func (s *Sim) Run(iters [][]int64) ([][]int64, error) {
	if len(iters) == 0 {
		return nil, nil
	}
	lat := s.Latency()
	outW := len(s.p.outSlots)
	outs := make([][]int64, 0, len(iters))
	backing := make([]int64, len(iters)*outW)
	total := len(iters) + lat
	for c := 0; c < total; c++ {
		var (
			o   []int64
			err error
		)
		if c < len(iters) {
			o, err = s.Step(iters[c])
		} else {
			o, err = s.Drain()
		}
		if err != nil {
			return nil, err
		}
		if c >= lat {
			row := backing[len(outs)*outW : (len(outs)+1)*outW]
			copy(row, o)
			outs = append(outs, row)
		}
	}
	return outs, nil
}
