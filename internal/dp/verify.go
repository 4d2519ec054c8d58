package dp

// verify.go is the data-path half of the static invariant verifier
// (cmd/rocccvet, internal/dpverify): every property that makes a
// compiled simPlan safe to execute — ring offsets in bounds, ringNeed
// depths, wrap-mode congruence, the A/B/C batch partition, the
// closed-form feedback cone — is re-derived here from first principles
// and checked against what compileSimPlan actually produced, without
// executing a single cycle. The checks are deliberately written as an
// independent second implementation of the contracts (not calls back
// into the compiler), so a bug in compileSimPlan and a bug in the
// verifier must coincide to slip through.
//
// Under the `dpverify` build tag the whole pass also runs automatically
// at plan-compile time (verify_hook_on.go), so -race and soak CI jobs
// carry it over every kernel they compile, including fuzz-generated
// ones.

import (
	"fmt"
	"math/bits"

	"roccc/internal/vm"
)

// Violation is one named static-invariant failure. Invariant is a
// stable slug ("plan/ring-offset", "system/need-clear", ...) shared by
// every verifier layer (dp, netlist, smartbuf, vhdl); Detail says what
// was found where.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// violations accumulates Violation values with printf formatting.
type violations []Violation

func (vs *violations) add(inv, format string, args ...any) {
	*vs = append(*vs, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// Verify statically checks the data path's compiled execution plan
// (compiling it on first use): plan self-consistency plus congruence
// with the Datapath it was compiled from. It returns every violation
// found; an empty slice means the plan upholds all verified invariants.
func Verify(d *Datapath) []Violation {
	p := d.simPlanFor()
	vs := verifyPlan(p)
	vs = append(vs, verifyPlanDatapath(p, d)...)
	return vs
}

// verifyPlan checks a simPlan's internal consistency: everything that
// can be established from the plan alone, with no Datapath at hand (the
// corruption tests construct synthetic plans). The checks mirror the
// execution model, not the compiler: each one states why Step/RunN
// cannot go out of bounds or diverge from the serial semantics.
func verifyPlan(p *simPlan) []Violation {
	var vs violations

	// plan/geometry: the ring layout every fetch depends on. rdepth must
	// be a power of two strictly deeper than the pipeline (an operand can
	// read back at most `stages` cycles, and one extra slot is being
	// written this cycle), with rmask/opShift derived from it.
	switch {
	case p.rdepth <= 0 || p.rdepth&(p.rdepth-1) != 0:
		vs.add("plan/geometry", "rdepth %d is not a positive power of two", p.rdepth)
	case p.rdepth <= p.stages:
		vs.add("plan/geometry", "rdepth %d cannot hold %d pipeline stages of history", p.rdepth, p.stages)
	default:
		if p.rmask != p.rdepth-1 {
			vs.add("plan/geometry", "rmask %#x does not match rdepth %d", p.rmask, p.rdepth)
		}
		if p.opShift != uint(bits.TrailingZeros(uint(p.rdepth))) {
			vs.add("plan/geometry", "opShift %d does not match rdepth %d", p.opShift, p.rdepth)
		}
	}
	if len(p.opStage) != p.nOps {
		vs.add("plan/geometry", "opStage holds %d entries for %d ops", len(p.opStage), p.nOps)
		return vs // every later check indexes opStage by op
	}
	if p.rdepth <= 0 || p.rdepth&(p.rdepth-1) != 0 || p.rmask != p.rdepth-1 {
		return vs // ring addressing is broken; offset checks would lie
	}

	idxOf := func(base int32) int { return int(base) >> p.opShift }
	alignedRegion := func(base int32) bool {
		return base >= 0 && int(base)%p.rdepth == 0 && idxOf(base) < p.nOps
	}

	// Which op regions are defined by plan cops (everything else is an
	// input pseudo-op region, written by inSlots), and at which plan
	// position — operands may only read regions defined earlier
	// (topological order) or input regions.
	defPos := make(map[int]int, len(p.plan))
	for i := range p.plan {
		c := &p.plan[i]
		if !alignedRegion(c.slot) {
			vs.add("plan/geometry", "op %d: slot %d is not an aligned ring region (rdepth %d, %d ops)", i, c.slot, p.rdepth, p.nOps)
			continue
		}
		if prev, dup := defPos[idxOf(c.slot)]; dup {
			vs.add("plan/geometry", "ops %d and %d share ring region %d", prev, i, idxOf(c.slot))
		}
		defPos[idxOf(c.slot)] = i
	}
	inputRegion := make([]bool, p.nOps)
	for i := range p.inSlots {
		sl := &p.inSlots[i]
		if !alignedRegion(sl.base) {
			vs.add("plan/geometry", "input %d: base %d is not an aligned ring region", i, sl.base)
			continue
		}
		if pos, isOp := defPos[idxOf(sl.base)]; isOp {
			vs.add("plan/geometry", "input %d shares ring region %d with op %d", i, idxOf(sl.base), pos)
		}
		inputRegion[idxOf(sl.base)] = true
	}

	// plan/ring-offset and plan/ring-need: every operand read must stay
	// inside the allocated history depth, within the region's declared
	// read-back need (the batch path seeds/commits only that much), and
	// equal the pipeline distance between consumer and producer — the
	// latch-count property ("any path between two ops crosses the same
	// number of latches").
	checkOperand := func(pos int, which string, c *cop, o *cOperand) {
		if !o.ring {
			return
		}
		if !alignedRegion(o.base) {
			vs.add("plan/ring-offset", "op %d operand %s: base %d is not an aligned ring region", pos, which, o.base)
			return
		}
		idx := idxOf(o.base)
		if defAt, isOp := defPos[idx]; isOp {
			if defAt >= pos {
				vs.add("plan/ring-offset", "op %d operand %s reads region %d defined later at plan position %d", pos, which, idx, defAt)
			}
		} else if !inputRegion[idx] {
			vs.add("plan/ring-offset", "op %d operand %s reads region %d, which no op or input defines", pos, which, idx)
		}
		if o.off < 0 || int(o.off) > p.rmask {
			vs.add("plan/ring-offset", "op %d operand %s: offset %d outside history depth %d", pos, which, o.off, p.rdepth)
			return
		}
		if idx < len(p.ringNeed) && o.off > p.ringNeed[idx] {
			vs.add("plan/ring-need", "op %d operand %s reads %d cycles back into region %d, deeper than ringNeed %d", pos, which, o.off, idx, p.ringNeed[idx])
		}
		if want := c.stage - p.opStage[idx]; o.off != want {
			vs.add("plan/ring-offset", "op %d operand %s: offset %d does not equal stage distance %d (consumer stage %d, producer stage %d)",
				pos, which, o.off, want, c.stage, p.opStage[idx])
		}
	}
	for i := range p.plan {
		c := &p.plan[i]
		if c.stage < 0 || int(c.stage) > p.stages {
			vs.add("plan/geometry", "op %d: stage %d outside pipeline [0,%d]", i, c.stage, p.stages)
			continue
		}
		if alignedRegion(c.slot) && p.opStage[idxOf(c.slot)] != c.stage {
			vs.add("plan/geometry", "op %d: stage %d disagrees with opStage[%d]=%d", i, c.stage, idxOf(c.slot), p.opStage[idxOf(c.slot)])
		}
		checkOperand(i, "a", c, &c.a)
		checkOperand(i, "b", c, &c.b)
		checkOperand(i, "c", c, &c.c)

		// plan/wrap-congruence: the batch wrap pass (wmode/fw) must be
		// the exact fusion of the semantic and hardware wraps Step
		// applies per cycle. Re-derive the mode from (opc, tw, hw) alone.
		if c.tw.sh > 63 || c.hw.sh > 63 || c.fw.sh > 63 {
			vs.add("plan/wrap-congruence", "op %d: wrap shift out of range (tw %d, hw %d, fw %d)", i, c.tw.sh, c.hw.sh, c.fw.sh)
		}
		wantMode, wantFW := deriveWrapMode(c.opc, c.tw, c.hw)
		if c.wmode != wantMode || (wantMode == wrapSingle && c.fw != wantFW) {
			vs.add("plan/wrap-congruence", "op %d (%s): wrap mode %d/fw %+v, want %d/%+v for tw %+v hw %+v",
				i, c.opc, c.wmode, c.fw, wantMode, wantFW, c.tw, c.hw)
		}

		// plan/latch-slot: only latch ops carry a latch index, and it
		// must address an allocated latch.
		switch c.opc {
		case vm.LPR, vm.SNX:
			if c.fb < 0 || int(c.fb) >= len(p.fbVars) {
				vs.add("plan/latch-slot", "op %d (%s): latch index %d outside %d latches", i, c.opc, c.fb, len(p.fbVars))
			}
		default:
			if c.fb >= 0 && int(c.fb) >= len(p.fbVars) {
				vs.add("plan/latch-slot", "op %d (%s): latch index %d outside %d latches", i, c.opc, c.fb, len(p.fbVars))
			}
		}
		if c.opc == vm.LUT && c.rom == nil {
			vs.add("plan/geometry", "op %d: LUT without a ROM", i)
		}
	}

	// plan/feedback-stage: every LPR sits in its latch's SNX stage
	// (initiation interval 1, §4.2.3). Iteration i then reads the latch
	// after every earlier iteration wrote it and before any later one
	// does, however many bubbles lie between their feeds — the premise
	// of the lane-serial cone's per-lane commit and of the bubble-free
	// system walk (RunN), checked for every latch, not only inside a
	// recognized closed-form cone.
	snxStage := make([]int32, len(p.fbVars))
	for i := range snxStage {
		snxStage[i] = -1
	}
	for i := range p.plan {
		if c := &p.plan[i]; c.opc == vm.SNX && c.fb >= 0 && int(c.fb) < len(snxStage) {
			snxStage[c.fb] = c.stage
		}
	}
	for i := range p.plan {
		c := &p.plan[i]
		if c.opc != vm.LPR || c.fb < 0 || int(c.fb) >= len(snxStage) || snxStage[c.fb] < 0 {
			continue
		}
		if c.stage != snxStage[c.fb] {
			vs.add("plan/feedback-stage", "op %d: LPR of latch %d sits in stage %d, its SNX in stage %d", i, c.fb, c.stage, snxStage[c.fb])
		}
	}

	// Latch bookkeeping: init values and the name index.
	if len(p.fbInit) != len(p.fbVars) {
		vs.add("plan/latch-slot", "%d latch init values for %d latches", len(p.fbInit), len(p.fbVars))
	}
	for name, idx := range p.fbName {
		if idx < 0 || int(idx) >= len(p.fbVars) {
			vs.add("plan/latch-slot", "latch name %q maps to index %d outside %d latches", name, idx, len(p.fbVars))
		}
	}

	// Output ports read history like operands do.
	for i := range p.outSlots {
		o := &p.outSlots[i]
		if !alignedRegion(o.base) {
			vs.add("plan/ring-offset", "output %d: base %d is not an aligned ring region", i, o.base)
			continue
		}
		if o.delta < 0 || int(o.delta) > p.rmask {
			vs.add("plan/ring-offset", "output %d: alignment delay %d outside history depth %d", i, o.delta, p.rdepth)
			continue
		}
		if idx := idxOf(o.base); idx < len(p.ringNeed) && o.delta > p.ringNeed[idx] {
			vs.add("plan/ring-need", "output %d reads %d cycles back into region %d, deeper than ringNeed %d", i, o.delta, idx, p.ringNeed[idx])
		}
	}

	// plan/ring-need and plan/worklist: re-derive the read-back depths
	// and the seed/commit worklists from the plan's reads, element by
	// element.
	if len(p.ringNeed) != p.nOps {
		vs.add("plan/ring-need", "ringNeed holds %d entries for %d ops", len(p.ringNeed), p.nOps)
	} else {
		need := make([]int32, p.nOps)
		bump := func(base, delta int32) {
			if idx := idxOf(base); alignedRegion(base) && delta > need[idx] {
				need[idx] = delta
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
		for idx := range need {
			if need[idx] != p.ringNeed[idx] {
				vs.add("plan/ring-need", "region %d: ringNeed %d, but the deepest actual read is %d", idx, p.ringNeed[idx], need[idx])
			}
		}
		vs = append(vs, verifyWorklists(p, need)...)
	}

	vs = append(vs, verifyBatchPartition(p)...)
	if cs := p.coneFor(); cs != nil {
		vs = append(vs, verifyCone(p, cs)...)
	}
	return vs
}

// deriveWrapMode is the verifier's independent statement of the wrap
// fusion contract: hw.wrap(tw.wrap(v)) == fw.wrap(v) exactly when the
// hardware wrap is at least as narrowing (hw.sh >= tw.sh, since a wrap
// keeps the low 64-sh bits); comparisons produce a bare 0/1 bit and
// take only the hardware wrap; LUT reads ROM contents verbatim; and a
// fused 64-bit wrap (sh 0) is the identity, so it demotes to none.
func deriveWrapMode(opc vm.Opcode, tw, hw wrapSpec) (uint8, wrapSpec) {
	var mode uint8
	var fw wrapSpec
	switch {
	case opc == vm.LUT:
		mode = wrapNone
	case opc == vm.SEQ || opc == vm.SNE || opc == vm.SLT || opc == vm.SLE:
		mode, fw = wrapSingle, hw
	case hw.sh >= tw.sh:
		mode, fw = wrapSingle, hw
	default:
		mode = wrapBoth
	}
	if mode == wrapSingle && fw.sh == 0 {
		mode, fw = wrapNone, wrapSpec{}
	}
	return mode, fw
}

// verifyWorklists re-derives the batch path's seed and commit lists
// from the recomputed read-back depths: a region appears iff somebody
// reads it (need > 0) and it is not an SNX (which never writes the
// ring); seeding additionally requires the op to sit inside the
// pipeline (stage < stages), since a stage-`stages` op has no in-flight
// prefix to restore.
func verifyWorklists(p *simPlan, need []int32) []Violation {
	var vs violations
	snx := make([]bool, p.nOps)
	for i := range p.plan {
		c := &p.plan[i]
		if c.opc == vm.SNX && int(c.slot)>>p.opShift < p.nOps {
			snx[int(c.slot)>>p.opShift] = true
		}
	}
	var seeds, commits []ringEnt
	for idx := 0; idx < p.nOps; idx++ {
		if need[idx] == 0 || snx[idx] {
			continue
		}
		e := ringEnt{idx: int32(idx), st: p.opStage[idx], need: need[idx]}
		if int(p.opStage[idx]) < p.stages {
			seeds = append(seeds, e)
		}
		commits = append(commits, e)
	}
	check := func(kind string, got, want []ringEnt) {
		if len(got) != len(want) {
			vs.add("plan/worklist", "%s worklist holds %d regions, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				vs.add("plan/worklist", "%s worklist entry %d is %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("seed", p.seeds, seeds)
	check("commit", p.commits, commits)
	return vs
}

// verifyBatchPartition re-derives the batch execution classes from the
// plan's dependence structure and checks batchA/B/C against them:
// together the three lists must hold every plan op exactly once, each
// in its re-derived class, in plan (topological) order, and no op may
// read a region its execution order has not produced yet — batchA runs
// first and may read only inputs and other batchA regions, batchB may
// additionally read batchA, batchC may read anything.
func verifyBatchPartition(p *simPlan) []Violation {
	var vs violations
	idxOf := func(base int32) int { return int(base) >> p.opShift }

	// Independent reachability: forward from latch reads, backward from
	// latch writes.
	const (
		classA = iota + 1
		classB
		classC
	)
	fromLPR := make([]bool, p.nOps)
	toSNX := make([]bool, p.nOps)
	reads := func(c *cop, mark []bool) bool {
		for _, o := range [...]*cOperand{&c.a, &c.b, &c.c} {
			if o.ring && idxOf(o.base) < p.nOps && mark[idxOf(o.base)] {
				return true
			}
		}
		return false
	}
	for i := range p.plan {
		c := &p.plan[i]
		if idx := idxOf(c.slot); idx < p.nOps && (c.opc == vm.LPR || reads(c, fromLPR)) {
			fromLPR[idx] = true
		}
	}
	for i := len(p.plan) - 1; i >= 0; i-- {
		c := &p.plan[i]
		if idx := idxOf(c.slot); idx >= p.nOps || (c.opc != vm.SNX && !toSNX[idx]) {
			continue
		}
		for _, o := range [...]*cOperand{&c.a, &c.b, &c.c} {
			if o.ring && idxOf(o.base) < p.nOps {
				toSNX[idxOf(o.base)] = true
			}
		}
	}
	wantClass := make([]uint8, p.nOps) // 0: input / no op
	for i := range p.plan {
		c := &p.plan[i]
		idx := idxOf(c.slot)
		if idx >= p.nOps {
			continue
		}
		switch {
		case c.opc == vm.LPR || c.opc == vm.SNX || (fromLPR[idx] && toSNX[idx]):
			wantClass[idx] = classB
		case fromLPR[idx]:
			wantClass[idx] = classC
		default:
			wantClass[idx] = classA
		}
	}

	// The three lists must be the plan, exactly once each, class by
	// class, with each entry bit-identical to its plan cop.
	planAt := make(map[int32]int, len(p.plan))
	for i := range p.plan {
		planAt[p.plan[i].slot] = i
	}
	seen := make([]bool, len(p.plan))
	total := 0
	for class, ops := range map[uint8][]cop{classA: p.batchA, classB: p.batchB, classC: p.batchC} {
		lastPos := -1
		for i := range ops {
			c := &ops[i]
			pos, ok := planAt[c.slot]
			if !ok {
				vs.add("plan/batch-partition", "batch class %d entry %d: slot %d matches no plan op", class, i, c.slot)
				continue
			}
			if seen[pos] {
				vs.add("plan/batch-partition", "plan op %d appears in more than one batch entry", pos)
				continue
			}
			seen[pos] = true
			total++
			if *c != p.plan[pos] {
				vs.add("plan/batch-partition", "batch class %d entry %d diverges from plan op %d", class, i, pos)
			}
			if got := wantClass[idxOf(c.slot)]; got != class {
				vs.add("plan/batch-partition", "plan op %d is in batch class %d, but its dependence structure derives class %d", pos, class, got)
			}
			if pos <= lastPos {
				vs.add("plan/batch-hazard", "batch class %d breaks topological order at entry %d (plan op %d after %d)", class, i, pos, lastPos)
			}
			lastPos = pos

			// Cross-class hazards: by the time this class runs, only
			// regions of earlier (or own, earlier-in-list) classes hold
			// lane values.
			for _, o := range [...]*cOperand{&c.a, &c.b, &c.c} {
				if !o.ring || idxOf(o.base) >= p.nOps {
					continue
				}
				src := wantClass[idxOf(o.base)]
				if src > class {
					vs.add("plan/batch-hazard", "plan op %d (class %d) reads region %d of later class %d", pos, class, idxOf(o.base), src)
				}
			}
		}
	}
	if total != len(p.plan) {
		vs.add("plan/batch-partition", "batch classes cover %d of %d plan ops", total, len(p.plan))
	}
	return vs
}

// verifyCone independently re-derives the closed-form feedback-cone
// conditions and checks a recognized coneSpec against them. The
// recognizer (cone.go) and this checker state the same grammar
// in different shapes: recognizeCone pattern-matches while walking;
// this pass first computes latch/accumulate provenance for every cone
// region and then asserts each structural claim of the closed form
//
//	x' = wrap_ws(x ± e), optionally gated by an external select
//
// directly — single latch, one accumulate with an external addend,
// copies and at most one MUX in between, one pipeline stage, and no
// intermediate wrap narrower than the latch (the congruence that makes
// the prefix form exact).
func verifyCone(p *simPlan, cs *coneSpec) []Violation {
	var vs violations
	idxOf := func(base int32) int { return int(base) >> p.opShift }
	if len(p.batchB) == 0 {
		vs.add("plan/cone-grammar", "cone recognized on a plan with an empty feedback class")
		return vs
	}
	if cs.fb < 0 || int(cs.fb) >= len(p.fbVars) {
		vs.add("plan/cone-grammar", "cone latch index %d outside %d latches", cs.fb, len(p.fbVars))
		return vs
	}

	member := make(map[int]bool, len(p.batchB))
	for i := range p.batchB {
		member[idxOf(p.batchB[i].slot)] = true
	}
	// Provenance over cone regions: does the region's value derive from
	// the latch through width-only ops, and has it passed the accumulate?
	fromLatch := make(map[int]bool, len(p.batchB))
	fromAdd := make(map[int]bool, len(p.batchB))
	external := func(o *cOperand) bool { return !o.ring || !member[idxOf(o.base)] }

	var snxCount, accCount, muxCount int
	var lprRegions []int32
	var rest []cop
	for i := range p.batchB {
		c := &p.batchB[i]
		idx := idxOf(c.slot)
		if c.stage != cs.stage {
			vs.add("plan/cone-grammar", "cone op at region %d sits in stage %d, cone claims stage %d", idx, c.stage, cs.stage)
		}
		switch c.opc {
		case vm.LPR:
			if c.fb != cs.fb {
				vs.add("plan/cone-grammar", "cone LPR at region %d reads latch %d, cone claims latch %d", idx, c.fb, cs.fb)
			}
			lprRegions = append(lprRegions, int32(idx))
			fromLatch[idx] = true
			continue
		case vm.SNX:
			snxCount++
			if c.fb != cs.fb {
				vs.add("plan/cone-grammar", "cone SNX writes latch %d, cone claims latch %d", c.fb, cs.fb)
			}
			if c.tw != cs.snxTw {
				vs.add("plan/cone-grammar", "cone SNX wrap %+v disagrees with recorded latch width %+v", c.tw, cs.snxTw)
			}
			if external(&c.a) || !fromAdd[idxOf(c.a.base)] {
				vs.add("plan/cone-grammar", "cone SNX input does not pass through the accumulate op")
			}
			continue
		case vm.ADD, vm.SUB:
			accCount++
			if (c.opc == vm.SUB) != cs.sub {
				vs.add("plan/cone-grammar", "cone accumulate opcode %s disagrees with recorded sub=%v", c.opc, cs.sub)
			}
			aLatch := !external(&c.a) && fromLatch[idxOf(c.a.base)] && !fromAdd[idxOf(c.a.base)]
			bLatch := !external(&c.b) && fromLatch[idxOf(c.b.base)] && !fromAdd[idxOf(c.b.base)]
			switch {
			case aLatch && external(&c.b):
				if cs.ext != c.b {
					vs.add("plan/cone-grammar", "cone external addend %+v is not the accumulate's external operand %+v", cs.ext, c.b)
				}
			case bLatch && external(&c.a) && c.opc == vm.ADD:
				if cs.ext != c.a {
					vs.add("plan/cone-grammar", "cone external addend %+v is not the accumulate's external operand %+v", cs.ext, c.a)
				}
			default:
				vs.add("plan/cone-grammar", "cone accumulate is not latch ± external (x' = wrap(x ± e))")
			}
			fromLatch[idx] = true
			fromAdd[idx] = true
		case vm.LDC, vm.MOV, vm.CVT:
			if external(&c.a) {
				vs.add("plan/cone-grammar", "cone copy at region %d reads outside the cone", idx)
			} else {
				fromLatch[idx] = fromLatch[idxOf(c.a.base)]
				fromAdd[idx] = fromAdd[idxOf(c.a.base)]
			}
		case vm.MUX:
			muxCount++
			if !cs.hasMux {
				vs.add("plan/cone-grammar", "cone contains a MUX the spec does not record")
			}
			if !external(&c.a) {
				vs.add("plan/cone-grammar", "cone MUX select is not external")
			} else if cs.hasMux && cs.cond != c.a {
				vs.add("plan/cone-grammar", "cone MUX select %+v disagrees with recorded condition %+v", c.a, cs.cond)
			}
			bAdd := !external(&c.b) && fromAdd[idxOf(c.b.base)]
			cLatch := !external(&c.c) && fromLatch[idxOf(c.c.base)] && !fromAdd[idxOf(c.c.base)]
			bLatch := !external(&c.b) && fromLatch[idxOf(c.b.base)] && !fromAdd[idxOf(c.b.base)]
			cAdd := !external(&c.c) && fromAdd[idxOf(c.c.base)]
			switch {
			case bAdd && cLatch:
				if !cs.selAddOnTrue {
					vs.add("plan/cone-grammar", "cone MUX takes the accumulate on true, spec records the opposite")
				}
			case cAdd && bLatch:
				if cs.selAddOnTrue {
					vs.add("plan/cone-grammar", "cone MUX takes the accumulate on false, spec records the opposite")
				}
			default:
				vs.add("plan/cone-grammar", "cone MUX does not select between the accumulate chain and the latch")
			}
			fromLatch[idx] = true
			fromAdd[idx] = true
		default:
			vs.add("plan/cone-grammar", "op %s inside a recognized cone (faulting or exotic ops must keep the lane-serial path)", c.opc)
		}
		rest = append(rest, *c)

		// The congruence condition: no cone wrap narrower than the latch.
		if c.tw.sh > cs.snxTw.sh || c.hw.sh > cs.snxTw.sh {
			vs.add("plan/cone-grammar", "cone op at region %d wraps narrower than the latch (tw sh %d, hw sh %d, latch sh %d)", idx, c.tw.sh, c.hw.sh, cs.snxTw.sh)
		}
	}
	if snxCount != 1 {
		vs.add("plan/cone-grammar", "cone holds %d SNX ops, closed form requires exactly 1", snxCount)
	}
	if accCount != 1 {
		vs.add("plan/cone-grammar", "cone holds %d accumulate ops, closed form requires exactly 1", accCount)
	}
	if muxCount > 1 || (muxCount == 0 && cs.hasMux) {
		vs.add("plan/cone-grammar", "cone holds %d MUX ops, spec records hasMux=%v", muxCount, cs.hasMux)
	}
	if cs.hasMux && !external(&cs.cond) {
		vs.add("plan/cone-grammar", "recorded MUX condition reads a cone region")
	}
	if !external(&cs.ext) {
		vs.add("plan/cone-grammar", "recorded external addend reads a cone region")
	}
	if len(lprRegions) == 0 {
		vs.add("plan/cone-grammar", "cone has no latch read")
	}
	if len(lprRegions) != len(cs.lprs) {
		vs.add("plan/cone-grammar", "cone spec records %d LPR regions, plan holds %d", len(cs.lprs), len(lprRegions))
	} else {
		for i := range lprRegions {
			if lprRegions[i] != cs.lprs[i] {
				vs.add("plan/cone-grammar", "cone spec LPR region %d is %d, plan holds %d", i, cs.lprs[i], lprRegions[i])
			}
		}
	}
	if len(rest) != len(cs.rest) {
		vs.add("plan/cone-grammar", "cone spec materializes %d ops, plan's non-latch cone holds %d", len(cs.rest), len(rest))
	} else {
		for i := range rest {
			if rest[i] != cs.rest[i] {
				vs.add("plan/cone-grammar", "cone spec rest op %d diverges from the plan's cone op", i)
			}
		}
	}
	return vs
}

// verifyPlanDatapath checks the plan against the Datapath it claims to
// compile: op-by-op opcode/slot/stage correspondence, wrap masks
// congruent with the declared semantic and inferred hardware types
// (mod 2^w — makeWrap keeps exactly Bits low bits), I/O port wiring and
// latch initialization.
func verifyPlanDatapath(p *simPlan, d *Datapath) []Violation {
	var vs violations
	if p.nOps != len(d.Ops) {
		vs.add("plan/geometry", "plan covers %d ops, data path holds %d", p.nOps, len(d.Ops))
		return vs
	}
	if p.stages != d.Stages {
		vs.add("plan/geometry", "plan compiled for %d stages, data path has %d", p.stages, d.Stages)
	}
	if p.latency != d.Latency() {
		vs.add("plan/geometry", "plan latency %d, data path latency %d", p.latency, d.Latency())
	}
	for i, op := range d.Ops {
		if int32(op.Stage) != p.opStage[i] {
			vs.add("plan/geometry", "op %d: opStage %d, data path stage %d", i, p.opStage[i], op.Stage)
		}
	}
	pos := 0
	for i, op := range d.Ops {
		if op.Node.Kind == InputNode {
			continue
		}
		if pos >= len(p.plan) {
			vs.add("plan/geometry", "plan ends after %d cops; data path has more real ops", len(p.plan))
			break
		}
		c := &p.plan[pos]
		pos++
		if c.opc != op.Instr.Op {
			vs.add("plan/geometry", "plan op %d compiles %s, data path op %d is %s", pos-1, c.opc, i, op.Instr.Op)
			continue
		}
		if c.slot != int32(i*p.rdepth) {
			vs.add("plan/geometry", "plan op %d: slot %d, want region of data-path op %d", pos-1, c.slot, i)
		}
		if want := makeWrap(op.Instr.Typ); c.tw != want {
			vs.add("plan/wrap-congruence", "plan op %d (%s): semantic wrap %+v not congruent with declared type %v", pos-1, c.opc, c.tw, op.Instr.Typ)
		}
		if want := makeWrap(op.HardwareType()); c.hw != want {
			vs.add("plan/wrap-congruence", "plan op %d (%s): hardware wrap %+v not congruent with inferred width %v", pos-1, c.opc, c.hw, op.HardwareType())
		}
	}
	if pos != len(p.plan) {
		vs.add("plan/geometry", "plan holds %d cops, data path has %d real ops", len(p.plan), pos)
	}
	if len(p.inSlots) != len(d.Inputs) {
		vs.add("plan/geometry", "plan routes %d inputs, data path has %d", len(p.inSlots), len(d.Inputs))
	} else {
		for i, port := range d.Inputs {
			if want := makeWrap(port.Var.Type); p.inSlots[i].w != want {
				vs.add("plan/wrap-congruence", "input %d (%s): wrap %+v not congruent with declared type %v", i, port.Var.Name, p.inSlots[i].w, port.Var.Type)
			}
		}
	}
	if len(p.outSlots) != len(d.Outputs) {
		vs.add("plan/geometry", "plan reads %d outputs, data path has %d", len(p.outSlots), len(d.Outputs))
	} else {
		lat := d.Latency()
		for i, port := range d.Outputs {
			def := d.DefOf[port.Reg]
			if def == nil {
				continue
			}
			if want := int32(lat - def.Stage); p.outSlots[i].delta != want {
				vs.add("plan/ring-offset", "output %d (%s): alignment delay %d, want %d (latency %d, producer stage %d)",
					i, port.Var.Name, p.outSlots[i].delta, want, lat, def.Stage)
			}
		}
	}
	for i, fb := range d.Feedbacks {
		if i >= len(p.fbVars) {
			vs.add("plan/latch-slot", "data-path feedback %d (%s) has no latch slot", i, fb.State.Name)
			continue
		}
		if p.fbVars[i] != fb.State {
			vs.add("plan/latch-slot", "latch %d bound to %s, data path declares %s", i, p.fbVars[i].Name, fb.State.Name)
		}
		if want := fb.State.Type.Wrap(fb.Init); p.fbInit[i] != want {
			vs.add("plan/latch-slot", "latch %d (%s): init %d not wrapped to declared width (want %d)", i, fb.State.Name, p.fbInit[i], want)
		}
	}
	return vs
}
