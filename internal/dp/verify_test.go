package dp

// verify_test.go plants corrupted execution plans and asserts the
// static verifier rejects each with the right named invariant. The
// plans are built by hand (not through compileSimPlan) so a single
// field can be knocked out of congruence while everything else stays
// valid — exactly the failure mode a compiler bug would produce.

import (
	"strings"
	"testing"

	"roccc/internal/cc"
	"roccc/internal/hir"
	"roccc/internal/vm"
)

// mkcop builds a plan op with the wrap mode derived the same way the
// compiler derives it, so baseline plans verify cleanly.
func mkcop(opc vm.Opcode, slot int32, stage int32, t cc.IntType, a, b cOperand) cop {
	w := makeWrap(t)
	c := cop{opc: opc, slot: slot, stage: stage, tw: w, hw: w, a: a, b: b, fb: -1}
	c.wmode, c.fw = deriveWrapMode(opc, c.tw, c.hw)
	return c
}

// addPlan is a minimal sound plan: one input feeding an ADD one stage
// later, with the sum read at the pipeline exit.
func addPlan() *simPlan {
	i32 := cc.IntType{Bits: 32, Signed: true}
	p := &simPlan{
		rdepth:  2,
		rmask:   1,
		stages:  1,
		opShift: 1,
		nOps:    2,
		latency: 1,
		opStage: []int32{0, 1},
		fbName:  map[string]int32{},
	}
	add := mkcop(vm.ADD, 2, 1, i32, cOperand{base: 0, off: 1, ring: true}, cOperand{imm: 1})
	p.plan = []cop{add}
	p.inSlots = []inSlot{{base: 0, w: makeWrap(i32)}}
	p.outSlots = []outSlot{{base: 2, delta: 0}}
	p.ringNeed = []int32{1, 0}
	p.seeds = []ringEnt{{idx: 0, st: 0, need: 1}}
	p.commits = []ringEnt{{idx: 0, st: 0, need: 1}}
	p.batchA = []cop{add}
	return p
}

// conePlan is a minimal sound accumulator plan whose feedback cone has
// the closed form: x' = wrap(x + e).
func conePlan() *simPlan {
	i32 := cc.IntType{Bits: 32, Signed: true}
	acc := &hir.Var{Name: "acc", Type: i32}
	p := &simPlan{
		rdepth:  1,
		rmask:   0,
		stages:  0,
		opShift: 0,
		nOps:    4,
		latency: 0,
		opStage: []int32{0, 0, 0, 0},
		fbVars:  []*hir.Var{acc},
		fbInit:  []int64{0},
		fbName:  map[string]int32{"acc": 0},
	}
	lpr := mkcop(vm.LPR, 1, 0, i32, cOperand{}, cOperand{})
	lpr.fb = 0
	add := mkcop(vm.ADD, 2, 0, i32, cOperand{base: 1, ring: true}, cOperand{base: 0, ring: true})
	snx := mkcop(vm.SNX, 3, 0, i32, cOperand{base: 2, ring: true}, cOperand{})
	snx.fb = 0
	p.plan = []cop{lpr, add, snx}
	p.inSlots = []inSlot{{base: 0, w: makeWrap(i32)}}
	p.ringNeed = []int32{0, 0, 0, 0}
	p.batchB = []cop{lpr, add, snx}
	return p
}

// assertInvariant requires at least one violation with the given
// invariant slug (and no violations at all for slug "").
func assertInvariant(t *testing.T, vs []Violation, invariant string) {
	t.Helper()
	if invariant == "" {
		if len(vs) != 0 {
			t.Fatalf("want a clean verification, got %d violations, first: %v", len(vs), vs[0])
		}
		return
	}
	for _, v := range vs {
		if v.Invariant == invariant {
			if !strings.Contains(v.String(), invariant+": ") {
				t.Fatalf("violation %v does not render its invariant name", v)
			}
			return
		}
	}
	t.Fatalf("no %q violation in %v", invariant, vs)
}

func TestVerifyPlanCleanBaselines(t *testing.T) {
	assertInvariant(t, verifyPlan(addPlan()), "")
	p := conePlan()
	assertInvariant(t, verifyPlan(p), "")
	if p.coneFor() == nil {
		t.Fatal("cone plan's feedback cone was not recognized in closed form")
	}
}

func TestVerifyPlanBadRingOffset(t *testing.T) {
	p := addPlan()
	p.plan[0].a.off = 5 // outside the 2-deep history ring
	assertInvariant(t, verifyPlan(p), "plan/ring-offset")

	p = addPlan()
	p.plan[0].a.off = 0 // in bounds, but not the stage distance
	assertInvariant(t, verifyPlan(p), "plan/ring-offset")
}

func TestVerifyPlanRingNeedTooShallow(t *testing.T) {
	p := addPlan()
	p.ringNeed[0] = 0 // the ADD reads one cycle back; seeding 0 loses it
	assertInvariant(t, verifyPlan(p), "plan/ring-need")
}

func TestVerifyPlanWorklistDrift(t *testing.T) {
	p := addPlan()
	p.seeds = nil // region 0 has in-flight history nobody would restore
	assertInvariant(t, verifyPlan(p), "plan/worklist")
}

func TestVerifyPlanWrapIncongruence(t *testing.T) {
	p := addPlan()
	p.plan[0].wmode = wrapBoth // fusable wrap pair left unfused
	p.batchA[0].wmode = wrapBoth
	assertInvariant(t, verifyPlan(p), "plan/wrap-congruence")
}

func TestVerifyPlanBatchClassOverlap(t *testing.T) {
	p := addPlan()
	p.batchC = append(p.batchC, p.batchA[0]) // same op in two classes
	assertInvariant(t, verifyPlan(p), "plan/batch-partition")

	p = addPlan()
	p.batchA = nil // and in no class at all
	assertInvariant(t, verifyPlan(p), "plan/batch-partition")
}

func TestVerifyPlanBatchWrongClass(t *testing.T) {
	p := conePlan()
	// Move the accumulate out of the feedback cone: its lane kernel would
	// run it op-major before the lane-serial cone produces its latch reads.
	p.batchC = append(p.batchC, p.batchB[1])
	p.batchB = append(p.batchB[:1], p.batchB[2:]...)
	vs := verifyPlan(p)
	assertInvariant(t, vs, "plan/batch-partition")
}

func TestVerifyPlanBatchHazard(t *testing.T) {
	p := addPlan()
	// Reverse a two-op dependence chain within one class: the reader
	// now runs before its producer's lanes are materialized.
	i32 := cc.IntType{Bits: 32, Signed: true}
	p.nOps = 3
	p.opStage = []int32{0, 1, 1}
	mov := mkcop(vm.MOV, 4, 1, i32, cOperand{base: 2, off: 0, ring: true}, cOperand{})
	p.plan = append(p.plan, mov)
	p.ringNeed = []int32{1, 0, 0}
	p.batchA = []cop{mov, p.plan[0]} // reversed topological order
	assertInvariant(t, verifyPlan(p), "plan/batch-hazard")
}

func TestVerifyPlanLatchSlotOutOfRange(t *testing.T) {
	p := conePlan()
	p.plan[2].fb = 3 // latch index past the allocated state
	p.batchB[2].fb = 3
	assertInvariant(t, verifyPlan(p), "plan/latch-slot")
}

func TestVerifyConeCorruptions(t *testing.T) {
	force := func(mut func(p *simPlan, cs *coneSpec)) []Violation {
		p := conePlan()
		cs := p.coneFor()
		if cs == nil {
			t.Fatal("cone not recognized")
		}
		mut(p, cs)
		return verifyPlan(p)
	}
	// The spec claims subtraction but the plan accumulates by ADD: the
	// prefix pass would fold the recurrence with the wrong sign.
	assertInvariant(t, force(func(p *simPlan, cs *coneSpec) { cs.sub = true }), "plan/cone-grammar")
	// The spec's external addend no longer matches the accumulate's.
	assertInvariant(t, force(func(p *simPlan, cs *coneSpec) { cs.ext = cOperand{imm: 7} }), "plan/cone-grammar")
	// A cone op wrapping narrower than the latch breaks the congruence
	// argument that makes the closed form exact.
	assertInvariant(t, force(func(p *simPlan, cs *coneSpec) {
		nw := makeWrap(cc.IntType{Bits: 8, Signed: true})
		p.batchB[1].tw = nw
		p.plan[1].tw = nw
		cs.rest[0].tw = nw
	}), "plan/cone-grammar")
	// The spec records a different stage than the cone ops occupy: lane
	// indexing would misalign.
	assertInvariant(t, force(func(p *simPlan, cs *coneSpec) { cs.stage = 2 }), "plan/cone-grammar")
}
