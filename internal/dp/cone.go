package dp

import "roccc/internal/vm"

// cone.go vectorizes the feedback cone for the batch path (RunN). The
// batch path's one serialization point is simPlan.batchB: iteration k's
// latch read (LPR) depends on iteration k-1's latch write (SNX), so
// batchCone walks the cone lane by lane, dragging the whole op list
// through every lane. Most accumulator kernels, though, have a cone of
// one exact shape —
//
//	x' = wrap(x ± e)            (optionally gated by an external condition)
//
// an ADD/SUB of the latch with a value from outside the cone, passed to
// the SNX through width-only copies and at most one MUX whose other arm
// re-selects the latch. For that shape the recurrence has a closed
// form: truncating wraps of width >= the latch width ws are congruences
// mod 2^ws, so
//
//	x_k = wrap_ws(x_0 + sum of the e's the selector admitted)
//
// and the loop-carried dependence collapses to one integer add per lane
// on a raw (unwrapped) accumulator — a prefix sum. runCone materializes
// the latch value per lane in that single pass; every other cone op
// then runs op-major through its lane kernel exactly like batchA/batchC,
// restoring the fused lane kernels mul_acc's accumulate was locked out
// of.
//
// Bit-identity with batchCone (and so with the serial core) holds for
// any latch value, including an out-of-range initial state: until the
// first valid lane commits, the latch is passed through unwrapped,
// exactly as LPR reads it.

// coneSpec is a recognized closed-form feedback cone. It is compiled
// once per plan (simPlan.coneFor) and shared by every Sim; the op
// copies inside rest keep plan (topological) order so the op-major
// materialization pass lowers them like any other op class.
type coneSpec struct {
	fb    int32    // the cone's single feedback latch
	stage int32    // shared pipeline stage of every cone op
	snxTw wrapSpec // the latch width ws: the SNX's semantic wrap
	sub   bool     // the accumulate op is SUB (x - e)
	// ext is the accumulate op's external operand e: an immediate or a
	// lane region outside the cone (batchA or an input/seeded region,
	// already materialized when the cone runs).
	ext cOperand
	// cond is the MUX select when hasMux — external, like ext. The add
	// arm is taken when (cond != 0) == selAddOnTrue; the other arm
	// re-selects the latch, so the lane commits x unchanged.
	cond         cOperand
	hasMux       bool
	selAddOnTrue bool
	lprs         []int32 // lane-region indices of the cone's LPR ops
	rest         []cop   // non-latch cone ops, for op-major materialization
}

// coneFor returns the plan's recognized closed-form cone, or nil when
// the feedback cone (if any) does not match the closed form and must
// keep the lane-serial batchCone path.
func (p *simPlan) coneFor() *coneSpec {
	p.coneOnce.Do(func() { p.cone = recognizeCone(p) })
	return p.cone
}

// HasClosedFormCone reports whether the plan's feedback cone (if any)
// was recognized in closed form, i.e. whether RunN vectorizes this
// kernel's accumulate instead of serializing lanes. Exposed for the
// metrics plane and the differential tests.
func (s *Sim) HasClosedFormCone() bool { return s.p.coneFor() != nil }

// Operand provenance tags for the recognizer's single forward walk.
const (
	tagX   uint8 = 1 << iota // derives from the latch through copies only
	tagAdd                   // has passed through the accumulate op
)

// recognizeCone matches simPlan.batchB against the closed-form grammar:
// one latch (>= 1 LPR, exactly one SNX), exactly one ADD/SUB of the
// latch with an external operand, width-only copies (MOV/CVT/LDC), at
// most one MUX selecting between the add chain and the latch on an
// external condition, everything in one pipeline stage, and every
// intermediate wrap at least as wide as the latch (so the wraps are
// congruences mod 2^ws and the prefix form is exact). Anything else —
// multi-latch cones, cross-latch reads, faulting ops, narrowing
// intermediates — returns nil and keeps the lane-serial path.
func recognizeCone(p *simPlan) *coneSpec {
	b := p.batchB
	if len(b) == 0 {
		return nil
	}
	idxOf := func(slot int32) int32 { return slot >> p.opShift }
	member := make(map[int32]bool, len(b))
	for i := range b {
		member[idxOf(b[i].slot)] = true
	}
	// tags classifies cone ops already walked; an operand reference is
	// internal when it reads a cone region (topological order guarantees
	// the def was walked first — an untagged member resolves to tag 0,
	// which every consumer check rejects).
	tags := make(map[int32]uint8, len(b))
	internal := func(o *cOperand) (uint8, bool) {
		if !o.ring || !member[idxOf(o.base)] {
			return 0, false
		}
		return tags[idxOf(o.base)], true
	}
	external := func(o *cOperand) bool {
		return !o.ring || !member[idxOf(o.base)]
	}
	cs := &coneSpec{fb: -1, stage: -1}
	var snx, acc *cop
	for i := range b {
		c := &b[i]
		if cs.stage < 0 {
			cs.stage = c.stage
		} else if c.stage != cs.stage {
			return nil // multi-stage cone: lane indexing is no longer uniform
		}
		idx := idxOf(c.slot)
		switch c.opc {
		case vm.LPR:
			if cs.fb >= 0 && cs.fb != c.fb {
				return nil // two latches feeding one cone
			}
			cs.fb = c.fb
			cs.lprs = append(cs.lprs, idx)
			tags[idx] = tagX
			continue
		case vm.SNX:
			if snx != nil || (cs.fb >= 0 && cs.fb != c.fb) {
				return nil
			}
			cs.fb = c.fb
			if t, ok := internal(&c.a); !ok || t&tagAdd == 0 {
				return nil // the staged value must come through the add
			}
			snx = c
			cs.snxTw = c.tw
			continue
		case vm.ADD, vm.SUB:
			if acc != nil {
				return nil // a second adder breaks x' = wrap(x +- e)
			}
			ta, aInt := internal(&c.a)
			tb, bInt := internal(&c.b)
			switch {
			case aInt && ta == tagX && !bInt:
				cs.ext = c.b
			case bInt && tb == tagX && !aInt && c.opc == vm.ADD:
				cs.ext = c.a
			default:
				return nil
			}
			cs.sub = c.opc == vm.SUB
			acc = c
			tags[idx] = tagX | tagAdd
		case vm.LDC, vm.MOV, vm.CVT:
			t, ok := internal(&c.a)
			if !ok {
				return nil // an external copy cannot be latch-reachable
			}
			tags[idx] = t
		case vm.MUX:
			if cs.hasMux || !external(&c.a) {
				return nil
			}
			tb, bInt := internal(&c.b)
			tc, cInt := internal(&c.c)
			switch {
			case bInt && cInt && tb&tagAdd != 0 && tc == tagX:
				cs.selAddOnTrue = true
			case bInt && cInt && tc&tagAdd != 0 && tb == tagX:
				cs.selAddOnTrue = false
			default:
				return nil
			}
			cs.hasMux = true
			cs.cond = c.a
			tags[idx] = tagX | tagAdd
		default:
			return nil // faulting or exotic op inside the cone
		}
		cs.rest = append(cs.rest, *c)
	}
	if snx == nil || acc == nil || len(cs.lprs) == 0 {
		return nil
	}
	// The congruence argument needs every intermediate wrap at least as
	// wide as the latch: wrap_w(y) = y (mod 2^ws) for w >= ws, whatever
	// the signedness, so interleaved wraps and adds commute under the
	// final wrap_ws.
	for i := range cs.rest {
		c := &cs.rest[i]
		if c.tw.sh > cs.snxTw.sh || c.hw.sh > cs.snxTw.sh {
			return nil
		}
	}
	return cs
}

// runCone executes a recognized cone over one chunk, bit-identically to
// batchCone: the prefix pass materializes the latch value per lane into
// the LPR regions and folds the recurrence into a raw accumulator; the
// remaining cone ops then run op-major through their lane kernels fns
// (they cannot fault, so the returned error is always nil in practice).
// The final latch value lands in batchState, which commitChunk copies
// out exactly as for the lane-serial cone.
//
//roccc:hotpath
func (s *Sim) runCone(cs *coneSpec, n int, lanes []int64, lv []bool, laneN int, fns []laneFn) error {
	p := s.p
	st := s.batchState[:len(s.state)]
	copy(st, s.state)
	k0 := p.stages - int(cs.stage)
	k1 := k0 + n
	c := laneCtx{lanes: lanes, laneN: laneN, sh: p.opShift}
	ext := c.operand(&cs.ext)
	var cond laneOperand
	if cs.hasMux {
		cond = c.operand(&cs.cond)
	}
	tw := cs.snxTw
	lpr0 := lanes[int(cs.lprs[0])*laneN : (int(cs.lprs[0])+1)*laneN]
	acc := st[cs.fb]
	// touched tracks whether any valid lane has committed yet: until
	// then the latch holds its (possibly unwrapped) pre-chunk value and
	// must be passed through raw, exactly as LPR reads it.
	touched := false
	for k := k0; k < k1; k++ {
		x := acc
		if touched {
			x = tw.wrap(acc)
		}
		lpr0[k] = x
		if !lv[k] {
			continue // bubbles never commit the latch
		}
		touched = true
		if cs.hasMux && (cond.at(k) != 0) != cs.selAddOnTrue {
			continue // the MUX re-selected the latch: x' = wrap(x)
		}
		if cs.sub {
			acc -= ext.at(k)
		} else {
			acc += ext.at(k)
		}
	}
	for _, li := range cs.lprs[1:] {
		base := int(li) * laneN
		copy(lanes[base+k0:base+k1], lpr0[k0:k1])
	}
	if touched {
		st[cs.fb] = tw.wrap(acc)
	} else {
		st[cs.fb] = acc
	}
	if !runLaneFns(fns, lanes, lv, n, laneN) {
		return errBatchFault
	}
	return nil
}
