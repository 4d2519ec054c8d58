package dp

import (
	"fmt"

	"roccc/internal/vm"
)

// backend_threaded.go lowers a simPlan into threaded code: one closure
// per op, compiled once per plan and shared by every Sim over it. The
// paper's premise is that the data path for a given C kernel is fully
// static — every op, width, stage and wire is fixed at compile time —
// so nothing about an op needs re-deciding each cycle. Where the
// interpreter loop pays a switch dispatch and descriptor loads per op
// per cycle, a threaded step function has its opcode selected, its
// operand layout (ring×ring, ring×immediate, ...) specialized, and its
// ring bases, offsets and fused wrap shifts baked in as captured
// constants. The lane kernels do the same for the batch path; they take
// the chunk's lane stride (stages+n) per call and locate each region
// with one multiply per operand per chunk.
//
// Fault semantics keep the replay contract: a step closure returns
// false instead of faulting, stepThreaded restores the pre-step state
// and replays the cycle through the interpreter loop, and a lane kernel
// returning false makes the chunk replay serially — so abort cycle,
// typed *FaultError and post-abort state are the interpreter's
// bit-for-bit.

// stepFn is one op of the threaded serial step. It reads and writes the
// Sim's ring/state directly; false means the op would fault this cycle
// on a valid iteration (the caller replays through the interpreter for
// the canonical error).
type stepFn func(s *Sim) bool

// laneFn is one op of the threaded batch path, operating on the chunk's
// lane scratch: n admitted clocks at lane stride laneN (stages+n).
// false signals a fault on a valid lane.
type laneFn func(lanes []int64, lv []bool, n, laneN int) bool

// threadPlan is a simPlan lowered to threaded code, cached on the plan.
type threadPlan struct {
	stepFns []stepFn
	laneA   []laneFn
	laneC   []laneFn
	// cone/coneFns: the recognized closed-form feedback cone and its
	// materialization ops compiled to lane kernels (nil/absent when the
	// cone is unrecognized — those plans keep the lane-serial batchCone).
	cone    *coneSpec
	coneFns []laneFn
}

// threadFor returns the plan's threaded code, compiling it on first use.
func (p *simPlan) threadFor() *threadPlan {
	p.threadOnce.Do(func() { p.thread = compileThreadPlan(p) })
	return p.thread
}

func compileThreadPlan(p *simPlan) *threadPlan {
	tp := &threadPlan{cone: p.coneFor()}
	tp.stepFns = make([]stepFn, len(p.plan))
	for i := range p.plan {
		tp.stepFns[i] = compileStepFn(&p.plan[i])
	}
	tp.laneA = compileLaneFns(p, p.batchA)
	tp.laneC = compileLaneFns(p, p.batchC)
	if tp.cone != nil {
		tp.coneFns = compileLaneFns(p, tp.cone.rest)
	}
	return tp
}

// stepThreaded is the threaded serial step: the same prologue (ring
// rotation, poison propagation, input wrapping), latch commit and
// output alignment as the interpreter loop, with the op walk dispatched
// through the compiled closure array.
//
//roccc:hotpath
func (s *Sim) stepThreaded(inputs []int64, valid bool) ([]int64, error) {
	if len(inputs) != len(s.p.inSlots) {
		return nil, fmt.Errorf("dp: sim: %d inputs, want %d", len(inputs), len(s.p.inSlots))
	}
	tp := s.p.threadFor()
	prevHead := s.head
	s.head = (s.head - 1) & s.rmask
	head := s.head
	rmask := s.rmask
	ring := s.ring
	s.validRing[s.cycle&rmask] = valid
	stageValid := s.stageValid
	for st := range stageValid {
		it := s.cycle - st
		stageValid[st] = it >= 0 && s.validRing[it&rmask]
	}
	inSlots := s.p.inSlots
	for i := range inSlots {
		sl := &inSlots[i]
		ring[int(sl.base)+head] = sl.w.wrap(inputs[i])
	}
	s.stagedAny = false
	for _, fn := range tp.stepFns {
		if !fn(s) {
			// An op would fault on a valid iteration. Everything written
			// so far is confined to this cycle's ring slots and staged
			// latch values, so restoring the head and dropping the staging
			// rewinds the cycle completely; the interpreter replay then
			// produces the canonical abort (same cycle, same *FaultError,
			// same post-abort state).
			s.head = prevHead
			for i := range s.stagedSet {
				s.stagedSet[i] = false
			}
			return s.stepInterp(inputs, valid)
		}
	}
	if s.stagedAny {
		for i := range s.stagedSet {
			if s.stagedSet[i] {
				s.stagedSet[i] = false
				s.state[i] = s.stagedVal[i]
				s.State[s.p.fbVars[i]] = s.stagedVal[i]
			}
		}
	}
	s.cycle++
	outSlots := s.p.outSlots
	for i := range outSlots {
		o := &outSlots[i]
		s.outBuf[i] = ring[int(o.base)+((head+int(o.delta))&rmask)]
	}
	return s.outBuf, nil
}

// compileStepFn lowers one op into its threaded step closure. The hot
// arithmetic ops (single fused wrap — the common case, since width
// inference only narrows) get operand-layout specializations with bases
// and shifts captured; everything else gets a monomorphic closure per
// opcode that still skips the switch and descriptor loads.
//
//roccc:hotpath-closures
func compileStepFn(c *cop) stepFn {
	op := *c
	slot := int(op.slot)
	st := int(op.stage)
	switch op.opc {
	case vm.LDC, vm.MOV, vm.CVT:
		if op.wmode != wrapBoth && op.a.ring {
			ab, ao, fw := int(op.a.base), int(op.a.off), op.fw
			return func(s *Sim) bool {
				h := s.head
				s.ring[slot+h] = fw.wrap(s.ring[ab+((h+ao)&s.rmask)])
				return true
			}
		}
		a, tw, hw := op.a, op.tw, op.hw
		return func(s *Sim) bool {
			s.ring[slot+s.head] = hw.wrap(tw.wrap(s.fetch(&a)))
			return true
		}
	case vm.ADD, vm.SUB, vm.MUL:
		if op.wmode != wrapBoth {
			return compileArithStep(op, slot)
		}
		a, b, tw, hw := op.a, op.b, op.tw, op.hw
		switch op.opc {
		case vm.ADD:
			return func(s *Sim) bool {
				s.ring[slot+s.head] = hw.wrap(tw.wrap(s.fetch(&a) + s.fetch(&b)))
				return true
			}
		case vm.SUB:
			return func(s *Sim) bool {
				s.ring[slot+s.head] = hw.wrap(tw.wrap(s.fetch(&a) - s.fetch(&b)))
				return true
			}
		default:
			return func(s *Sim) bool {
				s.ring[slot+s.head] = hw.wrap(tw.wrap(s.fetch(&a) * s.fetch(&b)))
				return true
			}
		}
	case vm.DIV:
		a, b, tw, hw := op.a, op.b, op.tw, op.hw
		return func(s *Sim) bool {
			bv := s.fetch(&b)
			if bv == 0 {
				if !s.stageValid[st] {
					s.ring[slot+s.head] = 0 // poisoned lane: fault masked
					return true
				}
				return false
			}
			s.ring[slot+s.head] = hw.wrap(tw.wrap(s.fetch(&a) / bv))
			return true
		}
	case vm.REM:
		a, b, tw, hw := op.a, op.b, op.tw, op.hw
		return func(s *Sim) bool {
			bv := s.fetch(&b)
			if bv == 0 {
				if !s.stageValid[st] {
					s.ring[slot+s.head] = 0
					return true
				}
				return false
			}
			s.ring[slot+s.head] = hw.wrap(tw.wrap(s.fetch(&a) % bv))
			return true
		}
	case vm.AND:
		a, b, tw, hw := op.a, op.b, op.tw, op.hw
		return func(s *Sim) bool {
			s.ring[slot+s.head] = hw.wrap(tw.wrap(s.fetch(&a) & s.fetch(&b)))
			return true
		}
	case vm.IOR:
		a, b, tw, hw := op.a, op.b, op.tw, op.hw
		return func(s *Sim) bool {
			s.ring[slot+s.head] = hw.wrap(tw.wrap(s.fetch(&a) | s.fetch(&b)))
			return true
		}
	case vm.XOR:
		a, b, tw, hw := op.a, op.b, op.tw, op.hw
		return func(s *Sim) bool {
			s.ring[slot+s.head] = hw.wrap(tw.wrap(s.fetch(&a) ^ s.fetch(&b)))
			return true
		}
	case vm.SHL:
		a, b, tw, hw := op.a, op.b, op.tw, op.hw
		return func(s *Sim) bool {
			s.ring[slot+s.head] = hw.wrap(tw.wrap(s.fetch(&a) << uint(s.fetch(&b)&63)))
			return true
		}
	case vm.SHR:
		a, b, tw, hw := op.a, op.b, op.tw, op.hw
		if op.shrLogical {
			mask := op.shrMask
			return func(s *Sim) bool {
				sh := uint(s.fetch(&b) & 63)
				s.ring[slot+s.head] = hw.wrap(tw.wrap(int64((uint64(s.fetch(&a)) & mask) >> sh)))
				return true
			}
		}
		return func(s *Sim) bool {
			s.ring[slot+s.head] = hw.wrap(tw.wrap(s.fetch(&a) >> uint(s.fetch(&b)&63)))
			return true
		}
	case vm.NEG:
		a, tw, hw := op.a, op.tw, op.hw
		return func(s *Sim) bool {
			s.ring[slot+s.head] = hw.wrap(tw.wrap(-s.fetch(&a)))
			return true
		}
	case vm.NOT:
		a, tw, hw := op.a, op.tw, op.hw
		return func(s *Sim) bool {
			s.ring[slot+s.head] = hw.wrap(tw.wrap(^s.fetch(&a)))
			return true
		}
	case vm.SEQ:
		a, b, hw := op.a, op.b, op.hw
		return func(s *Sim) bool {
			s.ring[slot+s.head] = hw.wrap(boolBit(s.fetch(&a) == s.fetch(&b)))
			return true
		}
	case vm.SNE:
		a, b, hw := op.a, op.b, op.hw
		return func(s *Sim) bool {
			s.ring[slot+s.head] = hw.wrap(boolBit(s.fetch(&a) != s.fetch(&b)))
			return true
		}
	case vm.SLT:
		a, b, hw := op.a, op.b, op.hw
		return func(s *Sim) bool {
			s.ring[slot+s.head] = hw.wrap(boolBit(s.fetch(&a) < s.fetch(&b)))
			return true
		}
	case vm.SLE:
		a, b, hw := op.a, op.b, op.hw
		return func(s *Sim) bool {
			s.ring[slot+s.head] = hw.wrap(boolBit(s.fetch(&a) <= s.fetch(&b)))
			return true
		}
	case vm.MUX:
		a, b, c3, tw, hw := op.a, op.b, op.c, op.tw, op.hw
		return func(s *Sim) bool {
			var v int64
			if s.fetch(&a) != 0 {
				v = tw.wrap(s.fetch(&b))
			} else {
				v = tw.wrap(s.fetch(&c3))
			}
			s.ring[slot+s.head] = hw.wrap(v)
			return true
		}
	case vm.LPR:
		fb := int(op.fb)
		return func(s *Sim) bool {
			s.ring[slot+s.head] = s.state[fb]
			return true
		}
	case vm.SNX:
		a, tw, fb := op.a, op.tw, int(op.fb)
		return func(s *Sim) bool {
			if s.stageValid[st] {
				s.stagedVal[fb] = tw.wrap(s.fetch(&a))
				s.stagedSet[fb] = true
				s.stagedAny = true
			}
			return true
		}
	case vm.LUT:
		a, rom := op.a, op.rom
		return func(s *Sim) bool {
			ix := s.fetch(&a)
			if ix < 0 || ix >= int64(rom.Size) {
				if !s.stageValid[st] {
					s.ring[slot+s.head] = 0
					return true
				}
				return false
			}
			s.ring[slot+s.head] = rom.Content[ix]
			return true
		}
	default:
		// Unknown opcode: fail the step so the interpreter replay raises
		// its canonical "unsupported opcode" error.
		return func(s *Sim) bool { return false }
	}
}

// compileArithStep specializes a single-wrap ADD/SUB/MUL per operand
// layout: the ring bases, stage offsets, immediates and the fused wrap
// are captured constants, so the closure body is the bare arithmetic.
//
//roccc:hotpath-closures
func compileArithStep(op cop, slot int) stepFn {
	fw := op.fw
	ab, ao := int(op.a.base), int(op.a.off)
	bb, bo := int(op.b.base), int(op.b.off)
	switch op.opc {
	case vm.ADD:
		switch {
		case op.a.ring && op.b.ring:
			return func(s *Sim) bool {
				h, m, r := s.head, s.rmask, s.ring
				r[slot+h] = fw.wrap(r[ab+((h+ao)&m)] + r[bb+((h+bo)&m)])
				return true
			}
		case op.a.ring:
			imm := op.b.imm
			return func(s *Sim) bool {
				h := s.head
				s.ring[slot+h] = fw.wrap(s.ring[ab+((h+ao)&s.rmask)] + imm)
				return true
			}
		case op.b.ring:
			imm := op.a.imm
			return func(s *Sim) bool {
				h := s.head
				s.ring[slot+h] = fw.wrap(s.ring[bb+((h+bo)&s.rmask)] + imm)
				return true
			}
		default:
			v := fw.wrap(op.a.imm + op.b.imm)
			return func(s *Sim) bool {
				s.ring[slot+s.head] = v
				return true
			}
		}
	case vm.SUB:
		switch {
		case op.a.ring && op.b.ring:
			return func(s *Sim) bool {
				h, m, r := s.head, s.rmask, s.ring
				r[slot+h] = fw.wrap(r[ab+((h+ao)&m)] - r[bb+((h+bo)&m)])
				return true
			}
		case op.a.ring:
			imm := op.b.imm
			return func(s *Sim) bool {
				h := s.head
				s.ring[slot+h] = fw.wrap(s.ring[ab+((h+ao)&s.rmask)] - imm)
				return true
			}
		case op.b.ring:
			imm := op.a.imm
			return func(s *Sim) bool {
				h := s.head
				s.ring[slot+h] = fw.wrap(imm - s.ring[bb+((h+bo)&s.rmask)])
				return true
			}
		default:
			v := fw.wrap(op.a.imm - op.b.imm)
			return func(s *Sim) bool {
				s.ring[slot+s.head] = v
				return true
			}
		}
	default: // vm.MUL
		switch {
		case op.a.ring && op.b.ring:
			return func(s *Sim) bool {
				h, m, r := s.head, s.rmask, s.ring
				r[slot+h] = fw.wrap(r[ab+((h+ao)&m)] * r[bb+((h+bo)&m)])
				return true
			}
		case op.a.ring:
			imm := op.b.imm
			return func(s *Sim) bool {
				h := s.head
				s.ring[slot+h] = fw.wrap(s.ring[ab+((h+ao)&s.rmask)] * imm)
				return true
			}
		case op.b.ring:
			imm := op.a.imm
			return func(s *Sim) bool {
				h := s.head
				s.ring[slot+h] = fw.wrap(s.ring[bb+((h+bo)&s.rmask)] * imm)
				return true
			}
		default:
			v := fw.wrap(op.a.imm * op.b.imm)
			return func(s *Sim) bool {
				s.ring[slot+s.head] = v
				return true
			}
		}
	}
}

// thAcc is a lane-kernel operand: an immediate, or op idx's lane
// region read from the consuming op's first computable lane k0 on.
type thAcc struct {
	idx, k0 int
	imm     int64
	ring    bool
}

// win slices the operand's n-lane window in a chunk of lane stride
// laneN: index i is the consumer's lane k0+i.
func (o thAcc) win(lanes []int64, laneN, n int) []int64 {
	b := o.idx*laneN + o.k0
	return lanes[b : b+n]
}

// bind resolves the operand for one chunk: its lane window, or the
// immediate.
func (o thAcc) bind(lanes []int64, laneN, n int) laneOperand {
	if !o.ring {
		return laneOperand{imm: o.imm}
	}
	return laneOperand{sl: o.win(lanes, laneN, n)}
}

// runLaneFns executes one compiled op class over the chunk.
//
//roccc:hotpath
func runLaneFns(fns []laneFn, lanes []int64, lv []bool, n, laneN int) bool {
	for _, fn := range fns {
		if !fn(lanes, lv, n, laneN) {
			return false
		}
	}
	return true
}

func compileLaneFns(p *simPlan, ops []cop) []laneFn {
	fns := make([]laneFn, len(ops))
	for i := range ops {
		fns[i] = compileLaneFn(p, &ops[i])
	}
	return fns
}

// compileLaneFn lowers one op into its lane kernel: an op-major loop
// over the op's computable lanes [k0, k0+n) — the iterations whose
// stage-st cycle falls inside the chunk; earlier lanes were seeded,
// later ones belong to a later chunk — with the opcode, operand layout
// and wrap mode folded into the loop choice. Each kernel computes the
// raw values, then applies the interp step's wraps in one pass, so it
// is bit-identical to the serial core lane for lane.
//
//roccc:hotpath-closures
func compileLaneFn(p *simPlan, c *cop) laneFn {
	op := *c
	k0 := p.stages - int(op.stage)
	res := func(o cOperand) thAcc {
		if !o.ring {
			return thAcc{imm: o.imm}
		}
		return thAcc{idx: int(o.base) >> p.opShift, k0: k0, ring: true}
	}
	dst := thAcc{idx: int(op.slot) >> p.opShift, k0: k0, ring: true}
	a, b := res(op.a), res(op.b)
	switch op.opc {
	case vm.LDC, vm.MOV, vm.CVT:
		if a.ring {
			if op.wmode != wrapBoth {
				fw := op.fw
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedCopy(dst.win(lanes, laneN, n), a.win(lanes, laneN, n), fw)
					return true
				}
			}
			tw, hw := op.tw, op.hw
			return func(lanes []int64, lv []bool, n, laneN int) bool {
				d, src := dst.win(lanes, laneN, n), a.win(lanes, laneN, n)
				for i := range d {
					d[i] = hw.wrap(tw.wrap(src[i]))
				}
				return true
			}
		}
		v := op.hw.wrap(op.tw.wrap(a.imm))
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			for i := range d {
				d[i] = v
			}
			return true
		}
	case vm.ADD:
		if op.wmode != wrapBoth {
			fw := op.fw
			switch {
			case a.ring && b.ring:
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedAdd(dst.win(lanes, laneN, n), a.win(lanes, laneN, n), b.win(lanes, laneN, n), fw)
					return true
				}
			case a.ring:
				imm := b.imm
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedAddImm(dst.win(lanes, laneN, n), a.win(lanes, laneN, n), imm, fw)
					return true
				}
			case b.ring:
				imm := a.imm
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedAddImm(dst.win(lanes, laneN, n), b.win(lanes, laneN, n), imm, fw)
					return true
				}
			default:
				v := a.imm + b.imm
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedFill(dst.win(lanes, laneN, n), v, fw)
					return true
				}
			}
		}
		tw, hw := op.tw, op.hw
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				d[i] = hw.wrap(tw.wrap(x.at(i) + y.at(i)))
			}
			return true
		}
	case vm.SUB:
		if op.wmode != wrapBoth {
			fw := op.fw
			switch {
			case a.ring && b.ring:
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedSub(dst.win(lanes, laneN, n), a.win(lanes, laneN, n), b.win(lanes, laneN, n), fw)
					return true
				}
			case a.ring:
				imm := b.imm
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedAddImm(dst.win(lanes, laneN, n), a.win(lanes, laneN, n), -imm, fw)
					return true
				}
			case b.ring:
				imm := a.imm
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedSubFrom(dst.win(lanes, laneN, n), imm, b.win(lanes, laneN, n), fw)
					return true
				}
			default:
				v := a.imm - b.imm
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedFill(dst.win(lanes, laneN, n), v, fw)
					return true
				}
			}
		}
		tw, hw := op.tw, op.hw
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				d[i] = hw.wrap(tw.wrap(x.at(i) - y.at(i)))
			}
			return true
		}
	case vm.MUL:
		if op.wmode != wrapBoth {
			fw := op.fw
			switch {
			case a.ring && b.ring:
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedMul(dst.win(lanes, laneN, n), a.win(lanes, laneN, n), b.win(lanes, laneN, n), fw)
					return true
				}
			case a.ring:
				imm := b.imm
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedMulImm(dst.win(lanes, laneN, n), a.win(lanes, laneN, n), imm, fw)
					return true
				}
			case b.ring:
				imm := a.imm
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedMulImm(dst.win(lanes, laneN, n), b.win(lanes, laneN, n), imm, fw)
					return true
				}
			default:
				v := a.imm * b.imm
				return func(lanes []int64, lv []bool, n, laneN int) bool {
					fusedFill(dst.win(lanes, laneN, n), v, fw)
					return true
				}
			}
		}
		tw, hw := op.tw, op.hw
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				d[i] = hw.wrap(tw.wrap(x.at(i) * y.at(i)))
			}
			return true
		}
	case vm.DIV:
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				bv := y.at(i)
				if bv == 0 {
					if lv[k0+i] {
						return false
					}
					d[i] = 0
					continue
				}
				d[i] = x.at(i) / bv
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.REM:
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				bv := y.at(i)
				if bv == 0 {
					if lv[k0+i] {
						return false
					}
					d[i] = 0
					continue
				}
				d[i] = x.at(i) % bv
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.AND:
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				d[i] = x.at(i) & y.at(i)
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.IOR:
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				d[i] = x.at(i) | y.at(i)
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.XOR:
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				d[i] = x.at(i) ^ y.at(i)
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.SHL:
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				d[i] = x.at(i) << uint(y.at(i)&63)
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.SHR:
		if op.shrLogical {
			mask := op.shrMask
			return func(lanes []int64, lv []bool, n, laneN int) bool {
				d := dst.win(lanes, laneN, n)
				x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
				for i := range d {
					d[i] = int64((uint64(x.at(i)) & mask) >> uint(y.at(i)&63))
				}
				wrapLanes(d, &op)
				return true
			}
		}
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				d[i] = x.at(i) >> uint(y.at(i)&63)
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.NEG:
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x := a.bind(lanes, laneN, n)
			for i := range d {
				d[i] = -x.at(i)
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.NOT:
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x := a.bind(lanes, laneN, n)
			for i := range d {
				d[i] = ^x.at(i)
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.SEQ:
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				d[i] = boolBit(x.at(i) == y.at(i))
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.SNE:
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				d[i] = boolBit(x.at(i) != y.at(i))
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.SLT:
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				d[i] = boolBit(x.at(i) < y.at(i))
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.SLE:
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n)
			for i := range d {
				d[i] = boolBit(x.at(i) <= y.at(i))
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.MUX:
		c3 := res(op.c)
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x, y, z := a.bind(lanes, laneN, n), b.bind(lanes, laneN, n), c3.bind(lanes, laneN, n)
			for i := range d {
				if x.at(i) != 0 {
					d[i] = y.at(i)
				} else {
					d[i] = z.at(i)
				}
			}
			wrapLanes(d, &op)
			return true
		}
	case vm.LUT:
		rom := op.rom
		return func(lanes []int64, lv []bool, n, laneN int) bool {
			d := dst.win(lanes, laneN, n)
			x := a.bind(lanes, laneN, n)
			for i := range d {
				ix := x.at(i)
				if ix < 0 || ix >= int64(rom.Size) {
					if lv[k0+i] {
						return false
					}
					d[i] = 0
					continue
				}
				d[i] = rom.Content[ix]
			}
			wrapLanes(d, &op)
			return true
		}
	default:
		// LPR/SNX live in the cone; anything else fails the chunk so the
		// serial replay produces the proper error.
		return func(lanes []int64, lv []bool, n, laneN int) bool { return false }
	}
}

// fusedCopy is the copy-class fused lane kernel (one traversal with the
// single wrap applied), the batch counterpart of the specialized MOV
// step closure.
func fusedCopy(d, a []int64, w wrapSpec) {
	switch {
	case w.sh == 0:
		copy(d, a)
	case w.signed:
		for i := range d {
			d[i] = a[i] << w.sh >> w.sh
		}
	default:
		for i := range d {
			d[i] = int64(uint64(a[i]) << w.sh >> w.sh)
		}
	}
}
