package dp

import "roccc/internal/vm"

// lanes.go lowers a simPlan's batch classes into lane kernels: one
// closure per op, compiled once per plan and shared by every Sim over
// it, that RunN runs over chunks of more than batchSerialMax clocks.
// The paper's premise is that the data path for a given C kernel is
// fully static — every op, width, stage and wire is fixed at compile
// time — so nothing about an op needs re-deciding each cycle. Where the
// interpreter loop pays a switch dispatch and descriptor loads per op
// per cycle, a lane kernel has its opcode selected, its operand layout
// (ring×ring, ring×immediate, ...) specialized and its fused wrap baked
// in, and runs once per op per chunk. Each kernel takes the chunk's
// lane stride (stages+n) per call and locates each operand region with
// one multiply per operand per chunk. Step and Drain, and every chunk
// too short to batch, run the interpreter loop (sim.go).
//
// Fault semantics keep the replay contract: a lane kernel returning
// false makes the chunk discard its scratch and replay serially through
// the interpreter step, so abort cycle, typed *FaultError and
// post-abort state are the interpreter's bit-for-bit.

// laneFn is one op of the batch path, operating on the chunk's
// lane scratch: n admitted clocks at lane stride laneN (stages+n).
// false signals a fault on a valid lane.
type laneFn func(lanes []int64, lv []bool, n, laneN int) bool

// threadPlan is a simPlan's lane kernels, cached on the plan.
type threadPlan struct {
	laneA []laneFn
	laneC []laneFn
	// cone/coneFns: the recognized closed-form feedback cone and its
	// materialization ops compiled to lane kernels (nil/absent when the
	// cone is unrecognized — those plans keep the lane-serial batchCone).
	cone    *coneSpec
	coneFns []laneFn
}

// threadFor returns the plan's lane kernels, compiling them on first
// use.
func (p *simPlan) threadFor() *threadPlan {
	p.threadOnce.Do(func() { p.thread = compileThreadPlan(p) })
	return p.thread
}

func compileThreadPlan(p *simPlan) *threadPlan {
	tp := &threadPlan{cone: p.coneFor()}
	tp.laneA = compileLaneFns(p, p.batchA)
	tp.laneC = compileLaneFns(p, p.batchC)
	if tp.cone != nil {
		tp.coneFns = compileLaneFns(p, tp.cone.rest)
	}
	return tp
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

// fusedCopy is the copy-class fused lane kernel: one traversal with the
// single wrap applied.
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
