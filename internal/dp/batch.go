package dp

import (
	"errors"
	"fmt"
)

// batch.go is the data path's one batch execution path, RunN. Step
// dispatches the whole plan once per clock; for sweep-style workloads
// (thousands of iterations through one data path) that per-cycle
// dispatch dominates. RunN instead executes its clocks over a
// structure-of-arrays lane layout: one flat region of lane values per
// op, one valid/poison bit per lane, and one lane-kernel call per op per
// chunk instead of per op per cycle. A batch is a run of fed clocks
// followed by bubbles: RunN feeds n iterations and flushes the pipeline
// behind them in the same chunks. The serial Step/Drain loop is its
// reference.
//
// The I/O blocks are port-major, as the lane scratch is: an
// n-iteration block holds one column of n values per port, so
// inputs[i*n+r] is input port i of iteration r and the returned block
// holds output port o of iteration r at out[o*n+r]. A chunk moves each
// port's column into or out of its op's lane region with one contiguous
// copy; only the serial step, which takes one row of every port per
// clock, gathers rows from the columns (serialChunk).
//
// Correctness carve-outs, both pinned by differential tests against the
// serial Step/Drain loop:
//
//   - Feedback latches carry a loop-carried dependence (iteration i's
//     LPR reads what iteration i-1's SNX committed). A chunk runs
//     op-major only when the plan's feedback cone (simPlan.batchB) is
//     empty or has the closed form (cone.go), whose prefix pass runs
//     between the ops before the cone (batchA) and after it (batchC).
//     A plan whose cone has no closed form runs every chunk on the
//     serial step.
//   - Faults must abort on the same cycle with the same state as the
//     serial core. The batch computes into scratch lanes without
//     touching the ring, so on the first detected fault the scratch is
//     discarded and the chunk replays through the serial interpreter step —
//     the abort cycle, error and post-abort state are Step's exactly.

// batchChunkMax bounds the lane scratch: a batch of millions of clocks
// runs as a sequence of chunks, and a chunk of n clocks uses
// nOps × (stages + n) values. A tail of batchSerialMax clocks or fewer
// rides with the chunk before it instead of running serially, so the
// scratch never exceeds nOps × (stages + batchChunkMax + batchSerialMax).
const batchChunkMax = 256

// batchSerialMax is the largest chunk still run through the serial core:
// below it the op-major pass spends more time seeding in-flight lanes
// than it saves on dispatch.
const batchSerialMax = 2

// errBatchFault signals (internally) that a valid lane hit a faulting
// op; the chunk is replayed serially to reproduce the exact abort.
var errBatchFault = errors.New("dp: sim: batch lane fault")

// RunN feeds n iterations from a port-major block (inputs[i*n+j] is
// input port i of iteration j, InWidth() columns in all), then flushes
// the pipeline for Latency() clocks in the same batch, so the last
// iterations' outputs leave with the call. It is bit-identical to n
// Steps followed by Latency() Drains, including the cycle and the error
// of a fault: every cycle before the faulting one has committed, and
// the error is Step's. It advances Cycle() by n+Latency(). The returned
// block is aligned by iteration: out[o*n+j] is output port o of
// iteration j (the outputs of iterations fed before the call are not
// returned). Like Step's slice, the block is reused between calls —
// copy it to retain values.
//
//roccc:hotpath
func (s *Sim) RunN(inputs []int64, n int) ([]int64, error) {
	if n < 0 {
		return nil, fmt.Errorf("dp: sim: RunN with negative count %d", n)
	}
	if inW := len(s.p.inSlots); len(inputs) != n*inW {
		return nil, fmt.Errorf("dp: sim: RunN: %d input values, want %d (%d iterations × %d ports)",
			len(inputs), n*inW, n, inW)
	}
	outW := len(s.p.outSlots)
	if cap(s.batchOut) < n*outW {
		s.batchOut = make([]int64, n*outW)
	}
	b := ioBlock{in: inputs, fed: n, out: s.batchOut[:n*outW], skip: s.p.latency}
	clocks := n + s.p.latency
	for off := 0; off < clocks; {
		c := min(clocks-off, batchChunkMax)
		if rest := clocks - off - c; rest <= batchSerialMax {
			// A short tail, such as the flush after a full chunk, rides
			// with this chunk instead of dropping to the serial step.
			c += rest
		}
		if err := s.batchChunk(&b, off, c); err != nil {
			return nil, err
		}
		off += c
	}
	return b.out, nil
}

// RunBatch is Run on the batch path, bit-identical to Run over the same
// vectors, including the cycle a fault aborts on: it transposes the rows
// into RunN's port-major block, runs it, and transposes the returned
// columns back into one output row per iteration, aligned with the
// inputs.
func (s *Sim) RunBatch(iters [][]int64) ([][]int64, error) {
	if len(iters) == 0 {
		return nil, nil
	}
	inW := len(s.p.inSlots)
	n := len(iters)
	if cap(s.batchIn) < n*inW {
		s.batchIn = make([]int64, n*inW)
	}
	flat := s.batchIn[:n*inW]
	for r, row := range iters {
		if len(row) != inW {
			return nil, fmt.Errorf("dp: sim: RunBatch: iteration %d has %d inputs, want %d", r, len(row), inW)
		}
		for i, v := range row {
			flat[i*n+r] = v
		}
	}
	cols, err := s.RunN(flat, n)
	if err != nil {
		return nil, err
	}
	outW := len(s.p.outSlots)
	outs := make([][]int64, n)
	backing := make([]int64, n*outW)
	for j := range outs {
		row := backing[j*outW : (j+1)*outW]
		for o := range row {
			row[o] = cols[o*n+j]
		}
		outs[j] = row
	}
	return outs, nil
}

// ioBlock is the port-major I/O of one RunN batch. Clocks [0, fed)
// each feed one iteration from in, whose columns hold fed values
// (in[i*fed+c] is input port i on clock c); the clocks after them are
// the flush's bubbles. Clock c's outputs land at out[o*fed+c-skip]: the
// first skip clocks, whose outputs belong to iterations fed before the
// batch, are not returned.
type ioBlock struct {
	in        []int64
	out       []int64
	fed, skip int
}

// serialChunk runs clocks [off, off+n) of a batch through the
// interpreter step (tiny chunks, plans whose feedback cone has no
// closed form, and fault replays): each fed clock's input row is
// gathered from the columns into the Sim's row buffer, a bubble steps
// the zero row, and step's output row is scattered back into the
// output columns.
//
//roccc:hotpath
//roccc:serial-replay
func (s *Sim) serialChunk(b *ioBlock, off, n int) error {
	for c := off; c < off+n; c++ {
		row, valid := s.zeroBuf, c < b.fed
		if valid {
			row = s.rowBuf
			for i := range row {
				row[i] = b.in[i*b.fed+c]
			}
		}
		o, err := s.step(row, valid)
		if err != nil {
			return err
		}
		if c >= b.skip {
			for j, v := range o {
				b.out[j*b.fed+c-b.skip] = v
			}
		}
	}
	return nil
}

// batchChunk executes clocks [off, off+n) of a batch on the lane
// layout, committing ring, valid ring, feedback state, cycle count and
// outputs only after the whole chunk has computed fault-free.
//
//roccc:hotpath
func (s *Sim) batchChunk(b *ioBlock, off, n int) error {
	p := s.p
	tp := p.threadFor()
	if tp == nil || n <= batchSerialMax {
		return s.serialChunk(b, off, n)
	}
	// The chunk's leading fed clocks; the rest of its lanes are bubbles.
	valid := min(max(b.fed-off, 0), n)
	// The lane stride: each op's region holds the stages in-flight
	// iterations, then this chunk's n admissions. Every lane kernel takes
	// it per call, so short chunks touch and keep only the scratch they
	// need.
	laneN := p.stages + n
	if need := p.nOps * laneN; cap(s.laneVals) < need {
		s.laneVals = make([]int64, need)
	}
	lanes := s.laneVals[:p.nOps*laneN]
	if cap(s.laneValid) < laneN {
		s.laneValid = make([]bool, laneN)
	}
	lv := s.laneValid[:laneN]
	if err := s.batchCompute(b, off, n, valid, lanes, lv, laneN, tp); err != nil {
		// A valid lane hit a faulting op. Nothing has been committed:
		// replay the chunk serially so the abort cycle, error and state
		// match Step exactly.
		return s.serialChunk(b, off, n)
	}
	s.commitChunk(b, off, n, valid, lanes, laneN, tp.cone)
	return nil
}

// batchCompute fills the lane scratch of clocks [off, off+n), the first
// `valid` of them fed: validity, in-flight seeds from the ring, the
// chunk's input columns, then the plan's lane kernels, with the
// closed-form cone's prefix pass between laneA and laneC.
//
//roccc:hotpath
//roccc:chunk-compute
func (s *Sim) batchCompute(b *ioBlock, off, n, valid int, lanes []int64, lv []bool, laneN int, tp *threadPlan) error {
	p := s.p
	stages := p.stages
	cycle0 := s.cycle
	it0 := cycle0 - stages
	h0 := s.head
	rmask := s.rmask
	ring := s.ring

	// Lane k holds iteration it0+k: the first `stages` lanes are the
	// iterations (or bubbles) already in flight, the rest are this
	// chunk's admissions, fed then bubbles.
	for k := 0; k < stages; k++ {
		it := it0 + k
		lv[k] = it >= 0 && s.validRing[it&rmask]
	}
	for k := stages; k < stages+n; k++ {
		lv[k] = k-stages < valid
	}

	// Seed each op's in-flight prefix from the ring: the value op
	// computed for iteration it0+k was written at cycle it0+k+stage,
	// which the ring still holds (rdepth > stages). Only the prefix tail
	// anything can read is seeded — a consumer at stage delta d reads
	// lanes [stages-st-d, stages-st) of the def's region, so lanes below
	// stages-st-ringNeed are never touched (the seeds worklist skips
	// whole regions nobody reads).
	for i := range p.seeds {
		e := &p.seeds[i]
		st := int(e.st)
		pre := stages - st
		k0 := pre - int(e.need)
		if k0 < 0 {
			k0 = 0
		}
		base := int(e.idx) << p.opShift
		lbase := int(e.idx) * laneN
		for k := k0; k < pre; k++ {
			lanes[lbase+k] = ring[base+((h0+stages-1-st-k)&rmask)]
		}
	}

	// The input pseudo-ops' lanes take the chunk's slice of each input
	// column, and zeros on bubble lanes. The wrap branch is hoisted out
	// of the value loop: most ports narrow (one shift pair per value),
	// 64-bit ports copy straight through.
	for i := range p.inSlots {
		sl := &p.inSlots[i]
		idx := int(sl.base) >> p.opShift
		lbase := idx*laneN + stages - int(p.opStage[idx])
		clear(lanes[lbase+valid : lbase+n])
		if valid == 0 {
			continue
		}
		dst := lanes[lbase : lbase+valid]
		src := b.in[i*b.fed+off : i*b.fed+off+valid]
		switch sh := sl.w.sh; {
		case sh == 0:
			copy(dst, src)
		case sl.w.signed:
			for r, v := range src {
				dst[r] = v << sh >> sh
			}
		default:
			for r, v := range src {
				dst[r] = int64(uint64(v) << sh >> sh)
			}
		}
	}

	if !runLaneFns(tp.laneA, lanes, lv, n, laneN) {
		return errBatchFault
	}
	if tp.cone != nil {
		s.runCone(tp.cone, n, lanes, lv, laneN)
	}
	if !runLaneFns(tp.laneC, lanes, lv, n, laneN) {
		return errBatchFault
	}
	return nil
}

// laneOperand is an operand resolved once per op for the op-major pass:
// either the defining op's whole lane region or an immediate, so the
// per-lane inner loops index a hoisted slice instead of multiplying the
// region base out on every access.
type laneOperand struct {
	sl  []int64
	imm int64
}

func (o laneOperand) at(k int) int64 {
	if o.sl == nil {
		return o.imm
	}
	return o.sl[k]
}

// The fused lane helpers compute the dominant arithmetic ops with the
// op's single wrap applied in the same pass — one traversal instead of
// a raw pass plus wrapLanes — for the ring×ring and ring×immediate
// operand layouts. A zero-shift wrap spec (64-bit result, wrapNone) is
// the raw loop. The loop bodies live in functions so each stays tight
// and bounds-check-eliminated; the call overhead is per chunk, not per
// lane.

func fusedAdd(d, a, b []int64, w wrapSpec) {
	switch {
	case w.sh == 0:
		for k := range d {
			d[k] = a[k] + b[k]
		}
	case w.signed:
		for k := range d {
			d[k] = (a[k] + b[k]) << w.sh >> w.sh
		}
	default:
		for k := range d {
			d[k] = int64(uint64(a[k]+b[k]) << w.sh >> w.sh)
		}
	}
}

func fusedAddImm(d, a []int64, imm int64, w wrapSpec) {
	switch {
	case w.sh == 0:
		for k := range d {
			d[k] = a[k] + imm
		}
	case w.signed:
		for k := range d {
			d[k] = (a[k] + imm) << w.sh >> w.sh
		}
	default:
		for k := range d {
			d[k] = int64(uint64(a[k]+imm) << w.sh >> w.sh)
		}
	}
}

func fusedSub(d, a, b []int64, w wrapSpec) {
	switch {
	case w.sh == 0:
		for k := range d {
			d[k] = a[k] - b[k]
		}
	case w.signed:
		for k := range d {
			d[k] = (a[k] - b[k]) << w.sh >> w.sh
		}
	default:
		for k := range d {
			d[k] = int64(uint64(a[k]-b[k]) << w.sh >> w.sh)
		}
	}
}

func fusedSubFrom(d []int64, imm int64, b []int64, w wrapSpec) {
	switch {
	case w.sh == 0:
		for k := range d {
			d[k] = imm - b[k]
		}
	case w.signed:
		for k := range d {
			d[k] = (imm - b[k]) << w.sh >> w.sh
		}
	default:
		for k := range d {
			d[k] = int64(uint64(imm-b[k]) << w.sh >> w.sh)
		}
	}
}

func fusedMul(d, a, b []int64, w wrapSpec) {
	switch {
	case w.sh == 0:
		for k := range d {
			d[k] = a[k] * b[k]
		}
	case w.signed:
		for k := range d {
			d[k] = (a[k] * b[k]) << w.sh >> w.sh
		}
	default:
		for k := range d {
			d[k] = int64(uint64(a[k]*b[k]) << w.sh >> w.sh)
		}
	}
}

func fusedMulImm(d, a []int64, imm int64, w wrapSpec) {
	switch {
	case w.sh == 0:
		for k := range d {
			d[k] = a[k] * imm
		}
	case w.signed:
		for k := range d {
			d[k] = (a[k] * imm) << w.sh >> w.sh
		}
	default:
		for k := range d {
			d[k] = int64(uint64(a[k]*imm) << w.sh >> w.sh)
		}
	}
}

func fusedFill(d []int64, v int64, w wrapSpec) {
	v = w.wrap(v)
	for k := range d {
		d[k] = v
	}
}

// wrapLanes applies an op's precompiled wrap mode to its computed lane
// range in one branch-free-per-op pass: nothing, one fused wrap, or the
// full semantic-then-hardware pair (bit-identical to step's
// op.hw.wrap(op.tw.wrap(v)) in every mode — a zero raw value, as a
// poisoned divide leaves behind, wraps to zero in all of them).
//
//roccc:hotpath
func wrapLanes(d []int64, op *cop) {
	switch op.wmode {
	case wrapNone:
	case wrapSingle:
		sh := op.fw.sh
		if op.fw.signed {
			for i := range d {
				d[i] = d[i] << sh >> sh
			}
		} else {
			for i := range d {
				d[i] = int64(uint64(d[i]) << sh >> sh)
			}
		}
	default:
		tw, hw := op.tw, op.hw
		for i := range d {
			d[i] = hw.wrap(tw.wrap(d[i]))
		}
	}
}

// commitChunk applies a fault-free chunk of clocks [off, off+n), the
// first `valid` of them fed, to the simulator state: ring history (the
// last rdepth cycles of every op and input), valid ring, the closed-form
// cone's latch (cs, nil without a cone), cycle count, head, and the
// chunk's returned clocks of every output column.
//
//roccc:hotpath
func (s *Sim) commitChunk(b *ioBlock, off, n, valid int, lanes []int64, laneN int, cs *coneSpec) {
	p := s.p
	stages := p.stages
	cycle0 := s.cycle
	rmask := s.rmask
	ring := s.ring
	hNew := (s.head - n) & rmask
	// Cycle cycle0+r lands at ring position (hNew + n-1-r) & rmask; the
	// iteration an op serves at that cycle is lane stages-stage+r. Only
	// the last ringNeed cycles of each region in the commit worklist are
	// written — every future read (serial operand fetch, output
	// alignment, the next chunk's seeding) stays within that depth of
	// the head, so deeper slots can hold stale values without ever being
	// observed.
	for i := range p.commits {
		e := &p.commits[i]
		fi := n - int(e.need)
		if fi < 0 {
			fi = 0
		}
		base := int(e.idx) << p.opShift
		lbase := int(e.idx)*laneN + stages - int(e.st)
		for r := fi; r < n; r++ {
			ring[base+((hNew+n-1-r)&rmask)] = lanes[lbase+r]
		}
	}
	vfirst := 0
	if n > p.rdepth {
		vfirst = n - p.rdepth
	}
	for r := vfirst; r < n; r++ {
		s.validRing[(cycle0+r)&rmask] = r < valid
	}
	if cs != nil {
		s.state[cs.fb] = s.coneNext
	}
	// Output clock r belongs to the iteration admitted latency cycles
	// before cycle cycle0+r — lane stages-latency+r — so each port's
	// returned clocks are one contiguous run of its op's lanes.
	if r0 := max(b.skip-off, 0); r0 < n {
		for i := range p.outSlots {
			o := &p.outSlots[i]
			lbase := (int(o.base)>>p.opShift)*laneN + stages - p.latency
			col := i*b.fed + off - b.skip
			copy(b.out[col+r0:col+n], lanes[lbase+r0:lbase+n])
		}
	}
	s.head = hNew
	s.cycle = cycle0 + n
}
