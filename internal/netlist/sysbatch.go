package netlist

import "fmt"

// sysbatch.go is the streak-batched dispatch path of System.Run. The
// serial loop in system.go interleaves the memory stage, smart-buffer
// windowing and the pipelined data path one clock at a time, paying one
// Step dispatch per cycle. Most of a healthy run, though, is a streak:
// a run of consecutive cycles in which every read port is WindowReady
// and the controller feeds one iteration per clock. A streak's
// data-path work is exactly what dp.Sim.StepN batches, so Run detects
// streaks up front and hands each one to StepN in a single dispatch:
//
//  1. the predictor (feedStreak, built on smartbuf.FeedStreak) proves
//     that the next k cycles all feed — an O(1) query per read port,
//     not a scan over cycles;
//  2. the executor (runStreak) replays the serial loop's memory stage
//     and window pops cycle by cycle — bit-identically, so BRAM fetch
//     pacing, backpressure and the fetch-once property are untouched —
//     but materializes the k input vectors into one flat staging region
//     instead of stepping the simulator each cycle;
//  3. one StepN call executes all k clocks; the harvest stage then
//     replays from StepN's flat output block using the same lat-delayed
//     fed-ring logic as the serial loop;
//  4. when the streak exhausts the iteration space, the pipeline flush
//     runs as one latency-long stall (runStall): one DrainN call
//     instead of lat Drain cycles.
//
// Faults keep the chunk-with-serial-replay contract end to end: StepN
// and DrainN detect a fault in batch scratch, discard it, and replay
// the chunk through the serial core, so the abort cycle, the
// *dp.FaultError and the post-abort simulator state are Step's exactly;
// runStreak then stops the system clock on that same cycle. Stall and
// fill cycles — anything the predictor cannot prove — fall back to the
// serial per-cycle path, which shares every stage helper with this one.

const (
	// sysChunkMax bounds one streak chunk, and with it the input staging
	// region (sysChunkMax rows of len(Datapath.Inputs) values). StepN
	// chunks its own lane scratch internally, so larger streaks gain
	// little beyond amortizing the per-chunk bookkeeping here.
	sysChunkMax = 256
	// sysBatchMin is the shortest streak worth dispatching through
	// StepN: below it the serial path's per-cycle dispatch is cheaper
	// than staging rows (StepN itself falls back to the serial core for
	// tiny chunks anyway).
	sysBatchMin = 4
)

// stallStreak is the bubble-streak predictor: when at least one read
// port's window is not ready, it returns the exact number of
// consecutive cycles the system stalls (pipeline bubbles) before every
// port is ready again — the max over the ports' O(1) fill counts, since
// ports fill independently and feeding resumes only when all are ready.
// Zero when nothing is stalled (all ready, or the run is draining).
func (s *System) stallStreak() int {
	m := 0
	for _, buf := range s.buffers {
		if st := buf.StallStreak(); st > m {
			m = st
		}
	}
	return m
}

// feedStreak is the streak predictor: the number of consecutive cycles,
// starting with the current one (whose memory stage has already run),
// for which every read port is provably WindowReady and the controller
// has iterations left to feed — so every one of them is a feed cycle in
// the serial schedule. The bound is a safe underestimate: a shorter
// streak only splits the batch, it never diverges from the serial
// cycle-for-cycle behavior. Kernels with no read arrays (pure
// scalar/feedback nests like mul_acc) are limited by the iteration
// space alone.
func (s *System) feedStreak() int {
	k := s.plan.total - s.ctl.Fed()
	if k > sysChunkMax {
		k = sysChunkMax
	}
	if k < sysBatchMin {
		return 0
	}
	for _, buf := range s.buffers {
		if k = buf.FeedStreak(k); k == 0 {
			return 0
		}
	}
	return k
}

// runStreak executes k guaranteed feed cycles in one StepN dispatch,
// returning the updated harvest count. The per-cycle memory stage and
// window pops replay serially (cycle 0's memory stage already ran —
// the predictor needed it); only the data-path stepping is batched.
func (s *System) runStreak(k, harvested int) (int, error) {
	p := s.plan
	lat := p.latency
	c0 := s.cycles
	inW := len(s.inputs)
	stage := s.stage[:k*inW]
	// Snapshot the pre-chunk fed bits the first min(lat,k) harvests will
	// read: the chunk's own fedRing writes may wrap over them before the
	// harvest replay runs. In-chunk exits need no snapshot — every chunk
	// cycle fed, and fedRing wraparound only ever overwrites true with
	// true inside a chunk.
	npre := min(lat, k)
	for i := 0; i < npre; i++ {
		e := c0 + i - lat
		s.fedPre[i] = e >= 0 && s.fedRing[e&s.fedMask]
	}
	// One FSM transition admits the whole streak — exactly k Tick(true)
	// calls that all feed (the predictor capped k at the remaining
	// iteration count).
	if !s.ctl.TickFeedN(k) {
		return harvested, fmt.Errorf("netlist: internal: controller refused predicted %d-cycle streak at cycle %d", k, c0)
	}
	for i := 0; i < k; i++ {
		if i > 0 {
			if err := s.memoryStage(); err != nil {
				s.cycles = c0 + i
				return harvested, err
			}
		}
		row := stage[i*inW : (i+1)*inW]
		if p.needClear {
			clear(row)
		}
		if err := s.fillInputs(row); err != nil {
			// PopWindowInto validates readiness, so an overestimating
			// predictor fails loudly here instead of diverging silently.
			s.cycles = c0 + i
			return harvested, fmt.Errorf("netlist: internal: streak predictor overran window readiness at cycle %d: %w", c0+i, err)
		}
	}
	// Mark the whole streak fed: k consecutive true entries, which is
	// the entire ring once k wraps it.
	if k > s.fedMask {
		for i := range s.fedRing {
			s.fedRing[i] = true
		}
	} else {
		for i := 0; i < k; i++ {
			s.fedRing[(c0+i)&s.fedMask] = true
		}
	}
	outs, err := s.sim.StepN(stage, k)
	if err != nil {
		// The faulting cycle aborted inside StepN exactly as Step aborts
		// it; stop the system clock on that cycle, as the serial loop
		// would have (pre-fault harvests are unobservable: Output is
		// gated on completion and Reset clears the write BRAMs).
		s.cycles = s.sim.Cycle()
		return harvested, err
	}
	outW := s.sim.OutWidth()
	for i := 0; i < k; i++ {
		exit := c0 + i - lat
		if exit < 0 || (i < lat && !s.fedPre[i]) {
			continue // pre-run cycles, or a pre-chunk bubble's exit
		}
		if err := s.harvest(outs[i*outW : (i+1)*outW]); err != nil {
			s.cycles = c0 + i
			return harvested, err
		}
		harvested++
	}
	s.cycles = c0 + k
	s.batched += k
	return harvested, nil
}

// runStall executes m guaranteed bubble cycles in one DrainN dispatch —
// the fill phase, mid-run window stalls (e.g. a 2-D sweep waiting for
// the next row strip) and, with m = latency, the flush after the final
// feed, after which every in-flight iteration has exited. The memory
// stage still runs once per cycle (cycle 0's has already run, as for a
// streak), so fills progress exactly as the serial loop paces them and
// trailing array elements the window sweep never referenced keep
// streaming in; in-flight valid iterations exiting during the stall
// harvest from DrainN's row block (rows at or past the latency horizon
// exit bubbles admitted inside this same stall — never harvested).
func (s *System) runStall(m, harvested int) (int, error) {
	lat := s.plan.latency
	c0 := s.cycles
	npre := min(lat, m)
	for i := 0; i < npre; i++ {
		e := c0 + i - lat
		s.fedPre[i] = e >= 0 && s.fedRing[e&s.fedMask]
	}
	for i := 0; i < m; i++ {
		if i > 0 {
			if err := s.memoryStage(); err != nil {
				s.cycles = c0 + i
				return harvested, err
			}
		}
		s.fedRing[(c0+i)&s.fedMask] = false
	}
	outs, err := s.sim.DrainN(m)
	if err != nil {
		s.cycles = s.sim.Cycle()
		return harvested, err
	}
	outW := s.sim.OutWidth()
	for i := 0; i < npre; i++ {
		if !s.fedPre[i] {
			continue
		}
		if err := s.harvest(outs[i*outW : (i+1)*outW]); err != nil {
			s.cycles = c0 + i
			return harvested, err
		}
		harvested++
	}
	s.cycles = c0 + m
	s.batched += m
	return harvested, nil
}
