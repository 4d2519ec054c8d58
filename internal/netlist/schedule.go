package netlist

// schedule.go is the default dispatch path of System.Run. The paper's
// smart buffers, address generators and controller are parameterized
// FSMs whose timing follows from the loop's access pattern alone (§4.1,
// Fig. 2): which cycles feed the data path and which are bubbles, where
// each iteration's window sits in its input array, and where each
// iteration's results go never depend on the data. So the memory side
// runs once per plan instead of once per cycle of every run:
//
//  1. deriveSchedule runs the serial Run loop's memory side — memory
//     stage, window readiness, controller tick, window pops and write
//     address generation, through the serial loop's own helpers — on a
//     memory-only System, and records a memSchedule on the plan: the
//     feed and bubble runs, every iteration's window origin per read
//     port, every iteration's store addresses per write port, and the
//     clean run's BRAM read counts and cycle count;
//  2. runSchedule walks those runs in chunks of at most sysChunkMax
//     cycles. A feed chunk gathers each iteration's window taps straight
//     from the input BRAMs into the staging columns and makes one StepN
//     call; a bubble chunk is one DrainN call; the clocks whose
//     iteration exits the pipeline inside the chunk are stored through
//     the precomputed addresses.
//
// The chunk's blocks are StepN's port-major layout: a k-cycle feed
// chunk stages one column of k values per data-path input (stage[d*k+r]
// is input d on the chunk's clock r), so gather fills each routed tap's
// column in one loop, and storeExits reads each stored value straight
// out of its output column (outs[o*k+r]) in the returned block, in the
// serial harvest's order.
//
// A gathered tap is bit-identical to the popped one: the read generator
// streams each array in address order, so the smart buffer's ring holds
// Data[k] at streaming index k, and a window's tap t is the element at
// its origin plus the tap's flattened offset.
//
// Faults keep the chunk-with-serial-replay contract end to end: StepN
// and DrainN detect a fault in batch scratch, discard it, and replay
// the chunk through the serial core, so the abort cycle, the
// *dp.FaultError and the post-abort simulator state are Step's exactly;
// runSchedule then stops the system clock on that same cycle. A
// schedule that ends in the serial loop's error (the runaway limit, or
// a store outside its array) returns it on the serial loop's cycle,
// after the same data-path steps. The serial per-cycle loop stays the
// reference every differential check compares against, and the source
// of the schedule. The walk indexes BRAM data with the schedule's
// tables and no longer pays the window pop's readiness check or the
// store's bounds check, so the static verifier checks every table
// (system/schedule, verify.go).

// sysChunkMax bounds one feed or bubble chunk, and with it the input
// staging region (len(Datapath.Inputs) columns of sysChunkMax values).
// StepN chunks its own lane scratch internally, so longer chunks gain
// little beyond amortizing the per-chunk bookkeeping here.
const sysChunkMax = 256

// memSchedule is one plan's static memory schedule: everything the
// serial Run loop's memory side decides, recorded once. All Systems of
// the plan share it read-only.
type memSchedule struct {
	// runs are the maximal feed and bubble runs, in cycle order.
	runs []schedRun
	// origins[i][j] is iteration j's window origin in read port i's
	// array, as a streaming index; tapOff[i] are the port's window taps
	// as offsets from it (smartbuf.Buffer.TapOffsets).
	origins [][]int32
	tapOff  [][]int32
	// stores[w] holds write port w's store addresses, len(outIdx) per
	// iteration, in harvest order.
	stores [][]int32
	// reads[i] counts read port i's BRAM reads on a clean run; cycles is
	// the clean run's cycle count.
	reads  []int
	cycles int
	// err is the serial loop's error when the schedule breaks down at
	// cycle `cycles` (the runs stop there); nil on a clean schedule.
	// errStep marks an error from that cycle's harvest: the serial loop
	// has already stepped the data path on the cycle (feeding one more
	// iteration if errFeed), so a fault there is reported instead.
	err     error
	errStep bool
	errFeed bool
}

// schedRun is n consecutive cycles that all feed, or all bubble.
type schedRun struct {
	n    int
	feed bool
}

// scheduleFor returns the plan's memory schedule, deriving it on first
// use. Concurrent first Runs of Systems sharing the plan wait for the
// one derivation.
func (p *sysPlan) scheduleFor() *memSchedule {
	p.schedOnce.Do(func() {
		p.sched = deriveSchedule(p)
		schedVerifyHook(p)
	})
	return p.sched
}

// deriveSchedule runs the serial Run loop with the data path and the
// BRAM writes taken out, on a fresh memory-only System over p, and
// records what it decides. It calls the serial loop's helpers, so
// memory timing — backpressure, readiness, the controller's decisions —
// keeps one definition, and the window pops keep the readiness check
// the schedule walk drops. An error (the runaway limit, a broken
// memory side, or a harvest the serial loop cannot store) ends the
// schedule on the cycle the serial loop would report it.
func deriveSchedule(p *sysPlan) *memSchedule {
	sc := &memSchedule{}
	m, err := newMemory(p)
	if err != nil {
		sc.err = err
		return sc
	}
	windows := make([][]int64, len(m.buffers))
	for i, buf := range m.buffers {
		windows[i] = make([]int64, buf.Taps())
		sc.origins = append(sc.origins, make([]int32, 0, p.total))
		offs := make([]int32, buf.Taps())
		for t, off := range buf.TapOffsets() {
			offs[t] = int32(off)
		}
		sc.tapOff = append(sc.tapOff, offs)
	}
	for _, wp := range p.writes {
		sc.stores = append(sc.stores, make([]int32, 0, p.total*len(wp.outIdx)))
	}
	fed := make([]bool, p.fedMask+1)
	harvested := 0
	limit := p.cycleLimit()
	for harvested < p.total {
		if m.cycles > limit {
			sc.err = errCycleLimit(m.cycles, harvested, p.total)
			break
		}
		feed, err := m.memoryCycle()
		if err == nil && feed {
			err = sc.popWindows(m, windows)
		}
		if err != nil {
			sc.err = err
			break
		}
		fed[m.cycles&p.fedMask] = feed
		if exit := m.cycles - p.latency; exit >= 0 && fed[exit&p.fedMask] {
			if err := sc.collect(m); err != nil {
				sc.err, sc.errStep, sc.errFeed = err, true, feed
				break
			}
			harvested++
		}
		if n := len(sc.runs); n > 0 && sc.runs[n-1].feed == feed {
			sc.runs[n-1].n++
		} else {
			sc.runs = append(sc.runs, schedRun{n: 1, feed: feed})
		}
		m.cycles++
	}
	sc.cycles = m.cycles
	for _, bram := range m.readBRAMs {
		reads, _ := bram.Stats()
		sc.reads = append(sc.reads, reads)
	}
	return sc
}

// popWindows records every read port's next window origin, then pops
// that window.
func (sc *memSchedule) popWindows(m *System, windows [][]int64) error {
	for i, buf := range m.buffers {
		sc.origins[i] = append(sc.origins[i], int32(buf.NextOrigin()))
		if err := buf.PopWindowInto(windows[i]); err != nil {
			return err
		}
	}
	return nil
}

// collect records one harvested iteration's store addresses, as the
// serial harvest generates them, and its completion. It fails where
// the serial harvest fails, with the same error: an exhausted write
// generator, or the first store address outside its array.
func (sc *memSchedule) collect(m *System) error {
	if err := m.nextStores(); err != nil {
		return err
	}
	for wi, addrs := range m.writeAddrs {
		for _, a := range addrs {
			if err := m.writeBRAMs[wi].checkWrite(a); err != nil {
				return err
			}
		}
	}
	for wi, addrs := range m.writeAddrs {
		for _, a := range addrs {
			sc.stores[wi] = append(sc.stores[wi], int32(a))
		}
	}
	m.ctl.Collect()
	return nil
}

// runSchedule is the default Run: it walks the schedule's runs, feeding
// gathered columns through StepN and bubbles through DrainN, and stores
// every exiting clock's outputs through the precomputed addresses.
//
//roccc:hotpath
func (s *System) runSchedule(sc *memSchedule) error {
	fed := 0
	x := exitCursor{pre: s.plan.latency}
	for _, r := range sc.runs {
		for left := r.n; left > 0; {
			k := min(left, sysChunkMax)
			outs, err := s.step(sc, r.feed, fed, k)
			if err != nil {
				return err
			}
			if r.feed {
				fed += k
			}
			s.storeExits(sc, outs, k, &x)
			left -= k
		}
	}
	if sc.errStep {
		// The serial loop steps the data path on a cycle whose harvest
		// fails before it reports the harvest's error, so a fault on
		// that cycle wins.
		if _, err := s.step(sc, sc.errFeed, fed, 1); err != nil {
			return err
		}
	}
	s.cycles = sc.cycles
	if sc.err != nil {
		return sc.err
	}
	for i, m := range s.readBRAMs {
		m.reads = sc.reads[i]
	}
	s.batched = sc.cycles
	return nil
}

// step runs k cycles of the data path: one StepN over the gathered
// columns of iterations fed onward when feed, one DrainN otherwise. The
// returned block is port-major: outs[o*k+r] is output o after clock r.
//
//roccc:hotpath
func (s *System) step(sc *memSchedule, feed bool, fed, k int) ([]int64, error) {
	var outs []int64
	var err error
	if feed {
		stage := s.stage[:k*len(s.inputs)]
		s.gather(sc, stage, fed, k)
		outs, err = s.sim.StepN(stage, k)
	} else {
		outs, err = s.sim.DrainN(k)
	}
	if err != nil {
		// The faulting cycle aborted inside StepN or DrainN exactly as
		// Step aborts it; stop the system clock on that cycle, as the
		// serial loop would (pre-fault stores are unobservable: Output
		// is gated on completion and Reset clears the write BRAMs).
		s.cycles = s.sim.Cycle()
	}
	return outs, err
}

// gather fills the staging columns of a k-iteration feed chunk,
// iteration j onward: each routed tap's column straight from its input
// BRAM at each iteration's window origin (col[r] = data[origin_r+off]),
// routed as the window pop routes them, then the loop inputs' columns
// exactly as fillInputs writes them.
//
//roccc:hotpath
func (s *System) gather(sc *memSchedule, stage []int64, j, k int) {
	p := s.plan
	if p.needClear {
		clear(stage)
	}
	for i := range p.reads {
		route := p.reads[i].route
		data := s.readBRAMs[i].Data
		origins := sc.origins[i][j : j+k]
		for t, off := range sc.tapOff[i] {
			d := int(route[t])
			if d < 0 {
				continue
			}
			col := stage[d*k : (d+1)*k]
			for r, origin := range origins {
				col[r] = data[int(origin)+int(off)]
			}
		}
	}
	s.fillLoopInputs(stage, k)
}

// exitCursor walks the schedule's runs latency cycles behind the
// runner: the outputs a chunk produces at cycle c belong to the iteration
// fed at cycle c-latency, if that cycle fed.
type exitCursor struct {
	pre  int // cycles before cycle 0 still to pass: they never fed
	run  int // the run holding the next exit cycle
	off  int // cycles of that run already passed
	next int // the next iteration to store
}

// storeExits stores the clocks of a k-cycle chunk whose exit cycle fed,
// through the precomputed store addresses, and counts one BRAM write
// per element. outs is the chunk's port-major block: element e of
// iteration i reads its output column at outs[ix*k+r+i]. The stores
// run iteration by iteration, each iteration's elements in order, as
// the serial harvest writes them: when two elements of one write port
// hit the same address in different iterations, the later iteration
// wins.
//
//roccc:hotpath
func (s *System) storeExits(sc *memSchedule, outs []int64, k int, x *exitCursor) {
	r := min(x.pre, k)
	x.pre -= r
	for r < k {
		run := sc.runs[x.run]
		m := min(run.n-x.off, k-r)
		if run.feed {
			for wi := range s.plan.writes {
				outIdx := s.plan.writes[wi].outIdx
				n := len(outIdx)
				addrs := sc.stores[wi][x.next*n : (x.next+m)*n]
				bram := s.writeBRAMs[wi]
				for i := 0; i < m; i++ {
					for e, ix := range outIdx {
						bram.Data[addrs[i*n+e]] = outs[ix*k+r+i]
					}
				}
				bram.writes += m * n
			}
			x.next += m
		}
		r += m
		if x.off += m; x.off == run.n {
			x.run++
			x.off = 0
		}
	}
}
