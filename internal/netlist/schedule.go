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
//     memory-only System, and records a memSchedule on the plan: every
//     iteration's window origin per read port, every iteration's store
//     addresses per write port, and the clean run's BRAM read counts
//     and cycle count;
//  2. runSchedule walks the iterations, not the cycles, in chunks of at
//     most sysChunkMax. A chunk gathers each iteration's window taps
//     straight from the input BRAMs into the staging columns, makes one
//     RunN call, which feeds the iterations back to back and flushes
//     the pipeline behind them, and stores each iteration's outputs
//     through the precomputed addresses;
//  3. SystemPool.RunBatch packs whole streams of a plan whose data path
//     has no feedback latch and whose schedule is clean: runPack
//     gathers up to sysChunkMax/total streams side by side into one
//     block, makes one RunN call over it, and stores each stream's
//     iterations into its own Job. With no latch, an iteration's
//     outputs depend on its own window and loop inputs alone, so the
//     streams of a pack cannot see each other, and each job's Cycles
//     is the schedule's cycle count. Any error replays each job of the
//     pack through RunJob.
//
// The walk feeds no bubbles, and it may: the data path is pipelined
// with every feedback latch read and written in one stage (initiation
// interval 1, §4.2.3), so iteration i, fed at cycle f_i, reads a latch
// at f_i+s, after every earlier iteration committed it at f_j+s and
// before any later one does. An iteration's results therefore depend
// only on its window and on the iterations before it, in order, never
// on the idle cycles between them; Cycles(), the read counts and
// BatchedCycles() still come from the schedule. Which of two faults
// comes first does depend on the spacing — two dividers may sit in
// different stages — so any error replays the stream on the serial
// loop (System.Run).
//
// The chunk's blocks are RunN's port-major layout: a k-iteration chunk
// stages one column of k values per data-path input (stage[d*k+j] is
// input d of the chunk's iteration j), so gather fills each routed
// tap's column in one loop, and storeIters reads each stored value
// straight out of its output column (outs[o*k+j]), in the serial
// harvest's order. A pack's columns hold each stream's iterations one
// after another, stream m's at offset m·total, so both take a column
// stride and offset.
//
// A gathered tap is bit-identical to the popped one: the read generator
// streams each array in address order, so the smart buffer's ring holds
// Data[k] at streaming index k, and a window's tap t is the element at
// its origin plus the tap's flattened offset.
//
// The serial per-cycle loop stays the reference every differential
// check compares against, the source of the schedule, and the path of
// every failing stream. The walk indexes BRAM data with the schedule's
// tables and no longer pays the window pop's readiness check or the
// store's bounds check, so the static verifier checks every table
// (system/schedule, verify.go).

// sysChunkMax bounds one chunk of iterations, and with it the input
// staging region (len(Datapath.Inputs) columns of sysChunkMax values).
// It bounds a pack too: RunBatch runs sysChunkMax/total whole streams
// as one chunk. RunN chunks its own lane scratch internally, so longer
// chunks gain little beyond amortizing the per-chunk bookkeeping and
// flush here.
const sysChunkMax = 256

// memSchedule is one plan's static memory schedule: everything the
// serial Run loop's memory side decides, recorded once. All Systems of
// the plan share it read-only.
type memSchedule struct {
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
	// cycle `cycles`; nil on a clean schedule. Every Run of a failed
	// schedule runs the serial loop, which reports the error itself.
	err error
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
// schedule on the cycle the serial loop would report it; no Run walks
// such a schedule's tables.
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
				sc.err = err
				break
			}
			harvested++
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
			sc.stores[wi] = append(sc.stores[wi], int32(a))
		}
	}
	m.ctl.Collect()
	return nil
}

// runSchedule is the default Run of a clean schedule: it walks the
// iterations in chunks, each one gather, one RunN and one store loop
// per write port, and on success takes the system clock and the BRAM
// read counts from the schedule and counts one BRAM write per stored
// element, as the serial harvest does. An error is the data path's
// fault, which Run replays on the serial loop.
//
//roccc:hotpath
func (s *System) runSchedule(sc *memSchedule) error {
	total := s.plan.total
	for j := 0; j < total; {
		k := min(total-j, sysChunkMax)
		stage := s.stage[:k*len(s.inputs)]
		s.gather(sc, stage, j, k, k, 0)
		outs, err := s.sim.RunN(stage, k)
		if err != nil {
			return err
		}
		for wi := range s.plan.writes {
			s.storeIters(sc, wi, s.writeBRAMs[wi].Data, outs, j, k, k, 0)
		}
		j += k
	}
	s.cycles = sc.cycles
	for i, m := range s.readBRAMs {
		m.reads = sc.reads[i]
	}
	for wi, m := range s.writeBRAMs {
		m.writes = total * len(s.plan.writes[wi].outIdx)
	}
	s.batched = sc.cycles
	return nil
}

// runPack runs a pack of whole streams as one chunk: a plan whose data
// path has no feedback latch and whose schedule is clean, with at most
// sysChunkMax iterations in all (SystemPool.packSize). It loads each
// job's arrays as RunJob does and gathers its iterations into the block
// at column offset m·total, makes one Sim.Reset and one RunN over the
// whole block, and stores each job's iterations straight into its
// cleared Outputs in the serial harvest's order, with Cycles from the
// schedule. Packing is exact: with no latch, iteration k's outputs
// depend only on its own window and loop inputs, and every stream of
// the plan walks the same schedule. A load error or a fault anywhere in
// the pack replays each of its jobs through RunJob, so every result,
// error and fault cycle is the reference's. It sets every job's Err.
// The System is left mid-run, as a failed Run leaves it: Reset it, as
// RunJob and Put do, before running it again.
//
//roccc:hotpath
func (s *System) runPack(jobs []Job) {
	p := s.plan
	sc := p.scheduleFor()
	total := p.total
	n := len(jobs) * total
	if need := n * len(s.inputs); cap(s.stage) < need {
		s.stage = make([]int64, need)
	}
	stage := s.stage[:n*len(s.inputs)]
	for m := range jobs {
		if err := s.loadJob(&jobs[m]); err != nil {
			s.replayPack(jobs)
			return
		}
		clear(s.iter)
		s.gather(sc, stage, 0, total, n, m*total)
	}
	s.sim.Reset()
	outs, err := s.sim.RunN(stage, n)
	if err != nil {
		s.replayPack(jobs)
		return
	}
	for m := range jobs {
		job := &jobs[m]
		s.jobOutputs(job)
		for wi := range p.writes {
			data := job.Outputs[p.writes[wi].arrName]
			clear(data)
			s.storeIters(sc, wi, data, outs, 0, total, n, m*total)
		}
		s.jobLatches(job)
		job.Cycles = sc.cycles
		job.Err = nil
	}
}

// replayPack runs each job of a failed pack through RunJob, the path of
// a single stream.
func (s *System) replayPack(jobs []Job) {
	for m := range jobs {
		jobs[m].Err = s.RunJob(&jobs[m])
	}
}

// gather fills the staging columns of iterations j … j+k-1: each routed
// tap's column straight from its input BRAM at each iteration's window
// origin (col[r] = data[origin_r+off]), routed as the window pop routes
// them, then the loop inputs' columns exactly as fillInputs writes them.
// The columns hold stride values each, and the iterations start at
// column offset at: input d of iteration j+r lands at
// stage[d*stride+at+r]. runSchedule passes stride k and offset 0.
//
//roccc:hotpath
func (s *System) gather(sc *memSchedule, stage []int64, j, k, stride, at int) {
	p := s.plan
	if p.needClear {
		for d := range s.inputs {
			clear(stage[d*stride+at : d*stride+at+k])
		}
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
			col := stage[d*stride+at:][:len(origins)]
			for r, origin := range origins {
				col[r] = data[int(origin)+int(off)]
			}
		}
	}
	s.fillLoopInputs(stage, k, stride, at)
}

// storeIters stores write port wi's elements of iterations j … j+k-1
// into data, the port's array, through the precomputed store
// addresses. outs is a port-major block from RunN whose columns hold
// stride values each, the first of these iterations at column offset
// at: element e of iteration j+i reads its output column at
// outs[ix*stride+at+i]. The stores run iteration by iteration, each
// iteration's elements in order, as the serial harvest writes them:
// when two elements of the port hit the same address in different
// iterations, the later iteration wins. It stores one port so that its
// caller looks up a job's output array outside the loop: a call (such
// as a map lookup) between the loops makes the compiler spill the loop
// indices to the stack, which costs the 4096-iteration FIR's store loop
// about three times its time.
//
//roccc:hotpath
func (s *System) storeIters(sc *memSchedule, wi int, data, outs []int64, j, k, stride, at int) {
	outIdx := s.plan.writes[wi].outIdx
	n := len(outIdx)
	addrs := sc.stores[wi][j*n : (j+k)*n]
	for i := 0; i < k; i++ {
		for e, ix := range outIdx {
			data[addrs[i*n+e]] = outs[ix*stride+at+i]
		}
	}
}
