package netlist

import (
	"fmt"
	"math/bits"
	"sync"

	"roccc/internal/ctrl"
	"roccc/internal/dp"
	"roccc/internal/hir"
	"roccc/internal/smartbuf"
)

// System wires one compiled kernel into the Fig. 2 execution model:
// input BRAMs feed smart buffers through read address generators, the
// pipelined data path consumes one window set per cycle, and write
// address generators place results into output BRAMs. A top-level
// controller FSM sequences everything.
//
// A System is compiled: NewSystem resolves every per-cycle decision that
// does not depend on data — window-tap→input routing, induction-variable
// and scalar input positions, the loop-nest odometer, buffer sizes —
// into a sysPlan of dense integer tables, so the Run cycle loop performs
// no map lookups and no allocations. Plans are cached by
// (kernel, datapath, bus width) identity: sweep-style repeated NewSystem
// calls skip recompilation.
//
// Lifecycle: LoadInput → Run → Output, with feedback latches read from
// the Sim that Run returns (FeedbackByName). Run consumes the address
// generators and smart buffers, so a second Run without an intervening
// Reset returns an error instead of silently mis-executing; Reset
// rewinds everything (without allocating) for the next run.
type System struct {
	Kernel   *hir.Kernel
	Datapath *dp.Datapath

	BusElems int

	plan *sysPlan
	sim  *dp.Sim

	inBRAMs  map[string]*BRAM
	outBRAMs map[string]*BRAM
	// readBRAMs/writeBRAMs are the same BRAMs in plan order, so the cycle
	// loop indexes instead of hashing names.
	readBRAMs  []*BRAM
	writeBRAMs []*BRAM
	buffers    []*smartbuf.Buffer
	readGens   []*ctrl.ReadGen
	writeGens  []*ctrl.WriteGen
	ctl        *ctrl.Controller

	// scalarVals are the scalar parameter values, aligned with
	// plan.scalarIn.
	scalarVals []int64

	// Preallocated cycle-loop buffers: the data-path input vector and
	// per-write address buffers (bus words stream as BRAM views).
	inputs     []int64
	writeAddrs [][]int

	// iter is the dense loop-nest odometer (counters per level,
	// outermost first); IV values derive from plan.from/step.
	iter []int64

	// serial forces the one-Step-per-cycle dispatch path; the default
	// Run walks the plan's static memory schedule (schedule.go).
	serial bool
	// stage is the input staging region of one chunk in RunN's
	// port-major layout: for a k-iteration chunk, one column of k values
	// per data-path input (stage[d*k+j] is input d of iteration j), k at
	// most sysChunkMax. NewSystem sizes it for one stream's chunk; the
	// first pack of streams (runPack) grows it.
	stage []int64

	// fedRing mirrors the data-path valid pipeline for output
	// harvesting: only the last Latency()+1 cycles are ever read, so a
	// power-of-two ring (indexed by cycle&fedMask) bounds memory on
	// arbitrarily long runs.
	fedRing []bool
	fedMask int

	cycles int
	// batched counts the system cycles a Run covered off the static
	// schedule (RunN chunks) — observability for tests and the sysbatch
	// sweep table.
	batched   int
	started   bool
	completed bool
}

// sysPlan is the compiled, immutable part of a System, shared by every
// System over the same (kernel, datapath, bus width) triple.
type sysPlan struct {
	reads    []readPlan
	writes   []writePlan
	ivs      []ivPlan
	scalarIn []int // dp input index per Kernel.ScalarParams entry (-1: unused)
	total    int   // loop nest iterations
	latency  int
	fedMask  int
	// needClear reports whether any data-path input is covered by no
	// window route, IV or scalar: only then must the input vector be
	// zeroed before a feed cycle (otherwise every slot is overwritten).
	needClear bool
	// Dense loop nest: level l counts iter[l] in [0,trips[l]) and the IV
	// value is from[l] + iter[l]*step[l].
	from, step []int64
	trips      []int64
	// bus and nest are what the memory side is built from (newMemory):
	// the bus width in elements and the nest the write generators walk.
	bus  int
	nest *hir.LoopNest
	// sched is the memory schedule every default-path Run walks,
	// derived on the first one (scheduleFor). The Once is held by
	// pointer so plan copies stay copyable.
	schedOnce *sync.Once
	sched     *memSchedule
}

// readPlan compiles one input window: its smart-buffer configuration and
// the dense routing table from window taps to data-path input ports.
type readPlan struct {
	// cfg is shared with smartbuf.KernelConfigs's cache: read only.
	cfg      smartbuf.Config
	arrName  string
	arrLen   int
	elemBits int
	// route maps window tap index -> dp input index (-1: unused), in the
	// int32 form smartbuf.PopWindowRouted consumes, so the feed stage
	// pops taps straight into the staged input row.
	route []int32
}

// ivPlan routes one loop induction variable into a data-path input.
type ivPlan struct {
	in    int // dp input index
	level int // nest level
}

// writePlan compiles one output access pattern: the BRAM geometry and
// the dense routing table from write elements to data-path outputs.
type writePlan struct {
	acc      *hir.WriteAccess
	arrName  string
	arrLen   int
	elemBits int
	outIdx   []int // write element -> dp output index
}

type planKey struct {
	d   *dp.Datapath
	bus int
}

// planFor returns the compiled system plan for (kernel, datapath, bus),
// building it on first use. Plans are cached on the kernel itself
// (hir.Kernel.PlanCache) rather than in a package-global map, so sweeps
// that rebuild the System for the same compiled kernel (ablation and
// unroll studies, benchmarks) skip recompilation while the cache is
// reclaimed together with the kernel — nothing outlives its key.
func planFor(k *hir.Kernel, d *dp.Datapath, bus int) (*sysPlan, error) {
	key := planKey{d: d, bus: bus}
	if p, ok := k.PlanCache.Load(key); ok {
		return p.(*sysPlan), nil
	}
	p, err := compileSysPlan(k, d, bus)
	if err != nil {
		return nil, err
	}
	sysVerifyHook(p, k, d)
	actual, _ := k.PlanCache.LoadOrStore(key, p)
	return actual.(*sysPlan), nil
}

// compileSysPlan resolves every data-independent per-cycle decision into
// dense integer tables.
func compileSysPlan(k *hir.Kernel, d *dp.Datapath, bus int) (*sysPlan, error) {
	inputIndex := make(map[*hir.Var]int, len(d.Inputs))
	for i, p := range d.Inputs {
		inputIndex[p.Var] = i
	}
	outIndex := make(map[*hir.Var]int, len(d.Outputs))
	for i, p := range d.Outputs {
		outIndex[p.Var] = i
	}
	p := &sysPlan{
		total:     int(k.Nest.TotalIterations()),
		latency:   d.Latency(),
		bus:       bus,
		nest:      &k.Nest,
		schedOnce: new(sync.Once),
	}
	// Dense loop nest.
	for l := range k.Nest.Vars {
		p.from = append(p.from, k.Nest.From[l])
		p.step = append(p.step, k.Nest.Step[l])
		p.trips = append(p.trips, k.Nest.Trips(l))
	}
	// Read side: one window per input array.
	cfgs, err := smartbuf.KernelConfigs(k, bus)
	if err != nil {
		return nil, err
	}
	for i, w := range k.Reads {
		rp := readPlan{
			cfg:      cfgs[i],
			arrName:  w.Arr.Name,
			arrLen:   w.Arr.Len(),
			elemBits: w.Arr.Elem.Bits,
			route:    make([]int32, len(w.Elems)),
		}
		for ei, e := range w.Elems {
			ix, ok := inputIndex[e.Elem]
			if !ok {
				ix = -1 // window tap unused by the data path (e.g. DCE'd)
			}
			rp.route[ei] = int32(ix)
		}
		p.reads = append(p.reads, rp)
	}
	// Write side.
	for _, acc := range k.Writes {
		wp := writePlan{
			acc:      acc,
			arrName:  acc.Arr.Name,
			arrLen:   acc.Arr.Len(),
			elemBits: acc.Arr.Elem.Bits,
		}
		for _, e := range acc.Elems {
			ix, ok := outIndex[e.Elem]
			if !ok {
				return nil, fmt.Errorf("netlist: write element %s has no dp output", e.Elem.Name)
			}
			wp.outIdx = append(wp.outIdx, ix)
		}
		p.writes = append(p.writes, wp)
	}
	// Induction-variable inputs.
	for lv, in := range k.IVInputs {
		ix, ok := inputIndex[in]
		if !ok {
			continue // IV input eliminated from the data path
		}
		level := -1
		for l, v := range k.Nest.Vars {
			if v == lv {
				level = l
			}
		}
		if level < 0 {
			return nil, fmt.Errorf("netlist: IV input %s is not a nest variable", lv.Name)
		}
		p.ivs = append(p.ivs, ivPlan{in: ix, level: level})
	}
	// Scalar parameters (values bind at NewSystem, positions here).
	for _, prm := range k.ScalarParams {
		ix, ok := inputIndex[prm]
		if !ok {
			ix = -1
		}
		p.scalarIn = append(p.scalarIn, ix)
	}
	// Smallest power of two holding Latency()+1 entries.
	p.fedMask = 1<<bits.Len(uint(p.latency)) - 1
	// A feed cycle must clear the input vector only when some data-path
	// input receives no routed value (e.g. a port whose producer was
	// eliminated): with full coverage every slot is overwritten anyway.
	covered := make([]bool, len(d.Inputs))
	for _, rp := range p.reads {
		for _, ix := range rp.route {
			if ix >= 0 {
				covered[ix] = true
			}
		}
	}
	for _, iv := range p.ivs {
		covered[iv.in] = true
	}
	for _, ix := range p.scalarIn {
		if ix >= 0 {
			covered[ix] = true
		}
	}
	for _, c := range covered {
		if !c {
			p.needClear = true
			break
		}
	}
	return p, nil
}

// Config for system construction.
type Config struct {
	// BusElems is the memory bus width in elements per cycle.
	BusElems int
	// Scalars provides values for kernel-level scalar parameters.
	Scalars map[string]int64
	// Serial forces the one-Step-per-cycle dispatch path instead of the
	// default walk of the static memory schedule: the reference
	// execution path of the differential tests and benchmarks. Both
	// paths are bit-identical on outputs, feedback latches, cycle counts
	// and fault abort cycles.
	Serial bool
	// Backend has no effect and nothing reads it. It stays only for the
	// benchmark module (perfbench), which still sets it on a Serial
	// config.
	Backend int
}

// NewSystem builds the full system for a compiled kernel.
func NewSystem(k *hir.Kernel, d *dp.Datapath, cfg Config) (*System, error) {
	if cfg.BusElems <= 0 {
		cfg.BusElems = 1
	}
	if k.Nest.Depth() == 0 {
		return nil, fmt.Errorf("netlist: kernel %s has no loop nest; simulate its data path directly", k.Name)
	}
	plan, err := planFor(k, d, cfg.BusElems)
	if err != nil {
		return nil, err
	}
	sys, err := newMemory(plan)
	if err != nil {
		return nil, err
	}
	sys.Kernel = k
	sys.Datapath = d
	sys.sim = dp.NewSim(d)
	sys.inputs = make([]int64, len(d.Inputs))
	sys.fedRing = make([]bool, plan.fedMask+1)
	sys.fedMask = plan.fedMask
	sys.serial = cfg.Serial
	sys.stage = make([]int64, min(plan.total, sysChunkMax)*len(d.Inputs))
	for _, prm := range k.ScalarParams {
		v, ok := cfg.Scalars[prm.Name]
		if !ok {
			return nil, fmt.Errorf("netlist: missing value for scalar parameter %q", prm.Name)
		}
		sys.scalarVals = append(sys.scalarVals, v)
	}
	return sys, nil
}

// newMemory builds the memory side of a System over plan p — input and
// output BRAMs, smart buffers, address generators and the controller —
// with no data path attached. NewSystem completes it; deriveSchedule
// runs it alone.
func newMemory(p *sysPlan) (*System, error) {
	sys := &System{
		BusElems: p.bus,
		plan:     p,
		inBRAMs:  map[string]*BRAM{},
		outBRAMs: map[string]*BRAM{},
		iter:     make([]int64, len(p.from)),
	}
	for _, rp := range p.reads {
		buf, err := smartbuf.New(rp.cfg)
		if err != nil {
			return nil, err
		}
		bram := NewBRAM(rp.arrName, rp.arrLen, rp.elemBits)
		sys.buffers = append(sys.buffers, buf)
		sys.readGens = append(sys.readGens, ctrl.NewReadGen(rp.arrLen, p.bus))
		sys.readBRAMs = append(sys.readBRAMs, bram)
		sys.inBRAMs[rp.arrName] = bram
	}
	for _, wp := range p.writes {
		gen, err := ctrl.NewWriteGen(wp.acc, p.nest)
		if err != nil {
			return nil, err
		}
		bram := NewBRAM(wp.arrName, wp.arrLen, wp.elemBits)
		sys.writeGens = append(sys.writeGens, gen)
		sys.writeBRAMs = append(sys.writeBRAMs, bram)
		sys.outBRAMs[wp.arrName] = bram
		sys.writeAddrs = append(sys.writeAddrs, make([]int, len(wp.outIdx)))
	}
	sys.ctl = ctrl.NewController(p.total, p.latency)
	return sys, nil
}

// LoadInput preloads an input array's BRAM (the off-chip engine's load).
// A shorter vals fills a prefix and leaves the rest of the BRAM as it
// was; a longer one is an error, since its tail would silently drop out
// of the computation.
func (s *System) LoadInput(name string, vals []int64) error {
	m, ok := s.inBRAMs[name]
	if !ok {
		return fmt.Errorf("netlist: no input array %q", name)
	}
	if err := checkLoad(m, vals); err != nil {
		return err
	}
	m.Load(vals)
	return nil
}

// checkLoad rejects an input array longer than its BRAM.
func checkLoad(m *BRAM, vals []int64) error {
	if len(vals) > len(m.Data) {
		return fmt.Errorf("netlist: input array %q holds %d elements, got %d", m.Name, len(m.Data), len(vals))
	}
	return nil
}

// Output returns the contents of an output BRAM. It errors until a Run
// has completed: before that the BRAM holds all-zero (or stale) data
// indistinguishable from a real result.
func (s *System) Output(name string) ([]int64, error) {
	m, ok := s.outBRAMs[name]
	if !ok {
		return nil, fmt.Errorf("netlist: no output array %q", name)
	}
	if !s.completed {
		return nil, fmt.Errorf("netlist: Output(%q) before a completed Run", name)
	}
	cp := make([]int64, len(m.Data))
	copy(cp, m.Data)
	return cp, nil
}

// OutputInto copies an output BRAM's contents into a caller-provided
// buffer of exactly the array's length, so sweep loops harvest results
// without allocating. Like Output, it errors until a Run has completed.
func (s *System) OutputInto(name string, dst []int64) error {
	m, ok := s.outBRAMs[name]
	if !ok {
		return fmt.Errorf("netlist: no output array %q", name)
	}
	if !s.completed {
		return fmt.Errorf("netlist: OutputInto(%q) before a completed Run", name)
	}
	if len(dst) != len(m.Data) {
		return fmt.Errorf("netlist: OutputInto(%q): buffer holds %d elements, array has %d", name, len(dst), len(m.Data))
	}
	copy(dst, m.Data)
	return nil
}

// Cycles returns the clock cycles consumed by Run.
func (s *System) Cycles() int { return s.cycles }

// HasClosedFormCone reports whether the system's data-path plan carries
// a closed-form feedback cone (the prefix-sum vectorization of ADD-cone
// latch recurrences). Observability surfaces expose it so operators can
// see which kernels' feedback paths run in closed form and which run on
// the serial step.
func (s *System) HasClosedFormCone() bool { return s.sim.HasClosedFormCone() }

// BatchedCycles returns how many of Run's cycles were covered off the
// static memory schedule through RunN chunks: every cycle of a
// completed default-path Run, so it equals Cycles() there. Zero on a
// Config.Serial system, which steps one cycle at a time, and on a
// default-path Run replayed on the serial loop after an error.
func (s *System) BatchedCycles() int { return s.batched }

// Reset rewinds the system to its pre-Run state without allocating:
// address generators, smart buffers, the controller FSM, the data-path
// simulator and all cycle bookkeeping restart from zero. Input BRAM
// contents are kept (reload with LoadInput to change them); output BRAM
// contents are cleared; BRAM access counters restart so per-run
// properties (fetch-once) stay checkable.
func (s *System) Reset() {
	for _, g := range s.readGens {
		g.Reset()
	}
	for _, g := range s.writeGens {
		g.Reset()
	}
	for _, b := range s.buffers {
		b.Reset()
	}
	for _, m := range s.readBRAMs {
		m.ResetStats()
	}
	for _, m := range s.writeBRAMs {
		m.ResetStats()
		clear(m.Data)
	}
	s.ctl.Reset()
	s.sim.Reset()
	clear(s.fedRing)
	clear(s.iter)
	s.cycles = 0
	s.batched = 0
	s.started = false
	s.completed = false
}

// Run executes the whole kernel: it streams every array element from
// BRAM through the smart buffers exactly once, pushes one iteration per
// cycle into the data path when windows are ready, and writes results
// back. It returns the data-path simulator (for feedback state);
// Cycles() is the consumed system cycle count. Pipeline bubbles (fill
// and drain cycles) are poisoned in the data path, so kernels with
// input-dependent divisors do not fault while flushing; a genuine fault
// on a valid iteration still aborts the run. Run consumes the system's
// generators and buffers: call Reset before running again.
//
// The default Run walks the plan's static memory schedule
// (schedule.go): no cycle of the memory side depends on the data, so it
// is derived once per plan from the serial loop below, and Run then
// feeds only the fed iterations, back to back, gathering window taps
// straight from the input BRAMs into RunN chunks that also flush the
// pipeline, and stores each iteration's outputs through precomputed
// addresses. The returned Sim's Cycle() then counts data-path clocks
// (the fed iterations plus one flush per chunk), while Cycles() stays
// the system clock. Any error — a data-path fault, or a schedule that
// ends in the serial loop's error — resets the System (input BRAMs keep
// their contents) and replays the stream on the serial loop, so the
// error, its cycle and the BRAM counts are the reference's. A
// Config.Serial System runs the per-cycle loop itself, the reference.
// Both paths are bit-identical on outputs, feedback latches, cycle
// counts and fault abort cycles.
//
//roccc:hotpath
func (s *System) Run() (*dp.Sim, error) {
	if s.started {
		return nil, fmt.Errorf("netlist: System.Run called again without Reset (address generators and smart buffers were consumed by the previous run)")
	}
	s.started = true
	if !s.serial {
		if sc := s.plan.scheduleFor(); sc.err == nil && s.runSchedule(sc) == nil {
			s.completed = true
			return s.sim, nil
		}
		// Replay the failing stream on the serial loop below.
		s.Reset()
		s.started = true
	}
	p := s.plan
	lat := p.latency
	total := p.total
	harvested := 0
	limit := p.cycleLimit()
	inputs := s.inputs

	for harvested < total {
		if s.cycles > limit {
			return nil, errCycleLimit(s.cycles, harvested, total)
		}
		// 1. Memory stage, window readiness and the controller's
		// decision: feed one iteration or issue a bubble.
		feed, err := s.memoryCycle()
		if err != nil {
			return nil, err
		}
		// 2. Data path.
		var outs []int64
		if feed {
			if p.needClear {
				clear(inputs)
			}
			if err := s.fillInputs(inputs); err != nil {
				return nil, err
			}
			s.fedRing[s.cycles&s.fedMask] = true
			outs, err = s.sim.Step(inputs)
		} else {
			s.fedRing[s.cycles&s.fedMask] = false
			outs, err = s.sim.Drain()
		}
		if err != nil {
			return nil, err
		}
		// 3. Harvest: the outputs visible now belong to the iteration
		// admitted lat cycles ago.
		exit := s.cycles - lat
		if exit >= 0 && s.fedRing[exit&s.fedMask] {
			if err := s.harvest(outs); err != nil {
				return nil, err
			}
			harvested++
		}
		s.cycles++
	}
	s.completed = true
	return s.sim, nil
}

// cycleLimit is the runaway bound of one Run: a run still unfinished
// past it has a broken schedule, and errors instead of spinning.
func (p *sysPlan) cycleLimit() int {
	return 4*p.total + 16*(p.latency+2) + 64
}

func errCycleLimit(cycles, harvested, total int) error {
	return fmt.Errorf("netlist: cycle limit exceeded (%d cycles, %d/%d outputs)", cycles, harvested, total)
}

// memoryCycle runs one cycle of the memory side: the memory stage, the
// window readiness of every read port and the controller tick. It
// reports whether the cycle feeds an iteration to the data path.
//
//roccc:hotpath
func (s *System) memoryCycle() (feed bool, err error) {
	if err := s.memoryStage(); err != nil {
		return false, err
	}
	ready := true
	for _, buf := range s.buffers {
		if !buf.WindowReady() {
			ready = false
			break
		}
	}
	return s.ctl.Tick(ready), nil
}

// memoryStage runs one cycle of the memory stage: each read port whose
// generator has addresses left and whose smart buffer can accept a bus
// word fetches up to BusElems elements from BRAM and pushes them.
//
//roccc:hotpath
func (s *System) memoryStage() error {
	for i, buf := range s.buffers {
		gen := s.readGens[i]
		if gen.Done() || !buf.CanAccept() {
			continue // backpressure: window data still live
		}
		start, n := gen.NextRange()
		word, err := s.readBRAMs[i].ReadRange(start, n)
		if err != nil {
			return err
		}
		if err := buf.Push(word); err != nil {
			return err
		}
	}
	return nil
}

// fillInputs materializes one feed cycle's data-path input vector:
// window taps through the routing tables, then the loop inputs. The
// caller zeroes the row first iff plan.needClear.
//
//roccc:hotpath
func (s *System) fillInputs(row []int64) error {
	p := s.plan
	for bi, buf := range s.buffers {
		if err := buf.PopWindowRouted(row, p.reads[bi].route); err != nil {
			return err
		}
	}
	s.fillLoopInputs(row, 1, 1, 0)
	return nil
}

// fillLoopInputs writes k consecutive feed cycles' induction-variable
// values off the odometer (which it advances k times) and their scalar
// parameters into port-major columns of stride values each, starting at
// column offset at: input d on cycle r lands at cols[d*stride+at+r]. The
// serial loop passes one row, k and stride 1, offset 0.
//
//roccc:hotpath
func (s *System) fillLoopInputs(cols []int64, k, stride, at int) {
	p := s.plan
	// The odometer exists to value induction-variable inputs; kernels
	// whose IVs were eliminated from the data path (pure windowing) skip
	// it entirely.
	if len(p.ivs) > 0 {
		for r := 0; r < k; r++ {
			for _, iv := range p.ivs {
				cols[iv.in*stride+at+r] = p.from[iv.level] + s.iter[iv.level]*p.step[iv.level]
			}
			s.advanceOdometer()
		}
	}
	for si, ix := range p.scalarIn {
		if ix >= 0 {
			v := s.scalarVals[si]
			col := cols[ix*stride+at : ix*stride+at+k]
			for r := range col {
				col[r] = v
			}
		}
	}
}

// harvest writes one exited iteration's output-port values into the
// output BRAMs through the write address generators and records the
// completion with the controller.
//
//roccc:hotpath
func (s *System) harvest(outs []int64) error {
	if err := s.nextStores(); err != nil {
		return err
	}
	for wi, addrs := range s.writeAddrs {
		outIdx := s.plan.writes[wi].outIdx
		bram := s.writeBRAMs[wi]
		for ei, a := range addrs {
			if err := bram.Write(a, outs[outIdx[ei]]); err != nil {
				return err
			}
		}
	}
	s.ctl.Collect()
	return nil
}

// nextStores advances every write address generator by one iteration,
// leaving that iteration's store addresses in writeAddrs.
//
//roccc:hotpath
func (s *System) nextStores() error {
	for wi, gen := range s.writeGens {
		if gen.NextInto(s.writeAddrs[wi]) == nil {
			return fmt.Errorf("netlist: write generator exhausted early")
		}
	}
	return nil
}

// advanceOdometer walks the loop nest iteration space in row-major
// order, mirroring the smart buffer's window order.
//
//roccc:hotpath
func (s *System) advanceOdometer() {
	for l := len(s.iter) - 1; l >= 0; l-- {
		s.iter[l]++
		if s.iter[l] < s.plan.trips[l] {
			return
		}
		s.iter[l] = 0
	}
}
