package netlist

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"roccc/internal/dp"
	"roccc/internal/hir"
)

// ErrPoolClosed is the sentinel inside every RunJob/RunBatch failure on
// a closed pool; match it with errors.Is. A pool is closed once, by its
// owner, when it is done with it: serve closes its pools at Shutdown,
// once the admitted streams have finished or the drain budget ran out.
var ErrPoolClosed = errors.New("netlist: SystemPool is closed")

// SystemPool is a pool of Reset-able Systems for one compiled kernel,
// plus a fixed crew of persistent worker goroutines that shard
// independent input streams across cores. It builds on the PR 2 plan
// caches: every pooled System shares the kernel's compiled sysPlan
// (hir.Kernel.PlanCache) and the data path's compiled simulator plan,
// so Get after warm-up reuses a System without recompiling or
// allocating, and RunBatch in steady state (reused Job buffers)
// allocates nothing at all — the workers are parked on a channel, not
// respawned per call.
type SystemPool struct {
	kernel *hir.Kernel
	dpath  *dp.Datapath
	cfg    Config
	// scalars are the scalar parameter values a pooled System must carry
	// (bound at NewSystem in k.ScalarParams order); Put compares against
	// them so a same-kernel System built with different scalar bindings
	// cannot poison the pool.
	scalars []int64
	// plan is the compiled plan every pooled System shares; packSize
	// reads its schedule.
	plan *sysPlan

	mu   sync.Mutex
	free []*System

	workers int
	spawn   sync.Once
	kick    chan *sweepRun
	run     *sweepRun
	runMu   sync.Mutex // serializes RunBatch calls on one pool

	closed atomic.Bool

	// Admission/metrics counters (Stats).
	built    atomic.Int64
	gets     atomic.Int64
	puts     atomic.Int64
	rejected atomic.Int64
	batches  atomic.Int64
	jobs     atomic.Int64
}

// PoolStats is a snapshot of a SystemPool's admission and usage
// counters. Services expose it for observability; tests use it to prove
// pooled Systems are returned rather than leaked (a balanced pool has
// Gets == Puts + Rejected once all work has drained).
type PoolStats struct {
	// Built counts Systems constructed for this pool (the eager one at
	// NewSystemPool plus every Get that missed the free list).
	Built int64
	// Gets and Puts count successful checkouts and accepted returns.
	Gets, Puts int64
	// Rejected counts Puts refused admission: foreign Systems (wrong
	// kernel, data path, bus width, scalar binding or dispatch path).
	Rejected int64
	// Idle is the current free-list depth.
	Idle int
	// Batches and Jobs count RunBatch calls and jobs executed through
	// RunBatch and RunJob.
	Batches, Jobs int64
}

// sweepRun is the shared state of one RunBatch call, reused across
// calls so dispatching a batch allocates nothing in steady state.
// Workers claim pack jobs at a time off next.
type sweepRun struct {
	jobs []Job
	pack int
	next atomic.Int64
	wg   sync.WaitGroup
}

// Job is one independent input stream for RunBatch: the per-array input
// data in, the per-array results, consumed cycle count and error out.
// Outputs buffers and the Feedbacks map are reused when present
// (allocated on first use otherwise), so a sweep that recycles its Job
// slice reaches a zero-allocation steady state.
type Job struct {
	// Inputs maps input array names to their data (one element per
	// address), as LoadInput takes them.
	Inputs map[string][]int64
	// Outputs receives one slice per output array, sized to the array.
	Outputs map[string][]int64
	// Feedbacks receives the final value of every feedback latch (by
	// state-variable name) when the kernel's data path has any — the
	// observable result of accumulator-style kernels with no output
	// arrays, e.g. Table 1's mul_acc.
	Feedbacks map[string]int64
	// Cycles is the clock count the stream's Run consumed.
	Cycles int
	// Err is the stream's failure, if any; other jobs still run.
	Err error
}

// NewSystemPool builds a pool over a compiled kernel. workers bounds
// the goroutines RunBatch shards across (<= 0 means GOMAXPROCS). The
// constructor builds one System eagerly, so configuration errors
// (missing scalars, bad buffer geometry) surface here rather than
// mid-sweep, and the shared plans are compiled before the first batch.
func NewSystemPool(k *hir.Kernel, d *dp.Datapath, cfg Config, workers int) (*SystemPool, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Normalize exactly as NewSystem does, so Put's configuration check
	// compares what built Systems actually carry.
	if cfg.BusElems <= 0 {
		cfg.BusElems = 1
	}
	sys, err := NewSystem(k, d, cfg)
	if err != nil {
		return nil, err
	}
	p := &SystemPool{
		kernel:  k,
		dpath:   d,
		cfg:     cfg,
		scalars: sys.scalarVals,
		plan:    sys.plan,
		free:    []*System{sys},
		workers: workers,
		kick:    make(chan *sweepRun, workers),
		run:     &sweepRun{},
	}
	p.built.Store(1)
	return p, nil
}

// Workers returns the pool's shard width.
func (p *SystemPool) Workers() int { return p.workers }

// Stats snapshots the pool's admission and usage counters.
func (p *SystemPool) Stats() PoolStats {
	p.mu.Lock()
	idle := len(p.free)
	p.mu.Unlock()
	return PoolStats{
		Built:    p.built.Load(),
		Gets:     p.gets.Load(),
		Puts:     p.puts.Load(),
		Rejected: p.rejected.Load(),
		Idle:     idle,
		Batches:  p.batches.Load(),
		Jobs:     p.jobs.Load(),
	}
}

// Get returns a Reset System for the pool's kernel, reusing a pooled
// one when available. Callers hand it back with Put.
func (p *SystemPool) Get() (*System, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		sys := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.gets.Add(1)
		return sys, nil
	}
	p.mu.Unlock()
	sys, err := NewSystem(p.kernel, p.dpath, p.cfg)
	if err != nil {
		return nil, err
	}
	p.built.Add(1)
	p.gets.Add(1)
	return sys, nil
}

// Put resets a System and returns it to the pool. Systems built for a
// different kernel, data path, bus width, scalar binding or dispatch
// path (Config.Serial) are dropped rather than poisoning the pool. The
// free list has no cap: it grows only to the most Systems held at once,
// which the pool's callers bound.
func (p *SystemPool) Put(sys *System) {
	if sys == nil || sys.Kernel != p.kernel || sys.Datapath != p.dpath ||
		sys.BusElems != p.cfg.BusElems || sys.serial != p.cfg.Serial ||
		!slices.Equal(sys.scalarVals, p.scalars) {
		if sys != nil {
			p.rejected.Add(1)
		}
		return
	}
	sys.Reset()
	p.mu.Lock()
	p.free = append(p.free, sys)
	p.mu.Unlock()
	p.puts.Add(1)
}

// RunJob streams one job through a pooled System — Reset, LoadInput,
// Run, harvest — returning the System to the pool afterwards (also on
// failure: a faulted System Resets cleanly). Unlike RunBatch it does not
// serialize on the pool's batch lock, so a service can run many
// independent single-stream requests concurrently against one pool; the
// steady state (reused Job buffers, warm free list) allocates nothing.
func (p *SystemPool) RunJob(job *Job) error {
	if p.closed.Load() {
		job.Err = fmt.Errorf("netlist: RunJob: %w", ErrPoolClosed)
		return job.Err
	}
	sys, err := p.Get()
	if err != nil {
		job.Err = err
		return err
	}
	p.jobs.Add(1)
	job.Err = sys.RunJob(job)
	p.Put(sys)
	return job.Err
}

// RunBatch executes every job — Reset, LoadInput, Run, harvest — over
// the worker crew, each worker claiming the next unclaimed jobs off a
// shared counter so uneven stream lengths balance naturally. A worker
// claims one job at a time, or, when the kernel's streams pack
// (packSize), a pack of whole streams that it runs as one RunN chunk
// (System.runPack), and RunBatch kicks no more workers than there are
// claims to make. Every job's result, error and cycle count are what
// RunJob gives it. Per-job failures land in Job.Err without stopping
// the rest of the batch; the returned error is the first failure in job
// order (nil when all streams completed). Concurrent RunBatch calls on
// one pool serialize.
func (p *SystemPool) RunBatch(jobs []Job) error {
	if len(jobs) == 0 {
		return nil
	}
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.closed.Load() {
		return fmt.Errorf("netlist: RunBatch: %w", ErrPoolClosed)
	}
	p.spawn.Do(func() {
		for i := 0; i < p.workers; i++ {
			go p.worker()
		}
	})
	p.batches.Add(1)
	p.jobs.Add(int64(len(jobs)))
	r := p.run
	r.jobs = jobs
	r.pack = p.packSize()
	r.next.Store(0)
	w := min(p.workers, (len(jobs)+r.pack-1)/r.pack)
	r.wg.Add(w)
	for i := 0; i < w; i++ {
		p.kick <- r
	}
	r.wg.Wait()
	r.jobs = nil
	for i := range jobs {
		if jobs[i].Err != nil {
			return fmt.Errorf("netlist: sweep job %d: %w", i, jobs[i].Err)
		}
	}
	return nil
}

// Close stops the worker crew (waiting out an in-flight RunBatch). The
// pool cannot run batches afterwards; Get/Put keep working.
func (p *SystemPool) Close() {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.closed.CompareAndSwap(false, true) {
		p.spawn.Do(func() {}) // never spawned: closing the channel suffices
		close(p.kick)
	}
}

// packSize is how many jobs a RunBatch worker claims at a time: as many
// whole streams as fit in one sysChunkMax-iteration chunk when the pool
// runs the default path, its data path has no feedback latch and its
// plan's schedule is clean; one in every other case, or when fewer than
// two streams fit.
func (p *SystemPool) packSize() int {
	pl := p.plan
	if p.cfg.Serial || len(p.dpath.Feedbacks) > 0 || pl.total == 0 || pl.scheduleFor().err != nil {
		return 1
	}
	return max(sysChunkMax/pl.total, 1)
}

// worker is one persistent shard: parked on the kick channel, it drains
// unclaimed jobs, a pack at a time, on a System borrowed from the pool
// for the whole batch. A one-job claim runs through RunJob, a longer
// one through runPack.
func (p *SystemPool) worker() {
	for r := range p.kick {
		sys, err := p.Get()
		for {
			i := int(r.next.Add(int64(r.pack))) - r.pack
			if i >= len(r.jobs) {
				break
			}
			pack := r.jobs[i:min(i+r.pack, len(r.jobs))]
			switch {
			case err != nil:
				for j := range pack {
					pack[j].Err = err
				}
			case len(pack) == 1:
				pack[0].Err = sys.RunJob(&pack[0])
			default:
				sys.runPack(pack)
			}
		}
		p.Put(sys)
		r.wg.Done()
	}
}

// RunJob streams one job through the System: Reset, LoadInput, Run,
// harvest. Reset keeps input BRAM contents and LoadInput overwrites
// only a prefix, so every input BRAM is zeroed past the job's array
// (all of it when the job carries none): a reused System then computes
// exactly what a fresh one would, whatever an earlier job — from any
// client — left in it. RunJob does not set job.Err, and a failed run
// leaves job.Cycles alone. On a serial interp System it is the
// reference every differential check compares against (DiffJob).
//
// Names bind to plan slots: each read port, write port and latch name
// costs one map lookup, and a reused Job iterates no map. A kernel
// reads and writes each (uniquely named) array through one port, so the
// job's maps are walked only when their sizes show a name the kernel
// does not have — an unknown input array, which fails the stream, or
// result keys from another kernel, which are purged.
func (s *System) RunJob(job *Job) error {
	s.Reset()
	if err := s.loadJob(job); err != nil {
		return err
	}
	if _, err := s.Run(); err != nil {
		return err
	}
	job.Cycles = s.Cycles()
	s.jobOutputs(job)
	for i := range s.plan.writes {
		copy(job.Outputs[s.plan.writes[i].arrName], s.writeBRAMs[i].Data)
	}
	s.jobLatches(job)
	return nil
}

// loadJob loads a job's input arrays into the read BRAMs, each zeroed
// past the job's array, and fails on an array longer than its BRAM or a
// name that matches no read port.
func (s *System) loadJob(job *Job) error {
	p := s.plan
	matched := 0
	for i := range p.reads {
		vals, ok := job.Inputs[p.reads[i].arrName]
		if ok {
			matched++
		}
		m := s.readBRAMs[i]
		if err := checkLoad(m, vals); err != nil {
			return err
		}
		m.Load(vals)
		clear(m.Data[len(vals):])
	}
	if matched < len(job.Inputs) {
		// A job array name matches no read port: LoadInput returns the
		// error for it.
		for name, vals := range job.Inputs {
			if err := s.LoadInput(name, vals); err != nil {
				return err
			}
		}
	}
	return nil
}

// jobOutputs readies job.Outputs for this kernel's results: one slice
// per output array, sized to the array (reused when it already is), and
// no other key. A Job recycled across kernels may carry keys this
// kernel never writes. Every output name is in the map after the
// sizing, so it holds foreign keys exactly when it is larger: purge
// them, so the result holds this run's arrays alone.
func (s *System) jobOutputs(job *Job) {
	p := s.plan
	if job.Outputs == nil {
		job.Outputs = make(map[string][]int64, len(p.writes))
	}
	for i := range p.writes {
		name, n := p.writes[i].arrName, p.writes[i].arrLen
		if len(job.Outputs[name]) != n {
			job.Outputs[name] = make([]int64, n)
		}
	}
	if len(job.Outputs) != len(p.writes) {
		for name := range job.Outputs {
			if _, ok := s.outBRAMs[name]; !ok {
				delete(job.Outputs, name)
			}
		}
	}
}

// jobLatches reads every feedback latch's final value into
// job.Feedbacks, and purges names this data path lacks: one Feedback
// per state variable, so only a map of another size can hold one.
func (s *System) jobLatches(job *Job) {
	fbs := s.Datapath.Feedbacks
	if len(fbs) > 0 && job.Feedbacks == nil {
		job.Feedbacks = make(map[string]int64, len(fbs))
	}
	for _, fb := range fbs {
		if v, ok := s.sim.FeedbackByName(fb.State.Name); ok {
			job.Feedbacks[fb.State.Name] = v
		}
	}
	if len(job.Feedbacks) != len(fbs) {
		for name := range job.Feedbacks {
			if _, ok := s.sim.FeedbackByName(name); !ok {
				delete(job.Feedbacks, name)
			}
		}
	}
}
