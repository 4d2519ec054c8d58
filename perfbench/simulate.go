package main

import (
	"fmt"
	"math/rand"
	"time"

	"roccc"
)

// Simulate sizing: a kernel's batch gives each pool worker at least
// minPerWorker streams and at least iterPerWorker loop iterations, from
// 4 streams of the 4096-iteration FIR to 241 of the 17-iteration Fig. 3
// FIR, so simulation rather than the pool's worker wake-up dominates
// every batch. Streams are drawn from simTemplates seeded templates.
const (
	minPerWorker  = 4
	iterPerWorker = 4096
	simTemplates  = 4
)

// simulateWorkload sends batches of seeded streams for every streaming
// kernel through SystemPool.RunBatch, round after round, on one
// goroutine; the pools shard each batch over nproc workers. Compiling
// happens only in set-up.
type simulateWorkload struct {
	cfg       *config
	ks        []*kernel
	templates [][]*template

	res   []*roccc.Result
	pools []*roccc.SystemPool
	jobs  [][]roccc.SweepJob
}

func newSimulateWorkload(c *config) (workload, error) {
	w := &simulateWorkload{cfg: c, ks: streaming(c.kernels)}
	for i, k := range w.ks {
		rng := rand.New(rand.NewSource(c.seed*7919 + int64(i)))
		var ts []*template
		for j := 0; j < simTemplates; j++ {
			t, err := k.newTemplate(rng, false)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k.name, err)
			}
			ts = append(ts, t)
		}
		w.templates = append(w.templates, ts)
	}
	return w, nil
}

// setup compiles every streaming kernel, builds its pool and runs one
// warm-up batch through it.
func (w *simulateWorkload) setup() error {
	w.res, w.pools, w.jobs = nil, nil, nil
	for i, k := range w.ks {
		res, err := roccc.Compile(k.src, k.fn, k.opt)
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		pool, err := roccc.NewSystemPool(res, k.cfg, w.cfg.nproc)
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		// Stream j of every batch carries template j mod simTemplates.
		perWorker := max(minPerWorker, (iterPerWorker+k.iters-1)/k.iters)
		jobs := make([]roccc.SweepJob, perWorker*w.cfg.nproc)
		for j := range jobs {
			jobs[j].Inputs = w.templates[i][j%simTemplates].inputs
		}
		w.res = append(w.res, res)
		w.pools = append(w.pools, pool)
		w.jobs = append(w.jobs, jobs)
		if err := pool.RunBatch(jobs); err != nil {
			return fmt.Errorf("%s warm-up: %w", k.name, err)
		}
	}
	return nil
}

func (w *simulateWorkload) teardown() {
	for _, p := range w.pools {
		p.Close()
	}
	w.pools = nil
}

func (w *simulateWorkload) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	times := make(kernelTimes, len(w.ks))
	var rp *replayer
	if tr != nil {
		var err error
		if rp, err = newReplayer(w.ks, w.res); err != nil {
			return nil, err
		}
	}
	mem := startMem()
	deadline := time.Now().Add(d)
	var id uint64
	for time.Now().Before(deadline) {
		for i, k := range w.ks {
			id++
			m.attempted++
			var root int32
			if tr != nil {
				root = tr.begin("pool.runbatch", id, -1)
			}
			start := time.Now()
			err := w.pools[i].RunBatch(w.jobs[i])
			el := time.Since(start)
			if tr != nil {
				tr.end(root)
			}
			if err == nil {
				err = w.checkBatch(i)
			}
			if err == nil && rp != nil {
				err = rp.replay(i, w.templates[i][0], tr, id)
			}
			if tr != nil {
				tr.flush()
			}
			if err != nil {
				m.fail(fmt.Errorf("%s: %w", k.name, err))
				continue
			}
			times[i].record(el)
		}
	}
	mem.stop(m.layer, m.attempted)
	var built, gets int64
	for _, p := range w.pools {
		st := p.Stats()
		built += st.Built
		gets += st.Gets
	}
	m.layer["pool.reuse_frac"] = 1 - float64(built)/float64(max(gets, 1))
	for i, k := range w.ks {
		if times[i].n == 0 {
			return nil, fmt.Errorf("%s: no successful batch (first failure: %v)", k.name, m.firstErr)
		}
	}
	meds, p50, p99, n := times.summarize()
	rates := make([]float64, len(w.ks))
	for i, k := range w.ks {
		cycles := float64(len(w.jobs[i]) * w.cfg.exact.Cycles[k.name])
		rates[i] = cycles / (meds[i] / 1e3)
		m.rows = append(m.rows, row{"sim." + k.name + ".mcycles_per_s", rates[i] / 1e6, "Mcycles/s"})
	}
	m.p50, m.p99, m.samples = p50, p99, n
	m.rate = geomean(rates)
	return m, nil
}

// checkBatch compares every stream of kernel i's last batch with its
// template.
func (w *simulateWorkload) checkBatch(i int) error {
	k := w.ks[i]
	want := w.cfg.exact.Cycles[k.name]
	for j := range w.jobs[i] {
		job := &w.jobs[i][j]
		t := w.templates[i][j%simTemplates]
		if err := t.check(job.Outputs, job.Feedbacks, job.Cycles, want, job.Err); err != nil {
			return fmt.Errorf("stream %d: %w", j, err)
		}
	}
	return nil
}

// replayer splits a batch's time by layer on the traced run: one stream
// of the batch through a standalone System (LoadInput, Run, OutputInto)
// and the same iteration count through dp.Sim.RunBatch alone.
type replayer struct {
	ks   []*kernel
	sys  []*roccc.System
	sim  []*roccc.Sim
	rows [][][]int64
	outs []map[string][]int64
	fbs  map[string]int64
}

func newReplayer(ks []*kernel, res []*roccc.Result) (*replayer, error) {
	r := &replayer{ks: ks, fbs: map[string]int64{}}
	for i, k := range ks {
		sys, err := roccc.NewSystem(res[i], k.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		sim := roccc.NewSim(res[i])
		rng := rand.New(rand.NewSource(int64(i)))
		rows := make([][]int64, k.iters)
		for j := range rows {
			rows[j] = make([]int64, sim.InWidth())
			for c := range rows[j] {
				rows[j][c] = rng.Int63n(100) + 1 // nonzero: divisors never fault
			}
		}
		outs := map[string][]int64{}
		for _, wr := range res[i].Kernel.Writes {
			outs[wr.Arr.Name] = make([]int64, wr.Arr.Len())
		}
		r.sys = append(r.sys, sys)
		r.sim = append(r.sim, sim)
		r.rows = append(r.rows, rows)
		r.outs = append(r.outs, outs)
	}
	return r, nil
}

func (r *replayer) replay(i int, t *template, tr *tracer, id uint64) error {
	sys := r.sys[i]
	root := tr.begin("netlist.stream", id, -1)
	sys.Reset()
	s := tr.begin("netlist.load", id, root)
	for name, vals := range t.inputs {
		if err := sys.LoadInput(name, vals); err != nil {
			return err
		}
	}
	tr.end(s)
	s = tr.begin("netlist.run", id, root)
	sim, err := sys.Run()
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("netlist.harvest", id, root)
	for name, buf := range r.outs[i] {
		if err := sys.OutputInto(name, buf); err != nil {
			return err
		}
	}
	tr.end(s)
	tr.end(root)
	for _, name := range r.ks[i].feedback {
		r.fbs[name], _ = sim.FeedbackByName(name)
	}
	if err := t.check(r.outs[i], r.fbs, 0, 0, nil); err != nil {
		return fmt.Errorf("replayed stream: %w", err)
	}

	ds := r.sim[i]
	ds.Reset()
	s = tr.begin("dp.compute", id, -1)
	_, err = ds.RunBatch(r.rows[i])
	tr.end(s)
	return err
}
