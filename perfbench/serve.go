package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"roccc/client"
	"roccc/internal/fleet"
	"roccc/internal/netlist"
	"roccc/internal/serve"
)

// Serve sizing: callersPerConn callers share each of nproc pipelined
// connections; each caller owns serveTemplates input templates per
// kernel. Shard slots exceed the caller count, so admission control
// never sheds by design, and one request in longEvery is a long stream
// and one a divider request with a planted zero divisor.
const (
	callersPerConn = 4
	serveTemplates = 2
	fleetShards    = 2
	longEvery      = 100
)

// fleetTopo is the rocccserve -shards 2 layout in process: a front
// serve.Server dispatching through a fleet.Router to worker servers.
type fleetTopo struct {
	front  *serve.Server
	shards []*serve.Server
	router *fleet.Router
	ln     net.Listener
	done   chan error
}

func kernelSpec(k *kernel) serve.KernelSpec {
	return serve.KernelSpec{Name: k.name, Source: k.src, Func: k.fn, Options: k.opt, Config: k.cfg}
}

// startFleet registers ks on every worker shard and serves the front on
// a loopback port. wrap, when set, interposes on the router as the
// front server's dispatcher.
func startFleet(ks []*kernel, slots int, wrap func(*fleet.Router) serve.Dispatcher) (*fleetTopo, error) {
	t := &fleetTopo{front: serve.NewServer(0)}
	fs := make([]fleet.Shard, fleetShards)
	for i := range fs {
		s := serve.NewServer(0)
		for _, k := range ks {
			if err := s.Register(kernelSpec(k)); err != nil {
				return nil, err
			}
		}
		t.shards = append(t.shards, s)
		fs[i] = fleet.Shard{Local: s, Slots: slots}
	}
	r, err := fleet.NewRouter(fs)
	if err != nil {
		return nil, err
	}
	t.router = r
	var d serve.Dispatcher = r
	if wrap != nil {
		d = wrap(r)
	}
	t.front.SetDispatcher(d)
	if t.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	t.done = make(chan error, 1)
	go func() { t.done <- t.front.Serve(t.ln) }()
	return t, nil
}

// close drains the front server, waits for Serve to return and drains
// the shards.
func (t *fleetTopo) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.front.Shutdown(ctx)
	if serr := <-t.done; err == nil {
		err = serr
	}
	t.router.Close()
	for _, s := range t.shards {
		if serr := s.Shutdown(ctx); err == nil {
			err = serr
		}
	}
	return err
}

// serveWorkload is a closed loop of callers, each waiting for its reply
// before sending the next request, as exp.FleetSweep uses RunContext.
type serveWorkload struct {
	cfg     *config
	ks      []*kernel
	short   []int // indices into ks
	long    []int
	div     int
	callers int
	// tmpl[c][k] are caller c's templates for kernel k; faults[c] its
	// planted-fault divider templates. owner maps a template's input
	// fingerprint to its caller, so server-side spans find their request.
	tmpl   [][][]*template
	faults [][]*template
	owner  map[uint64]int

	topo  *fleetTopo
	conns []*client.Conn
	disp  *tracedDispatcher
}

func newServeWorkload(cfg *config) (workload, error) {
	w := &serveWorkload{cfg: cfg, ks: streaming(cfg.kernels), callers: callersPerConn * cfg.nproc, div: -1,
		owner: map[uint64]int{}}
	for i, k := range w.ks {
		switch {
		case k.long:
			w.long = append(w.long, i)
		default:
			w.short = append(w.short, i)
		}
		if k.divisor != "" {
			w.div = i
		}
	}
	if w.div < 0 || len(w.long) == 0 {
		return nil, fmt.Errorf("kernel set lacks the divider or the long streams")
	}
	for c := 0; c < w.callers; c++ {
		rng := rand.New(rand.NewSource(cfg.seed*104729 + int64(c)))
		per := make([][]*template, len(w.ks))
		for i, k := range w.ks {
			for j := 0; j < serveTemplates; j++ {
				t, err := k.newTemplate(rng, false)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", k.name, err)
				}
				per[i] = append(per[i], t)
			}
		}
		var fs []*template
		for j := 0; j < serveTemplates; j++ {
			t, err := w.ks[w.div].newTemplate(rng, true)
			if err != nil {
				return nil, err
			}
			fs = append(fs, t)
		}
		w.tmpl = append(w.tmpl, per)
		w.faults = append(w.faults, fs)
		for _, ts := range append(per, fs) {
			for _, t := range ts {
				fp := inputFingerprint(t.inputs)
				if o, dup := w.owner[fp]; dup && o != c {
					return nil, fmt.Errorf("input fingerprint collision between callers %d and %d", o, c)
				}
				w.owner[fp] = c
			}
		}
	}
	return w, nil
}

func (w *serveWorkload) setup() error { return w.start(nil) }

// start builds the fleet, dials nproc pipelined connections and warms
// every kernel (compile on its shard, pool build) with one request per
// connection. tr, when set, installs the tracing dispatcher.
func (w *serveWorkload) start(tr *tracer) error {
	var wrap func(*fleet.Router) serve.Dispatcher
	w.disp = nil
	if tr != nil {
		w.disp = newTracedDispatcher(tr, w.owner, w.callers)
		wrap = func(r *fleet.Router) serve.Dispatcher { w.disp.router = r; return w.disp }
	}
	var err error
	if w.topo, err = startFleet(w.ks, 2*w.callers, wrap); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for c := 0; c < w.cfg.nproc; c++ {
		conn, err := client.DialContext(ctx, w.topo.ln.Addr().String(), client.WithPipelined(callersPerConn))
		if err != nil {
			return err
		}
		w.conns = append(w.conns, conn)
		for i, k := range w.ks {
			t := w.tmpl[c*callersPerConn][i][0]
			jobs := []client.Job{{Inputs: t.inputs}}
			err := conn.RunContext(ctx, k.name, jobs)
			if err == nil {
				err = t.check(jobs[0].Outputs, jobs[0].Feedbacks, jobs[0].Cycles, w.cfg.exact.Cycles[k.name], jobs[0].Err)
			}
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", k.name, err)
			}
		}
	}
	return nil
}

func (w *serveWorkload) teardown() {
	for _, c := range w.conns {
		c.Close()
	}
	w.conns = nil
	if w.topo != nil {
		if err := w.topo.close(); err != nil {
			fmt.Fprintln(os.Stderr, "fleet shutdown:", err) // stdout's last line is the result
		}
		w.topo = nil
	}
}

type callerResult struct {
	attempted, failed, ok int
	firstErr              error
	lat                   histogram
}

func (w *serveWorkload) measure(d time.Duration, tr *tracer) (*measurement, error) {
	if tr != nil {
		w.teardown()
		if err := w.start(tr); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), d+30*time.Second)
	defer cancel()
	before := w.topo.router.Metrics()
	mem := startMem()
	start := time.Now()
	deadline := start.Add(d)
	res := make([]callerResult, w.callers)
	var wg sync.WaitGroup
	for c := range res {
		var ct *tracer
		if tr != nil {
			ct = w.disp.tracers[c]
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.caller(ctx, c, deadline, ct, &res[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	m := &measurement{layer: map[string]float64{}}
	var lat histogram
	ok := 0
	for _, r := range res {
		m.attempted += r.attempted
		m.failed += r.failed
		ok += r.ok
		if m.firstErr == nil {
			m.firstErr = r.firstErr
		}
		lat.merge(&r.lat)
	}
	mem.stop(m.layer, m.attempted)
	m.rate = float64(ok) / elapsed.Seconds()
	m.p50, m.p99, m.samples = lat.quantileMs(0.50), lat.quantileMs(0.99), lat.n

	after := w.topo.router.Metrics()
	var sheds, total, busiest int64
	for i, sh := range after.Shards {
		n := sh.Streams - before.Shards[i].Streams
		sheds += sh.Sheds - before.Shards[i].Sheds
		total += n
		busiest = max(busiest, n)
	}
	m.layer["fleet.sheds"] = float64(sheds)
	m.layer["fleet.busiest_shard_share"] = float64(busiest) / float64(max(total, 1))
	var built, gets int64
	for _, s := range w.topo.shards {
		for _, st := range s.Stats() {
			built += st.Built
			gets += st.Gets
		}
	}
	m.layer["pool.reuse_frac"] = 1 - float64(built)/float64(max(gets, 1))
	return m, nil
}

// caller is one closed-loop client: request n is a long stream when
// (n+offset) mod longEvery is 0, a planted-fault divider request when
// it is longEvery/2, and a short stream of a seeded kernel otherwise.
func (w *serveWorkload) caller(ctx context.Context, c int, deadline time.Time, tr *tracer, r *callerResult) {
	rng := rand.New(rand.NewSource(w.cfg.seed*31337 + int64(c)))
	conn := w.conns[c/callersPerConn]
	offset := rng.Intn(longEvery)
	jobs := make([][]client.Job, len(w.ks))
	for i := range jobs {
		jobs[i] = make([]client.Job, 1)
	}
	for n := 0; time.Now().Before(deadline); n++ {
		var i int
		var t *template
		switch (n + offset) % longEvery {
		case 0:
			i = w.long[rng.Intn(len(w.long))]
			t = w.tmpl[c][i][rng.Intn(serveTemplates)]
		case longEvery / 2:
			i = w.div
			t = w.faults[c][rng.Intn(serveTemplates)]
		default:
			i = w.short[rng.Intn(len(w.short))]
			t = w.tmpl[c][i][rng.Intn(serveTemplates)]
		}
		k, job := w.ks[i], &jobs[i][0]
		job.Inputs = t.inputs
		var s int32
		if tr != nil {
			id := uint64(c)<<40 | uint64(n)
			s = tr.begin("client.run", id, -1)
			w.disp.span[c].Store(s)
			w.disp.id[c].Store(id)
		}
		start := time.Now()
		err := conn.RunContext(ctx, k.name, jobs[i])
		el := time.Since(start)
		if tr != nil {
			tr.end(s)
			w.disp.span[c].Store(-1)
			tr.flush()
		}
		r.attempted++
		if job.Err != nil {
			err = job.Err
		}
		if cerr := t.check(job.Outputs, job.Feedbacks, job.Cycles, w.cfg.exact.Cycles[k.name], err); cerr != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("caller %d request %d (%s): %w", c, n, k.name, cerr)
			}
			if errors.Is(cerr, context.DeadlineExceeded) {
				return
			}
			continue
		}
		r.ok++
		r.lat.record(el)
	}
}

// inputFingerprint hashes each input array's name, length and first
// values; the per-array hashes are XORed so map order does not matter.
func inputFingerprint(inputs map[string][]int64) uint64 {
	var fp uint64
	for name, vals := range inputs {
		h := fnvHash(14695981039346656037)
		h.str(name)
		for _, v := range vals[:min(8, len(vals))] {
			for b := 0; b < 64; b += 8 {
				h = (h ^ fnvHash(byte(v>>b))) * 1099511628211
			}
		}
		fp ^= uint64(h) + uint64(len(vals))
	}
	return fp
}

// tracedDispatcher is the benchmark-side serve.Dispatcher the traced
// serve run installs on the front server: it times the front server's
// calls into Router.Dispatch and the resolved Runner's RunStream, and
// records both on the caller's tracer as children of its client.run
// span, finding the caller through the stream's input fingerprint.
type tracedDispatcher struct {
	router  *fleet.Router
	tracers []*tracer      // one per caller, forked from the run's tracer
	owner   map[uint64]int // read-only after construction
	span    []atomic.Int32 // per caller: the open client.run span, or -1
	id      []atomic.Uint64
}

func newTracedDispatcher(tr *tracer, owner map[uint64]int, callers int) *tracedDispatcher {
	d := &tracedDispatcher{owner: owner,
		span: make([]atomic.Int32, callers), id: make([]atomic.Uint64, callers)}
	for c := range d.span {
		d.tracers = append(d.tracers, tr.fork())
		d.span[c].Store(-1) // set-up warm-up requests have no client.run span
	}
	return d
}

func (d *tracedDispatcher) Dispatch(kernel string) (serve.Runner, error) {
	tr := d.tracers[0]
	start := tr.now()
	r, err := d.router.Dispatch(kernel)
	end := tr.now()
	if err != nil {
		return nil, err
	}
	return &tracedRunner{d: d, inner: r, start: start, end: end}, nil
}

type tracedRunner struct {
	d          *tracedDispatcher
	inner      serve.Runner
	start, end int64 // the Dispatch call that resolved this runner
}

func (r *tracedRunner) RunStream(job *netlist.Job) error {
	d := r.d
	start := d.tracers[0].now()
	err := r.inner.RunStream(job)
	end := d.tracers[0].now()
	c, ok := d.owner[inputFingerprint(job.Inputs)]
	if !ok {
		return err
	}
	if parent := d.span[c].Load(); parent >= 0 {
		id := d.id[c].Load()
		d.tracers[c].add("fleet.dispatch", id, parent, r.start, r.end)
		d.tracers[c].add("fleet.runstream", id, parent, start, end)
	}
	return err
}
