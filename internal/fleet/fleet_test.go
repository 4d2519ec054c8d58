package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roccc/internal/core"
	"roccc/internal/netlist"
	"roccc/internal/serve"
)

const firSource = `
int A[21];
int C[17];
void fir() {
	int i;
	for (i = 0; i < 17; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`

const accumSource = `
int A[32];
int sum;
void accum() {
	int i;
	sum = 0;
	for (i = 0; i < 32; i++) {
		sum = sum + A[i];
	}
}
`

const dividerSource = `
int A[24];
int B[24];
int Q[24];
void divide() {
	int i;
	for (i = 0; i < 24; i++) {
		Q[i] = A[i] / B[i];
	}
}
`

func testSpecs() []serve.KernelSpec {
	return []serve.KernelSpec{
		{Name: "fir", Source: firSource, Func: "fir", Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1}},
		{Name: "accum", Source: accumSource, Func: "accum", Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1}},
		{Name: "divide", Source: dividerSource, Func: "divide", Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1}},
	}
}

func firInputs(seed int64) map[string][]int64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]int64, 21)
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	return map[string][]int64{"A": in}
}

func divInputs(seed int64) map[string][]int64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]int64, 24)
	b := make([]int64, 24)
	for i := range a {
		a[i] = rng.Int63n(255) - 128
		b[i] = rng.Int63n(96) + 1 // nonzero divisors: no faults in fleet tests
	}
	return map[string][]int64{"A": a, "B": b}
}

// serialRun executes one stream through a private serial interp System
// (System.RunJob) — the reference fleet routing must match under
// netlist.DiffJob.
func serialRun(t *testing.T, spec serve.KernelSpec, inputs map[string][]int64) *netlist.Job {
	t.Helper()
	res, err := core.CompileSource(spec.Source, spec.Func, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config
	cfg.Serial = true
	sys, err := netlist.NewSystem(res.Kernel, res.Datapath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := &netlist.Job{Inputs: inputs}
	if err := sys.RunJob(job); err != nil {
		t.Fatal(err)
	}
	return job
}

// workers brings up n in-process shard servers with the test kernels.
func workers(t *testing.T, n, width int) []*serve.Server {
	t.Helper()
	srvs := make([]*serve.Server, n)
	for i := range srvs {
		srvs[i] = serve.NewServer(width)
		for _, spec := range testSpecs() {
			if err := srvs[i].Register(spec); err != nil {
				t.Fatal(err)
			}
		}
		srv := srvs[i]
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	return srvs
}

// TestRouterShardFor: the ring must be deterministic across router
// instances with the same topology, cover every shard given enough
// names, and agree with Dispatch's placement.
func TestRouterShardFor(t *testing.T) {
	srvs := workers(t, 4, 1)
	mk := func() *Router {
		shards := make([]Shard, len(srvs))
		for i, s := range srvs {
			shards[i] = Shard{Local: s}
		}
		r, err := NewRouter(shards)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	hit := map[int]int{}
	for i := 0; i < 500; i++ {
		name := fmt.Sprintf("kernel-%d", i)
		sa, sb := a.ShardFor(name), b.ShardFor(name)
		if sa != sb {
			t.Fatalf("%s: shard %d on one router, %d on its twin", name, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("%s: shard %d out of range", name, sa)
		}
		hit[sa]++
	}
	if len(hit) != 4 {
		t.Fatalf("500 names landed on only %d of 4 shards: %v", len(hit), hit)
	}
	for s, n := range hit {
		if n > 350 { // a shard owning >70% of names means the ring skewed
			t.Fatalf("shard %d owns %d of 500 names: %v", s, n, hit)
		}
	}
	// Dispatch places streams where ShardFor says.
	jobs := []netlist.Job{{Inputs: firInputs(1)}}
	if err := a.Run("fir", jobs); err != nil {
		t.Fatal(err)
	}
	want := a.ShardFor("fir")
	for _, kr := range a.Metrics().Kernels {
		if kr.Kernel == "fir" && kr.Shard != want {
			t.Fatalf("fir routed to shard %d, ring says %d", kr.Shard, want)
		}
	}
}

// TestRouterDispatchUnknown: a kernel the owning shard does not know is
// refused at open — and not cached, so registering it later makes it
// servable without a router rebuild.
func TestRouterDispatchUnknown(t *testing.T) {
	srvs := workers(t, 2, 1)
	r, err := NewRouter([]Shard{{Local: srvs[0]}, {Local: srvs[1]}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Dispatch("late_kernel")
	if err == nil || !strings.Contains(err.Error(), `unknown kernel "late_kernel"`) {
		t.Fatalf("err = %v, want unknown-kernel", err)
	}
	owner := srvs[r.ShardFor("late_kernel")]
	if err := owner.Register(serve.KernelSpec{Name: "late_kernel", Source: firSource, Func: "fir",
		Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Dispatch("late_kernel"); err != nil {
		t.Fatalf("dispatch after late registration: %v", err)
	}
}

// TestRouterAdmissionShed: a stream arriving at a saturated shard is
// shed immediately with a typed serve.BusyError naming the kernel and
// shard; once slots free up, the same route serves again.
func TestRouterAdmissionShed(t *testing.T) {
	srvs := workers(t, 1, 2)
	r, err := NewRouter([]Shard{{Local: srvs[0], Slots: 2}})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := r.Dispatch("fir")
	if err != nil {
		t.Fatal(err)
	}

	sh := r.shards[0]
	sh.inflight.Add(2) // saturate the slot budget
	job := netlist.Job{Inputs: firInputs(3)}
	if err := runner.RunStream(&job); err == nil {
		t.Fatal("saturated shard admitted a stream")
	}
	var be *serve.BusyError
	if !errors.As(job.Err, &be) || be.Kernel != "fir" || be.Shard != 0 {
		t.Fatalf("job.Err = %v, want a typed BusyError for fir/shard 0", job.Err)
	}
	if got := sh.sheds.Load(); got != 1 {
		t.Fatalf("sheds = %d, want 1", got)
	}
	if got := r.Metrics().Shards[0].Sheds; got != 1 {
		t.Fatalf("metrics sheds = %d, want 1", got)
	}

	sh.inflight.Add(-2)
	job = netlist.Job{Inputs: firInputs(3)}
	if err := runner.RunStream(&job); err != nil {
		t.Fatalf("stream after slots freed: %v", err)
	}
	if err := netlist.DiffJob(&job, serialRun(t, testSpecs()[0], firInputs(3))); err != nil {
		t.Fatalf("post-shed stream: %v", err)
	}
}

// TestRouterConnPool: Get/Put pool pipelined connections per TCP shard —
// reuse by identity, refuse in-process shards, drop poisoned conns.
func TestRouterConnPool(t *testing.T) {
	srvs := workers(t, 1, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srvs[0].Serve(ln)

	inproc, err := NewRouter([]Shard{{Local: srvs[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inproc.Get(0); err == nil || !strings.Contains(err.Error(), "in-process") {
		t.Fatalf("Get on an in-process shard: %v, want refusal", err)
	}

	r, err := NewRouter([]Shard{{Addr: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c1, err := r.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	r.Put(0, c1)
	if got := r.Metrics().Shards[0].IdleConns; got != 1 {
		t.Fatalf("idle conns = %d after Put, want 1", got)
	}
	c2, err := r.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("Get did not reuse the pooled connection")
	}
	// Poison it: Close waits for the reader to latch the transport error,
	// so Healthy is false and Put must drop it.
	c2.Close()
	r.Put(0, c2)
	if got := r.Metrics().Shards[0].IdleConns; got != 0 {
		t.Fatalf("idle conns = %d after putting a poisoned conn, want 0", got)
	}
	// Fresh dial still serves.
	c3, err := r.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []netlist.Job{{Inputs: firInputs(5)}}
	if err := c3.Run("fir", jobs); err != nil {
		t.Fatal(err)
	}
	r.Put(0, c3)
	r.Put(0, nil) // nil is a no-op, not a panic
	if got := r.Metrics().Shards[0].IdleConns; got != 1 {
		t.Fatalf("idle conns = %d, want 1", got)
	}
	r.Close()
	if got := r.Metrics().Shards[0].IdleConns; got != 0 {
		t.Fatalf("idle conns = %d after Close, want 0", got)
	}
}

// TestRouterEvictIdle: the residency cap holds per shard — coldest
// kernels lose their pools first, in-flight kernels are skipped, and
// evicted kernels come back on demand.
func TestRouterEvictIdle(t *testing.T) {
	srvs := workers(t, 2, 1)
	r, err := NewRouter([]Shard{{Local: srvs[0]}, {Local: srvs[1]}})
	if err != nil {
		t.Fatal(err)
	}
	ain := make([]int64, 32)
	for _, spec := range testSpecs() {
		in := firInputs(1)
		switch spec.Name {
		case "accum":
			in = map[string][]int64{"A": ain}
		case "divide":
			in = divInputs(2)
		}
		if err := r.Run(spec.Name, []netlist.Job{{Inputs: in}}); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
	resident := func() int {
		n := 0
		for _, s := range srvs {
			for _, info := range s.KernelInfos() {
				if info.Resident {
					n++
				}
			}
		}
		return n
	}
	before := resident()
	if before != len(testSpecs()) {
		t.Fatalf("%d pools resident after warming, want %d", before, len(testSpecs()))
	}

	evicted := r.EvictIdle(1)
	after := resident()
	for i, s := range srvs {
		n := 0
		for _, info := range s.KernelInfos() {
			if info.Resident {
				n++
			}
		}
		if n > 1 {
			t.Fatalf("shard %d still has %d resident pools past the cap", i, n)
		}
	}
	if evicted != before-after {
		t.Fatalf("EvictIdle reported %d, residency dropped by %d", evicted, before-after)
	}

	// An evicted kernel streams again transparently.
	jobs := []netlist.Job{{Inputs: firInputs(7)}}
	if err := r.Run("fir", jobs); err != nil {
		t.Fatalf("post-eviction run: %v", err)
	}
	if err := netlist.DiffJob(&jobs[0], serialRun(t, testSpecs()[0], firInputs(7))); err != nil {
		t.Fatalf("post-eviction run: %v", err)
	}
}

// TestRouterAutotune: each routed kernel's pool idle cap follows its
// observed concurrency high-water mark, never dropping below one, and
// each call opens a fresh observation window.
func TestRouterAutotune(t *testing.T) {
	srvs := workers(t, 1, 4)
	r, err := NewRouter([]Shard{{Local: srvs[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run("fir", []netlist.Job{{Inputs: firInputs(1)}}); err != nil {
		t.Fatal(err)
	}
	maxIdle := func() int {
		for _, info := range srvs[0].KernelInfos() {
			if info.Kernel == "fir" {
				return info.MaxIdle
			}
		}
		return -99
	}

	r.lmu.RLock()
	kl := r.load["fir"]
	r.lmu.RUnlock()
	kl.hwm.Store(5) // pretend the window peaked at 5 concurrent streams
	r.Autotune()
	if got := maxIdle(); got != 5 {
		t.Fatalf("idle cap = %d after a hwm-5 window, want 5", got)
	}
	// The window reset: with no traffic the next observation is idle, and
	// the cap floors at one warm System.
	r.Autotune()
	if got := maxIdle(); got != 1 {
		t.Fatalf("idle cap = %d after an idle window, want 1", got)
	}
}

// TestFleetRemoteShard: a TCP worker shard must serve bit-identically to
// serial System.Run, over pooled pipelined connections.
func TestFleetRemoteShard(t *testing.T) {
	srvs := workers(t, 1, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srvs[0].Serve(ln)
	r, err := NewRouter([]Shard{{Addr: ln.Addr().String(), Slots: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	jobs := make([]netlist.Job, 6)
	for i := range jobs {
		jobs[i] = netlist.Job{Inputs: firInputs(int64(20 + i))}
	}
	if err := r.Run("fir", jobs); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if err := netlist.DiffJob(&jobs[i], serialRun(t, testSpecs()[0], firInputs(int64(20+i)))); err != nil {
			t.Fatalf("stream %d via TCP shard: %v", i, err)
		}
	}
	m := r.Metrics()
	if m.Shards[0].InProcess || m.Shards[0].Streams != 6 {
		t.Fatalf("shard metrics = %+v, want 6 streams on a TCP shard", m.Shards[0])
	}
	if m.Shards[0].IdleConns != 1 {
		t.Fatalf("idle conns = %d after a serial batch, want 1 pooled", m.Shards[0].IdleConns)
	}
	if st := srvs[0].Stats()["fir"]; st.Gets != st.Puts+st.Rejected {
		t.Fatalf("remote shard pool unbalanced: %+v", st)
	}
}

// TestFleetShardedSoak: pipelined clients hammer a front-end that
// dispatches through the router into small-slotted shards. Every stream
// is either bit-identical to its serial reference or a typed BusyError
// shed; nothing is dropped, and every shard pool balances afterwards.
func TestFleetShardedSoak(t *testing.T) {
	srvs := workers(t, 2, 2)
	r, err := NewRouter([]Shard{{Local: srvs[0], Slots: 2}, {Local: srvs[1], Slots: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := serve.NewServer(4)
	front.SetDispatcher(r)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go front.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		front.Shutdown(ctx)
	})

	// Serial ground truth per kernel (fixed inputs: the soak hammers
	// concurrency, not input variety).
	specs := testSpecs()
	inputs := map[string]map[string][]int64{
		"fir":   firInputs(42),
		"accum": {"A": make([]int64, 32)},
	}
	for i := range inputs["accum"]["A"] {
		inputs["accum"]["A"][i] = int64(i*3 - 40)
	}
	inputs["divide"] = divInputs(8)
	wants := map[string]*netlist.Job{}
	for _, spec := range specs {
		wants[spec.Name] = serialRun(t, spec, inputs[spec.Name])
	}

	const conns = 2
	const perConn = 2
	const iters = 40
	var requested, answered, shed atomic.Int64
	errCh := make(chan error, conns*perConn)
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		conn, err := serve.DialPipelined(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for w := 0; w < perConn; w++ {
			wg.Add(1)
			go func(conn *serve.Conn, id int) {
				defer wg.Done()
				jobs := make([]netlist.Job, 2)
				for it := 0; it < iters; it++ {
					spec := specs[(id+it)%len(specs)]
					want := wants[spec.Name]
					for i := range jobs {
						jobs[i] = netlist.Job{Inputs: inputs[spec.Name],
							Outputs: jobs[i].Outputs, Feedbacks: jobs[i].Feedbacks}
					}
					requested.Add(int64(len(jobs)))
					err := conn.Run(spec.Name, jobs)
					for i := range jobs {
						var be *serve.BusyError
						switch {
						case jobs[i].Err == nil:
							if err := netlist.DiffJob(&jobs[i], want); err != nil {
								errCh <- fmt.Errorf("%s: %w", spec.Name, err)
								return
							}
							answered.Add(1)
						case errors.As(jobs[i].Err, &be):
							if be.Kernel != spec.Name {
								errCh <- fmt.Errorf("shed names kernel %q, requested %q", be.Kernel, spec.Name)
								return
							}
							shed.Add(1)
						default:
							errCh <- fmt.Errorf("%s: %v", spec.Name, jobs[i].Err)
							return
						}
					}
					if err != nil && shed.Load() == 0 {
						errCh <- fmt.Errorf("%s: run error with no shed or fault: %v", spec.Name, err)
						return
					}
				}
			}(conn, ci*perConn+w)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if requested.Load() != answered.Load()+shed.Load() {
		t.Fatalf("dropped streams: %d requested, %d answered, %d shed",
			requested.Load(), answered.Load(), shed.Load())
	}
	for i, s := range srvs {
		if !s.WaitIdle(5 * time.Second) {
			t.Fatalf("shard %d did not drain", i)
		}
		for name, st := range s.Stats() {
			if st.Gets != st.Puts+st.Rejected {
				t.Errorf("shard %d pool %s unbalanced: %+v", i, name, st)
			}
		}
	}
	var metricSheds int64
	for _, sm := range r.Metrics().Shards {
		metricSheds += sm.Sheds
	}
	if metricSheds != shed.Load() {
		t.Fatalf("router counted %d sheds, clients saw %d", metricSheds, shed.Load())
	}
	t.Logf("fleet soak: %d answered, %d shed across %d shards", answered.Load(), shed.Load(), r.Shards())
}
