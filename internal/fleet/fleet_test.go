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

// startLocal serves a NewLocal fleet's front on a loopback port and
// shuts the fleet down when the test ends.
func startLocal(t *testing.T, specs []serve.KernelSpec, shards, slots, frontWidth int) (*Local, string) {
	t.Helper()
	l, err := NewLocal(specs, shards, slots, frontWidth)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go l.Front.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		l.Shutdown(ctx)
	})
	return l, ln.Addr().String()
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
	runner, err := a.Dispatch("fir")
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.RunStream(&netlist.Job{Inputs: firInputs(1)}); err != nil {
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

// TestFleetRefusesUnservableAtOpen: a kernel that compiles but has no
// loop nest is refused when its request opens, with the error a plain
// server gives, and no shard admits a stream of it.
func TestFleetRefusesUnservableAtOpen(t *testing.T) {
	spec := serve.KernelSpec{
		Name: "comb", Source: "void comb(int8 x, int16* y) { *y = x * 3; }", Func: "comb",
		Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1},
	}
	plain := serve.NewServer(1)
	if err := plain.Register(spec); err != nil {
		t.Fatal(err)
	}
	want := plain.Ready("comb")
	if want == nil || !strings.Contains(want.Error(), "no loop nest") {
		t.Fatalf("plain server: Ready = %v, want the no-loop-nest refusal", want)
	}

	l, addr := startLocal(t, []serve.KernelSpec{spec}, 2, 2, 4)
	conn, err := serve.DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	jobs := make([]netlist.Job, 2)
	err = conn.Run("comb", jobs)
	if err == nil || !strings.Contains(err.Error(), "request failed: "+want.Error()) {
		t.Fatalf("Run = %v, want the request-level refusal %q", err, want)
	}
	for i := range jobs {
		if jobs[i].Err != nil {
			t.Errorf("stream %d: %v, want no stream-level error", i, jobs[i].Err)
		}
	}
	m := l.Router.Metrics()
	for _, sh := range m.Shards {
		if sh.Streams != 0 || sh.Server.Served != 0 {
			t.Errorf("shard %d admitted %d streams and served %d", sh.Index, sh.Streams, sh.Server.Served)
		}
	}
	if len(m.Kernels) != 0 {
		t.Errorf("refused kernel cached a route: %+v", m.Kernels)
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

// TestFleetShardedSoak: pipelined clients hammer a front-end that
// dispatches through the router into small-slotted shards. Every stream
// is either bit-identical to its serial reference or a typed BusyError
// shed; nothing is dropped, every shard pool balances afterwards, and
// no pool built more Systems than its shard has slots.
func TestFleetShardedSoak(t *testing.T) {
	const slots = 2
	specs := testSpecs()
	l, addr := startLocal(t, specs, 2, slots, 4)
	r := l.Router

	// Serial ground truth per kernel (fixed inputs: the soak hammers
	// concurrency, not input variety).
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
		conn, err := serve.DialContext(context.Background(), addr, serve.WithPipelined(0))
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
	if err := l.Balanced(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, s := range l.Shards {
		for name, st := range s.Stats() {
			// The slot budget is the pool's only bound: a shard never
			// runs more streams at once than it has slots.
			if st.Built > slots {
				t.Errorf("shard %d pool %s built %d Systems, above the shard's %d slots", i, name, st.Built, slots)
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
