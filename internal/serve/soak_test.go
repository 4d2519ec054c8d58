package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
)

// soakRef is one precomputed request/response pair: the stream's
// inputs and its serial interp reference result (System.RunJob), which
// every served response must match under netlist.DiffJob.
type soakRef struct {
	kernel string
	netlist.Job
}

// buildSoakRefs compiles each spec once and runs every seed serially —
// the bit-exact baseline the soak clients check against.
func buildSoakRefs(t *testing.T, specs []KernelSpec, seeds int) []soakRef {
	t.Helper()
	var refs []soakRef
	for _, spec := range specs {
		res, err := core.CompileSource(spec.Source, spec.Func, spec.Options)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		sys, err := netlist.NewSystem(res.Kernel, res.Datapath, refConfig(spec.Config))
		if err != nil {
			t.Logf("soak: skipping %s (not streamable: %v)", spec.Name, err)
			continue
		}
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)*7919 + 1))
			ref := soakRef{kernel: spec.Name, Job: netlist.Job{Inputs: map[string][]int64{}}}
			for _, w := range res.Kernel.Reads {
				vals := make([]int64, w.Arr.Len())
				for i := range vals {
					vals[i] = rng.Int63n(255) - 128
				}
				if spec.Name == "soak_divide" {
					// Keep divisors nonzero on even seeds; odd seeds plant
					// one zero on a valid iteration — a guaranteed fault.
					if w.Arr.Name == "B" {
						for i := range vals {
							vals[i] = rng.Int63n(97) + 1
						}
						if seed%2 == 1 {
							vals[rng.Intn(len(vals))] = 0
						}
					}
				}
				ref.Inputs[w.Arr.Name] = vals
			}
			ref.Err = sys.RunJob(&ref.Job)
			if ref.Err != nil && !errors.As(ref.Err, new(*dp.FaultError)) {
				t.Fatalf("%s seed %d: unexpected serial error: %v", spec.Name, seed, ref.Err)
			}
			refs = append(refs, ref)
		}
	}
	return refs
}

// checkSoak compares one served stream against its reference.
func checkSoak(job *netlist.Job, ref *soakRef) error {
	if err := netlist.DiffJob(job, &ref.Job); err != nil {
		return fmt.Errorf("%s: served %w", ref.kernel, err)
	}
	return nil
}

// TestServeSoak hammers a live server with concurrent TCP clients
// streaming the Table 1 kernels (and a guaranteed-fault divider) for a
// wall-clock budget, asserting zero dropped and zero mismatched
// responses. The budget defaults to a quick smoke locally; CI sets
// ROCCC_SOAK (e.g. "15s") and runs it under -race.
func TestServeSoak(t *testing.T) {
	budget := 1500 * time.Millisecond
	if testing.Short() {
		budget = 300 * time.Millisecond
	}
	if env := os.Getenv("ROCCC_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("ROCCC_SOAK=%q: %v", env, err)
		}
		budget = d
	}

	specs := Table1Specs()
	specs = append(specs, KernelSpec{
		Name: "soak_divide", Source: dividerSource, Func: "divide",
		Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1},
	})
	refs := buildSoakRefs(t, specs, 4)
	if len(refs) < 8 {
		t.Fatalf("only %d soak references built", len(refs))
	}

	srv := NewServer(0)
	for _, spec := range specs {
		if err := srv.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	clients := min(8, max(2, runtime.GOMAXPROCS(0)))
	deadline := time.Now().Add(budget)
	var requested, answered atomic.Int64
	var next atomic.Int64
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := dial(ln.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			// Per-client reusable batch: the same Job slots host every
			// request, exercising response-buffer reuse under load.
			const batch = 3
			jobs := make([]netlist.Job, batch)
			picked := make([]*soakRef, batch)
			for time.Now().Before(deadline) {
				sameKernel := refs[int(next.Add(1))%len(refs)].kernel
				n := 0
				for _, r := range pickRefs(refs, sameKernel) {
					if n == batch {
						break
					}
					picked[n] = r
					jobs[n] = netlist.Job{Inputs: r.Inputs,
						Outputs: jobs[n].Outputs, Feedbacks: jobs[n].Feedbacks}
					n++
				}
				requested.Add(int64(n))
				err := conn.Run(sameKernel, jobs[:n])
				if err != nil && !isExpectedFaultBatch(picked[:n]) {
					errCh <- fmt.Errorf("%s: %v", sameKernel, err)
					return
				}
				for i := 0; i < n; i++ {
					if err := checkSoak(&jobs[i], picked[i]); err != nil {
						errCh <- err
						return
					}
					answered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if requested.Load() != answered.Load() {
		t.Fatalf("dropped responses: %d requested, %d answered", requested.Load(), answered.Load())
	}
	if answered.Load() == 0 {
		t.Fatal("soak answered zero streams")
	}
	streams, faults := srv.Served()
	t.Logf("soak: %d clients, %d streams served (%d faults) in %s", clients, streams, faults, budget)
}

// TestServeSoakPipelined is the v2 soak: M pipelined connections, each
// shared by K goroutines issuing concurrent requests with mixed kernels
// and guaranteed faults, while a rude client loop opens raw connections,
// delivers partial requests and hangs up. Zero dropped responses, zero
// cross-wired bits (every response must match its own request's serial
// ground truth), every connection still healthy, and every pool balanced
// (Gets == Puts + Rejected) once the server drains.
func TestServeSoakPipelined(t *testing.T) {
	budget := 1500 * time.Millisecond
	if testing.Short() {
		budget = 300 * time.Millisecond
	}
	if env := os.Getenv("ROCCC_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("ROCCC_SOAK=%q: %v", env, err)
		}
		budget = d
	}

	specs := Table1Specs()
	specs = append(specs, KernelSpec{
		Name: "soak_divide", Source: dividerSource, Func: "divide",
		Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1},
	})
	refs := buildSoakRefs(t, specs, 4)
	if len(refs) < 8 {
		t.Fatalf("only %d soak references built", len(refs))
	}

	srv := NewServer(0)
	for _, spec := range specs {
		if err := srv.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	nconns := min(4, max(2, runtime.GOMAXPROCS(0)))
	const perConn = 3 // request goroutines sharing each connection
	conns := make([]*Conn, nconns)
	for i := range conns {
		if conns[i], err = dial(ln.Addr().String(), WithPipelined(0)); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
	}

	deadline := time.Now().Add(budget)
	var requested, answered atomic.Int64
	var next atomic.Int64
	errCh := make(chan error, nconns*perConn+1)
	var wg sync.WaitGroup

	// The rude neighbor: raw connections that promise streams, deliver a
	// partial request and vanish — pipelined traffic on the healthy
	// connections must not notice.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return // listener closing under a tight budget
			}
			var e encoder
			e.begin(frameOpen, 9)
			e.str8("fir")
			e.u32(3)
			c.Write(e.finish())
			if i%2 == 0 { // half the time, one real stream before vanishing
				e.begin(frameStream, 9)
				e.u32(0)
				e.u16(1)
				e.str8("A")
				e.vals(refs[0].Inputs["A"])
				c.Write(e.finish())
			}
			c.Close()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for ci := range conns {
		for w := 0; w < perConn; w++ {
			wg.Add(1)
			go func(conn *Conn, w int) {
				defer wg.Done()
				const batch = 3
				jobs := make([]netlist.Job, batch)
				picked := make([]*soakRef, batch)
				for it := 0; time.Now().Before(deadline); it++ {
					if w == 0 && it%7 == 3 {
						if err := conn.Ping(); err != nil {
							errCh <- fmt.Errorf("ping: %w", err)
							return
						}
					}
					sameKernel := refs[int(next.Add(1))%len(refs)].kernel
					n := 0
					for _, r := range pickRefs(refs, sameKernel) {
						if n == batch {
							break
						}
						picked[n] = r
						jobs[n] = netlist.Job{Inputs: r.Inputs,
							Outputs: jobs[n].Outputs, Feedbacks: jobs[n].Feedbacks}
						n++
					}
					requested.Add(int64(n))
					err := conn.Run(sameKernel, jobs[:n])
					if err != nil && !isExpectedFaultBatch(picked[:n]) {
						errCh <- fmt.Errorf("%s: %v", sameKernel, err)
						return
					}
					for i := 0; i < n; i++ {
						if err := checkSoak(&jobs[i], picked[i]); err != nil {
							errCh <- err
							return
						}
						answered.Add(1)
					}
				}
			}(conns[ci], w)
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
	if requested.Load() != answered.Load() {
		t.Fatalf("dropped responses: %d requested, %d answered", requested.Load(), answered.Load())
	}
	if answered.Load() == 0 {
		t.Fatal("pipelined soak answered zero streams")
	}
	for i, c := range conns {
		if !c.Healthy() {
			t.Errorf("connection %d poisoned by the soak", i)
		}
	}
	if err := srv.Balanced(10 * time.Second); err != nil {
		t.Errorf("after the soak: %v", err)
	}
	streams, faults := srv.Served()
	t.Logf("pipelined soak: %d conns x %d goroutines, %d streams served (%d faults) in %s",
		nconns, perConn, streams, faults, budget)
}

// pickRefs returns every reference for one kernel (a request carries
// streams for a single kernel).
func pickRefs(refs []soakRef, kernel string) []*soakRef {
	var out []*soakRef
	for i := range refs {
		if refs[i].kernel == kernel {
			out = append(out, &refs[i])
		}
	}
	return out
}

// isExpectedFaultBatch reports whether any picked reference faults (then
// Run's non-nil error is the contract, not a soak failure).
func isExpectedFaultBatch(picked []*soakRef) bool {
	for _, r := range picked {
		if r != nil && r.Err != nil {
			return true
		}
	}
	return false
}
