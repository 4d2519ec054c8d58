package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"roccc/internal/core"
)

// firJobs builds n FIR input streams (seeded, so serial and sharded
// runs see identical data) with reusable output buffers.
func firJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		in := make([]int64, 21)
		for j := range in {
			in[j] = rng.Int63n(255) - 128
		}
		jobs[i] = Job{Inputs: map[string][]int64{"A": in}}
	}
	return jobs
}

// TestSystemPoolRunBatch shards a sweep of independent FIR streams
// across the pool and checks every stream against a serially-run
// System over the same inputs.
func TestSystemPoolRunBatch(t *testing.T) {
	res, sys := buildSystem(t, firSource, "fir", core.Options{Optimize: true, PeriodNs: 5}, Config{BusElems: 1})
	jobs := firJobs(23)

	// Serial reference: one System, one stream at a time.
	want := make([]Job, len(jobs))
	for i := range jobs {
		want[i].Inputs = jobs[i].Inputs
		if err := sys.RunJob(&want[i]); err != nil {
			t.Fatal(err)
		}
	}

	pool, err := NewSystemPool(res.Kernel, res.Datapath, Config{BusElems: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// Two batches over the same jobs: the second exercises buffer reuse.
	for round := 0; round < 2; round++ {
		if err := pool.RunBatch(jobs); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range jobs {
			if err := DiffJob(&jobs[i], &want[i]); err != nil {
				t.Fatalf("round %d: job %d: %v", round, i, err)
			}
		}
	}
}

// TestSystemPoolJobError: one bad stream must fail with its own error
// while the rest of the batch completes. Job 4 carries the kernel's A
// beside the unknown NOPE: the slot-bound loader finds its one array,
// and the stream must still fail on the name it cannot bind.
func TestSystemPoolJobError(t *testing.T) {
	res, _ := buildSystem(t, firSource, "fir", core.Options{Optimize: true, PeriodNs: 5}, Config{BusElems: 1})
	pool, err := NewSystemPool(res.Kernel, res.Datapath, Config{BusElems: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	jobs := firJobs(6)
	jobs[2].Inputs = map[string][]int64{"NOPE": make([]int64, 21)}
	jobs[4].Inputs = map[string][]int64{"A": jobs[4].Inputs["A"], "NOPE": make([]int64, 21)}
	err = pool.RunBatch(jobs)
	if err == nil || !strings.Contains(err.Error(), "job 2") {
		t.Fatalf("RunBatch error = %v, want a job-2 failure", err)
	}
	for i := range jobs {
		if i == 2 || i == 4 {
			if jobs[i].Err == nil {
				t.Fatalf("bad job %d has no error", i)
			}
			if want := `no input array "NOPE"`; !strings.Contains(jobs[i].Err.Error(), want) {
				t.Fatalf("bad job %d: error %q does not say %q", i, jobs[i].Err, want)
			}
			continue
		}
		if jobs[i].Err != nil {
			t.Fatalf("job %d failed: %v", i, jobs[i].Err)
		}
		if len(jobs[i].Outputs["C"]) != 17 {
			t.Fatalf("job %d: missing outputs", i)
		}
	}
}

// TestRunJobRejectsLongInput: an input array longer than the kernel's
// fails its stream with an error naming the array and both lengths,
// instead of computing on a silently truncated prefix; a short one
// keeps the zero fill, and the pool stays balanced either way.
func TestRunJobRejectsLongInput(t *testing.T) {
	res, _ := buildSystem(t, firSource, "fir", core.DefaultOptions(), Config{BusElems: 1})
	pool, err := NewSystemPool(res.Kernel, res.Datapath, Config{BusElems: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	full := firJobs(1)[0]
	long := Job{Inputs: map[string][]int64{"A": append(slices.Clone(full.Inputs["A"]), 7)}}
	err = pool.RunJob(&long)
	if err == nil || long.Err != err {
		t.Fatalf("over-long input: RunJob returned %v, job.Err %v; want the same error", err, long.Err)
	}
	if want := `input array "A" holds 21 elements, got 22`; !strings.Contains(err.Error(), want) {
		t.Fatalf("over-long input: error %q does not say %q", err, want)
	}
	// A short array still runs, on a zero-filled tail.
	short := Job{Inputs: map[string][]int64{"A": full.Inputs["A"][:20]}}
	padded := Job{Inputs: map[string][]int64{"A": append(slices.Clone(full.Inputs["A"][:20]), 0)}}
	if err := pool.RunJob(&short); err != nil {
		t.Fatal(err)
	}
	if err := pool.RunJob(&padded); err != nil {
		t.Fatal(err)
	}
	if err := DiffJob(&short, &padded); err != nil {
		t.Fatalf("short input against its zero-padded twin: %v", err)
	}
	if st := pool.Stats(); st.Gets != st.Puts+st.Rejected {
		t.Fatalf("unbalanced pool: %d gets, %d puts, %d rejected", st.Gets, st.Puts, st.Rejected)
	}
}

// TestSystemPoolGetPut: Get hands out Reset systems, Put recycles them,
// and foreign systems are dropped instead of poisoning the pool.
func TestSystemPoolGetPut(t *testing.T) {
	res, _ := buildSystem(t, firSource, "fir", core.Options{Optimize: true, PeriodNs: 5}, Config{BusElems: 1})
	pool, err := NewSystemPool(res.Kernel, res.Datapath, Config{BusElems: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	a, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	in := make([]int64, 21)
	for i := range in {
		in[i] = int64(i)
	}
	if err := a.LoadInput("A", in); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Put(a)
	b, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatal("Put system was not reused")
	}
	// The recycled system must be runnable again (Put resets it).
	if err := b.LoadInput("A", in); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatalf("recycled system: %v", err)
	}
	// A system for a different bus width must not enter the pool.
	other, err := NewSystem(res.Kernel, res.Datapath, Config{BusElems: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(b)
	pool.Put(other)
	if got, _ := pool.Get(); got == other {
		t.Fatal("foreign system entered the pool")
	}
}

// TestSystemPoolNormalizesBus: a pool built with BusElems <= 0 must
// normalize it the way NewSystem does, so Put actually recycles the
// Systems it hands out (a mismatch here silently rebuilt a System per
// job, defeating the pool).
func TestSystemPoolNormalizesBus(t *testing.T) {
	res, _ := buildSystem(t, firSource, "fir", core.Options{Optimize: true, PeriodNs: 5}, Config{BusElems: 1})
	pool, err := NewSystemPool(res.Kernel, res.Datapath, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	s, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if s.BusElems != 1 {
		t.Fatalf("BusElems = %d, want the normalized 1", s.BusElems)
	}
	pool.Put(s)
	s2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s {
		t.Fatal("Put did not recycle the System under a zero-valued Config")
	}
}

// TestSystemPoolScalarGuard: a same-kernel System carrying different
// scalar parameter bindings must not enter the pool — jobs run after
// such a Put would silently compute with the wrong scalars.
func TestSystemPoolScalarGuard(t *testing.T) {
	src := `
int A[16];
int B[16];
void scale(int k) {
	int i;
	for (i = 0; i < 16; i++) { B[i] = A[i] * k + 1; }
}
`
	res, err := core.CompileSource(src, "scale", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewSystemPool(res.Kernel, res.Datapath,
		Config{BusElems: 1, Scalars: map[string]int64{"k": 7}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	foreign, err := NewSystem(res.Kernel, res.Datapath, Config{BusElems: 1, Scalars: map[string]int64{"k": 9}})
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(foreign)
	got, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if got == foreign {
		t.Fatal("a System with different scalar bindings entered the pool")
	}
	// The pool's jobs must still compute with k=7.
	in := make([]int64, 16)
	for i := range in {
		in[i] = int64(i)
	}
	pool.Put(got)
	jobs := []Job{{Inputs: map[string][]int64{"A": in}}}
	if err := pool.RunBatch(jobs); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if want := in[i]*7 + 1; jobs[0].Outputs["B"][i] != want {
			t.Fatalf("B[%d] = %d, want %d", i, jobs[0].Outputs["B"][i], want)
		}
	}
}

// TestConcurrentPlanCacheSharing hammers NewSystem + RunJob from
// many goroutines sharing one compiled Kernel/Datapath: every goroutine
// exercises hir.Kernel.PlanCache (the shared sysPlan), the data path's
// planOnce simulator plan, and full runs over private Systems. Run
// under -race in CI; results must also be independent of interleaving.
func TestConcurrentPlanCacheSharing(t *testing.T) {
	res, sys := buildSystem(t, firSource, "fir", core.Options{Optimize: true, PeriodNs: 5}, Config{BusElems: 1})
	in := make([]int64, 21)
	rng := rand.New(rand.NewSource(9))
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	want := Job{Inputs: map[string][]int64{"A": in}}
	if err := sys.RunJob(&want); err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const rounds = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s, err := NewSystem(res.Kernel, res.Datapath, Config{BusElems: 1})
				if err != nil {
					errs[g] = err
					return
				}
				got := Job{Inputs: want.Inputs}
				if err := s.RunJob(&got); err != nil {
					errs[g] = err
					return
				}
				if err := DiffJob(&got, &want); err != nil {
					errs[g] = fmt.Errorf("round %d: %w", r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestSystemPoolStats pins the admission/metrics counters a service
// builds on: Gets balance Puts+Rejected once work drains (no leaked
// Systems), Built counts constructions, and the MaxIdle cap rejects
// returns beyond it.
func TestSystemPoolStats(t *testing.T) {
	res, _ := buildSystem(t, firSource, "fir", core.Options{Optimize: true, PeriodNs: 5}, Config{BusElems: 1})
	pool, err := NewSystemPool(res.Kernel, res.Datapath, Config{BusElems: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	st := pool.Stats()
	if st.Built != 1 || st.Idle != 1 || st.Gets != 0 {
		t.Fatalf("fresh pool stats = %+v, want Built=1 Idle=1 Gets=0", st)
	}

	jobs := firJobs(9)
	if err := pool.RunBatch(jobs); err != nil {
		t.Fatal(err)
	}
	if err := pool.RunJob(&jobs[0]); err != nil {
		t.Fatal(err)
	}
	st = pool.Stats()
	if st.Gets != st.Puts+st.Rejected {
		t.Fatalf("leaked Systems: %+v (Gets != Puts+Rejected)", st)
	}
	if st.Batches != 1 || st.Jobs != 10 {
		t.Fatalf("stats = %+v, want Batches=1 Jobs=10", st)
	}
	if st.Idle < 1 {
		t.Fatalf("stats = %+v, want at least one idle System", st)
	}

	// A foreign System counts as Rejected, not Put.
	other, err := NewSystem(res.Kernel, res.Datapath, Config{BusElems: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := pool.Stats()
	pool.Put(other)
	if st = pool.Stats(); st.Rejected != before.Rejected+1 || st.Puts != before.Puts {
		t.Fatalf("foreign Put: %+v -> %+v, want one more Rejected", before, st)
	}

	// MaxIdle caps the free list.
	pool.SetMaxIdle(1)
	a, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(a)
	before = pool.Stats()
	pool.Put(b) // free list already at the cap
	st = pool.Stats()
	if st.Idle != 1 || st.Rejected != before.Rejected+1 {
		t.Fatalf("MaxIdle=1: stats %+v, want Idle=1 and one more Rejected", st)
	}
}

// TestRunJobHarvestsFeedbacks: a feedback kernel with no output arrays
// must surface its latch value through Job.Feedbacks, and reusing the
// Job must reuse the map.
func TestRunJobHarvestsFeedbacks(t *testing.T) {
	src := `
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
	res, _ := buildSystem(t, src, "accum", core.DefaultOptions(), Config{BusElems: 1})
	pool, err := NewSystemPool(res.Kernel, res.Datapath, Config{BusElems: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	in := make([]int64, 32)
	var want int64
	for i := range in {
		in[i] = int64(i*3 - 40)
		want += in[i]
	}
	job := Job{Inputs: map[string][]int64{"A": in}}
	if err := pool.RunJob(&job); err != nil {
		t.Fatal(err)
	}
	if got := job.Feedbacks["sum"]; got != want {
		t.Fatalf("Feedbacks[sum] = %d, want %d", got, want)
	}
	fb := job.Feedbacks
	in[0] += 5
	want += 5
	if err := pool.RunJob(&job); err != nil {
		t.Fatal(err)
	}
	if got := job.Feedbacks["sum"]; got != want {
		t.Fatalf("rerun Feedbacks[sum] = %d, want %d", got, want)
	}
	if fmt.Sprintf("%p", fb) != fmt.Sprintf("%p", job.Feedbacks) {
		t.Fatal("Feedbacks map was reallocated on reuse")
	}
}

// TestRunJobZeroesStaleInputs: a pooled System must compute a job
// exactly as a fresh System would. After a job that fills A with 1000s,
// a job with a short A — or with no A at all — runs on the same pooled
// System (a one-System pool) and must not see the earlier job's data.
func TestRunJobZeroesStaleInputs(t *testing.T) {
	res, _ := buildSystem(t, firSource, "fir", core.Options{Optimize: true, PeriodNs: 5}, Config{BusElems: 1})
	pool, err := NewSystemPool(res.Kernel, res.Datapath, Config{BusElems: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	fresh := func(inputs map[string][]int64) []int64 {
		t.Helper()
		sys, err := NewSystem(res.Kernel, res.Datapath, Config{BusElems: 1})
		if err != nil {
			t.Fatal(err)
		}
		for name, vals := range inputs {
			if err := sys.LoadInput(name, vals); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		out, err := sys.Output("C")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	full := make([]int64, 21)
	for i := range full {
		full[i] = 1000
	}
	for _, tc := range []struct {
		name   string
		inputs map[string][]int64
	}{
		{"short", map[string][]int64{"A": {1}}},
		{"absent", nil},
		{"empty", map[string][]int64{"A": {}}},
	} {
		dirty := Job{Inputs: map[string][]int64{"A": full}}
		if err := pool.RunJob(&dirty); err != nil {
			t.Fatal(err)
		}
		job := Job{Inputs: tc.inputs}
		if err := pool.RunJob(&job); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := fresh(tc.inputs); !slices.Equal(job.Outputs["C"], want) {
			t.Errorf("%s: pooled C = %v, fresh System C = %v", tc.name, job.Outputs["C"], want)
		}
	}
	if st := pool.Stats(); st.Built != 1 {
		t.Fatalf("pool built %d Systems, want the one shared System", st.Built)
	}
}

// TestSystemPoolMaxIdleTrim: lowering the cap must drop idle Systems
// immediately, not only refuse future Puts.
func TestSystemPoolMaxIdleTrim(t *testing.T) {
	res, _ := buildSystem(t, firSource, "fir", core.Options{Optimize: true, PeriodNs: 5}, Config{BusElems: 1})
	pool, err := NewSystemPool(res.Kernel, res.Datapath, Config{BusElems: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var held []*System
	for i := 0; i < 3; i++ {
		s, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, s)
	}
	for _, s := range held {
		pool.Put(s)
	}
	if st := pool.Stats(); st.Idle != 3 {
		t.Fatalf("Idle = %d, want 3 before the trim", st.Idle)
	}
	pool.SetMaxIdle(1)
	if st := pool.Stats(); st.Idle != 1 {
		t.Fatalf("Idle = %d after SetMaxIdle(1), want 1", st.Idle)
	}
}

// TestJobReuseAcrossKernels: recycling one Job between kernels must not
// leave the previous kernel's arrays or latches in the result maps.
func TestJobReuseAcrossKernels(t *testing.T) {
	firRes, _ := buildSystem(t, firSource, "fir", core.Options{Optimize: true, PeriodNs: 5}, Config{BusElems: 1})
	accumSrc := `
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
	accumRes, err := core.CompileSource(accumSrc, "accum", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	firPool, err := NewSystemPool(firRes.Kernel, firRes.Datapath, Config{BusElems: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer firPool.Close()
	accumPool, err := NewSystemPool(accumRes.Kernel, accumRes.Datapath, Config{BusElems: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer accumPool.Close()

	job := Job{Inputs: firJobs(1)[0].Inputs}
	if err := firPool.RunJob(&job); err != nil {
		t.Fatal(err)
	}
	if len(job.Outputs["C"]) != 17 || len(job.Feedbacks) != 0 {
		t.Fatalf("fir run: Outputs=%v Feedbacks=%v", job.Outputs, job.Feedbacks)
	}

	// Same Job, different kernel: fir's C must vanish, accum's sum appear.
	in := make([]int64, 32)
	var want int64
	for i := range in {
		in[i] = int64(i)
		want += in[i]
	}
	job.Inputs = map[string][]int64{"A": in}
	if err := accumPool.RunJob(&job); err != nil {
		t.Fatal(err)
	}
	if _, stale := job.Outputs["C"]; stale {
		t.Fatalf("stale fir output survived kernel switch: %v", job.Outputs)
	}
	if got := job.Feedbacks["sum"]; got != want {
		t.Fatalf("Feedbacks[sum] = %d, want %d", got, want)
	}

	// And back: accum's latch must vanish from the fir result.
	job.Inputs = firJobs(1)[0].Inputs
	if err := firPool.RunJob(&job); err != nil {
		t.Fatal(err)
	}
	if _, stale := job.Feedbacks["sum"]; stale {
		t.Fatalf("stale feedback survived kernel switch: %v", job.Feedbacks)
	}
	if len(job.Outputs["C"]) != 17 {
		t.Fatalf("fir rerun outputs: %v", job.Outputs)
	}

	// As many result keys as the one-output kernel writes, but foreign:
	// the map's size alone must not pass for a clean result.
	foreign := Job{Inputs: firJobs(1)[0].Inputs, Outputs: map[string][]int64{"B": make([]int64, 17)}}
	if err := firPool.RunJob(&foreign); err != nil {
		t.Fatal(err)
	}
	if _, stale := foreign.Outputs["B"]; stale || len(foreign.Outputs) != 1 || len(foreign.Outputs["C"]) != 17 {
		t.Fatalf("one foreign output key: Outputs=%v, want exactly C", foreign.Outputs)
	}
}

// TestRunJobZeroAllocs: a reused Job streams through System.RunJob — on
// the FIR's window path and on the accumulator's latch harvest — and
// through SystemPool.RunBatch without allocating.
func TestRunJobZeroAllocs(t *testing.T) {
	check := func(name string, run func() error) {
		t.Helper()
		if err := run(); err != nil { // warm-up: schedule, lane scratch, result buffers
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %.1f allocs/op with a reused Job, want 0", name, allocs)
		}
	}
	firRes, fir := buildSystem(t, firSource, "fir", core.Options{Optimize: true, PeriodNs: 5}, Config{BusElems: 1})
	firJob := firJobs(1)[0]
	check("fir System.RunJob", func() error { return fir.RunJob(&firJob) })

	_, accum := buildSystem(t, accumSource, "accum", core.DefaultOptions(), Config{BusElems: 1})
	in := make([]int64, 32)
	for i := range in {
		in[i] = int64(i*5 - 60)
	}
	accumJob := Job{Inputs: map[string][]int64{"A": in}}
	check("accum System.RunJob", func() error { return accum.RunJob(&accumJob) })
	if len(accumJob.Feedbacks) != 1 {
		t.Fatalf("accum: Feedbacks = %v, want the one latch", accumJob.Feedbacks)
	}

	pool, err := NewSystemPool(firRes.Kernel, firRes.Datapath, Config{BusElems: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	jobs := firJobs(8)
	check("fir SystemPool.RunBatch", func() error { return pool.RunBatch(jobs) })
}

// TestSystemPoolBackend pins the pool's one path: a pool built with the
// zero Config serves default-path Systems, every matched return is
// admitted, a System on the serial reference path is rejected without
// poisoning the free list, the drained-pool accounting invariant
// Gets == Puts + Rejected holds with that check in the admission path,
// and a recycled System still runs the default path (BatchedCycles
// covers its whole Run).
func TestSystemPoolBackend(t *testing.T) {
	res, _ := buildSystem(t, firSource, "fir", core.Options{Optimize: true, PeriodNs: 5}, Config{BusElems: 1})
	cfg := Config{BusElems: 1}
	pool, err := NewSystemPool(res.Kernel, res.Datapath, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var sims [3]*System
	for i := range sims {
		sys, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if sys.serial {
			t.Fatal("a default pool served a serial System")
		}
		sims[i] = sys
	}
	foreign, err := NewSystem(res.Kernel, res.Datapath, Config{BusElems: 1, Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(foreign)
	for _, sys := range sims {
		pool.Put(sys)
	}
	st := pool.Stats()
	if st.Rejected != 1 {
		t.Fatalf("serial System admitted: %+v", st)
	}
	// All three Gets were returned; the foreign Put is a surplus
	// attempt, so the drained invariant reads Gets + 1 == Puts +
	// Rejected.
	if st.Gets+1 != st.Puts+st.Rejected {
		t.Fatalf("pool accounting out of balance: %+v (Gets+1 != Puts+Rejected)", st)
	}
	sys, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	in := make([]int64, 21)
	for i := range in {
		in[i] = int64(i*5 - 40)
	}
	job := Job{Inputs: map[string][]int64{"A": in}}
	if err := sys.RunJob(&job); err != nil {
		t.Fatal(err)
	}
	if sys.serial || sys.BatchedCycles() != sys.Cycles() {
		t.Fatalf("recycled System: serial %v, %d of %d cycles batched", sys.serial, sys.BatchedCycles(), sys.Cycles())
	}
	pool.Put(sys)
}
