package netlist

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
)

// pack_test.go pins SystemPool.RunBatch's packed path, where a worker
// runs several whole streams of a latch-free kernel as one RunN chunk
// (System.runPack), against the serial reference, job by job, with
// DiffJob.

// packCase is one latch-free kernel whose streams pack.
type packCase struct {
	name    string
	res     *core.Result
	cfg     Config
	divisor string // the divisor array, "" when the kernel has none
}

func packCases(t *testing.T) []packCase {
	t.Helper()
	compile := func(src, fn string, opts core.Options) *core.Result {
		t.Helper()
		res, err := core.CompileSource(src, fn, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dct := bench.DCT()
	dctRes, err := dct.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return []packCase{
		{"fig3-fir", compile(firSource, "fir", core.DefaultOptions()), Config{BusElems: 1}, ""},
		{"dct", dctRes, Config{BusElems: dct.BusElems}, ""},
		{"divider", compile(dividerSource, "divide", core.DefaultOptions()), Config{BusElems: 1}, "B"},
	}
}

// packJob builds job i of a batch: a full stream, a short one (its
// arrays zero-filled past half their length), one with absent arrays,
// or a full one in a Job recycled from another kernel, whose result
// maps hold foreign keys and a wrongly sized output. The divisor array
// always stays full and nonzero, so only a planted zero faults.
func (c *packCase) packJob(rng *rand.Rand, i int) Job {
	inputs := map[string][]int64{}
	kind := i % 4
	for _, w := range c.res.Kernel.Reads {
		vals := make([]int64, w.Arr.Len())
		for j := range vals {
			if w.Arr.Name == c.divisor {
				vals[j] = rng.Int63n(97) + 1
				if rng.Intn(2) == 0 {
					vals[j] = -vals[j]
				}
				continue
			}
			vals[j] = w.Arr.Elem.Wrap(rng.Int63n(1<<16) - 1<<15)
		}
		switch {
		case w.Arr.Name == c.divisor:
		case kind == 1:
			vals = vals[:len(vals)/2]
		case kind == 2:
			continue
		}
		inputs[w.Arr.Name] = vals
	}
	job := Job{Inputs: inputs}
	if kind == 3 {
		out := c.res.Kernel.Writes[0].Arr.Name
		job.Outputs = map[string][]int64{"Z": make([]int64, 5), out: make([]int64, 3)}
		job.Feedbacks = map[string]int64{"sum": 42}
	}
	return job
}

// checkAgainstSerial runs each job's inputs through a serial System's
// RunJob and compares: with DiffJob, or by error text where the
// reference failed without a fault (an unknown array name).
func checkAgainstSerial(t *testing.T, c *packCase, ref *System, jobs []Job, tag string) {
	t.Helper()
	for i := range jobs {
		want := Job{Inputs: jobs[i].Inputs}
		want.Err = ref.RunJob(&want)
		var fe *dp.FaultError
		if want.Err != nil && !errors.As(want.Err, &fe) {
			if jobs[i].Err == nil || jobs[i].Err.Error() != want.Err.Error() {
				t.Fatalf("%s %s job %d: error %v, reference %v", c.name, tag, i, jobs[i].Err, want.Err)
			}
			continue
		}
		if err := DiffJob(&jobs[i], &want); err != nil {
			t.Fatalf("%s %s job %d: %v", c.name, tag, i, err)
		}
	}
}

// TestRunBatchPacks runs batches of 1, pack-1, pack, pack+1 and
// 3·pack+2 jobs through a 2-worker pool over the Fig. 3 FIR, Table 1's
// DCT (bus 8) and the divider, so claims of one job, partial packs and
// full packs all occur. Each batch mixes full, short and absent input
// arrays and recycled Jobs; the largest also carries a job naming an
// unknown array (second pack) and, on the divider, a zero divisor on a
// valid iteration of a middle job of the third pack, so whole packs
// replay through RunJob. Every job must be the serial reference's.
func TestRunBatchPacks(t *testing.T) {
	for _, c := range packCases(t) {
		pool, err := NewSystemPool(c.res.Kernel, c.res.Datapath, c.cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		scfg := c.cfg
		scfg.Serial = true
		ref, err := NewSystem(c.res.Kernel, c.res.Datapath, scfg)
		if err != nil {
			t.Fatal(err)
		}
		total := ref.plan.total
		pack := pool.packSize()
		if want := sysChunkMax / total; pack != want || pack < 2 {
			t.Fatalf("%s: %d-iteration streams pack %d to a chunk, want %d", c.name, total, pack, want)
		}
		rng := rand.New(rand.NewSource(26))
		for _, size := range []int{1, pack - 1, pack, pack + 1, 3*pack + 2} {
			jobs := make([]Job, size)
			for i := range jobs {
				jobs[i] = c.packJob(rng, i)
			}
			if size > pack+1 {
				jobs[pack+1].Inputs["NOPE"] = []int64{1}
				if c.divisor != "" {
					at := 2*pack + pack/2
					jobs[at].Inputs[c.divisor] = slices.Clone(jobs[at].Inputs[c.divisor])
					jobs[at].Inputs[c.divisor][total/2] = 0
				}
			}
			err := pool.RunBatch(jobs)
			if (err != nil) != (size > pack+1) {
				t.Fatalf("%s batch of %d: RunBatch returned %v", c.name, size, err)
			}
			checkAgainstSerial(t, &c, ref, jobs, "batch")
		}
		if st := pool.Stats(); st.Gets != st.Puts+st.Rejected {
			t.Fatalf("%s: unbalanced pool: %+v", c.name, st)
		}
		pool.Close()
	}
}

// TestRunPackOneRunN pins that a clean pack runs as one RunN over the
// whole block: afterwards the System's data-path clock reads
// jobs·total + latency (one stream per RunN would leave total +
// latency), and every job is the serial reference's. A pack with a
// zero divisor in a middle job replays job by job and still matches.
func TestRunPackOneRunN(t *testing.T) {
	for _, c := range packCases(t) {
		pool, err := NewSystemPool(c.res.Kernel, c.res.Datapath, c.cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		scfg := c.cfg
		scfg.Serial = true
		ref, err := NewSystem(c.res.Kernel, c.res.Datapath, scfg)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		total, pack := sys.plan.total, pool.packSize()
		rng := rand.New(rand.NewSource(31))
		jobs := make([]Job, pack)
		for i := range jobs {
			jobs[i] = c.packJob(rng, i)
		}
		sys.runPack(jobs)
		if got, want := sys.sim.Cycle(), pack*total+c.res.Datapath.Latency(); got != want {
			t.Fatalf("%s: a %d-job pack left the data-path clock at %d, want %d (one RunN)", c.name, pack, got, want)
		}
		checkAgainstSerial(t, &c, ref, jobs, "pack")
		if c.divisor != "" {
			mid := jobs[pack/2].Inputs
			mid[c.divisor] = slices.Clone(mid[c.divisor])
			mid[c.divisor][total-1] = 0
			sys.runPack(jobs)
			var fe *dp.FaultError
			if !errors.As(jobs[pack/2].Err, &fe) {
				t.Fatalf("%s: the middle job's zero divisor gave %v, want a fault", c.name, jobs[pack/2].Err)
			}
			checkAgainstSerial(t, &c, ref, jobs, "faulted pack")
		}
		pool.Put(sys)
		pool.Close()
	}
}
