package exp

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/fleet"
	"roccc/internal/netlist"
	"roccc/internal/serve"
)

// diff.go is the one differential harness behind every sweep. A sweep
// is a path — the default System, a SystemPool, a served connection, a
// sharded fleet — and the harness checks it kernel by kernel against
// one reference: a serial interp System running each stream through
// System.RunJob. netlist.DiffJob judges every stream of every run:
// outputs, feedback latches, cycle counts and fault abort cycles must
// be bit-identical. A kernel the reference cannot build (no loop nest)
// must be refused by the path with the reference's own diagnosis. Each
// kernel runs three times on each side, every run verified; a row
// reports both sides' best time.

// LongFIRSource is a long-stream FIR: 4096 iterations, so the steady
// state (256-cycle RunN chunks) dominates fill and drain — the
// serve-path shape, where one request streams a long input. It is the
// workload of both the sweeps' fir_4096 row and the CI-gated
// BenchmarkSysRun/fir4k pair, shared so the two stay comparable.
const LongFIRSource = `
int A[4100];
int C[4096];
void fir() {
	int i;
	for (i = 0; i < 4096; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`

// SweepSpecs is the matrix every sweep checks: the Fig. 3 FIR, the
// 4096-iteration FIR, the nine Table 1 kernels (feedback and
// combinational rows included), the fault divider (bench.Divider) and
// the .c kernels in corpusDir (bench.Corpus). An empty or missing
// corpusDir adds no kernels, so callers away from the repo root check
// the built-ins.
func SweepSpecs(corpusDir string) ([]serve.KernelSpec, error) {
	one := netlist.Config{BusElems: 1}
	specs := []serve.KernelSpec{
		{Name: "fir_fig3", Source: Fig3Source, Func: "fir", Options: core.DefaultOptions(), Config: one},
		{Name: "fir_4096", Source: LongFIRSource, Func: "fir", Options: core.DefaultOptions(), Config: one},
	}
	specs = append(specs, serve.Specs(append(bench.All(), bench.Divider()))...)
	corpus, err := bench.Corpus(corpusDir)
	if err != nil {
		return nil, err
	}
	return append(specs, serve.Specs(corpus)...), nil
}

// SweepRow is one kernel's verified measurement on one path.
type SweepRow struct {
	Kernel  string
	Streams int
	// Faults counts streams that aborted with the reference's fault.
	Faults int
	// Cycles is the clock count over the clean streams of one run.
	Cycles int64
	// Ref and Path are each side's best wall-clock time for all streams.
	Ref, Path time.Duration
	// Speedup is Ref over Path.
	Speedup float64
	// Refused is the reference's diagnosis of a kernel it cannot build,
	// which the path refused too.
	Refused string
}

// SweepTable is one sweep's verified rows.
type SweepTable struct {
	Title string
	Rows  []SweepRow
}

// String renders the table.
func (t *SweepTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nvs the serial interp reference, every stream bit-identical (netlist.DiffJob)\n", t.Title)
	fmt.Fprintf(&b, "%-24s %7s %6s %9s %11s %11s %8s\n",
		"kernel", "streams", "faults", "cycles", "reference", "path", "speedup")
	for _, r := range t.Rows {
		if r.Refused != "" {
			fmt.Fprintf(&b, "%-24s %7s %6s %9s %11s %11s %8s  refused: %s\n",
				r.Kernel, "-", "-", "-", "-", "-", "-", r.Refused)
			continue
		}
		fmt.Fprintf(&b, "%-24s %7d %6d %9d %11s %11s %7.2fx\n",
			r.Kernel, r.Streams, r.Faults, r.Cycles,
			r.Ref.Round(time.Microsecond), r.Path.Round(time.Microsecond), r.Speedup)
	}
	return b.String()
}

// runFunc executes a batch of one kernel's streams on a path, leaving
// each stream's result and error in its Job. Its own error is the
// batch's; the harness reads it only when the reference did not fault.
type runFunc func(jobs []netlist.Job) error

// opener readies a path for one compiled kernel.
type opener func(spec serve.KernelSpec, res *core.Result) (runFunc, error)

// sweep checks every spec on one path, one kernel after another, or
// all of them at once when concurrent is set.
func sweep(specs []serve.KernelSpec, streams int, concurrent bool, open opener) ([]SweepRow, error) {
	if streams < 1 {
		return nil, fmt.Errorf("exp: a sweep needs at least one stream, got %d", streams)
	}
	rows := make([]SweepRow, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		if concurrent {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows[i], errs[i] = diffKernel(spec, streams, open)
			}()
		} else if rows[i], errs[i] = diffKernel(spec, streams, open); errs[i] != nil {
			break
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", specs[i].Name, err)
		}
	}
	return rows, nil
}

// streamInputs draws stream i's input arrays from the stream's own
// seed. In every odd stream of the divider, one divisor on a valid
// iteration is zero.
func streamInputs(spec serve.KernelSpec, res *core.Result, i int) map[string][]int64 {
	rng := rand.New(rand.NewSource(int64(i)*104729 + 7))
	divider := spec.Name == bench.Divider().Name
	in := map[string][]int64{}
	for _, w := range res.Kernel.Reads {
		vals := make([]int64, w.Arr.Len())
		for j := range vals {
			vals[j] = rng.Int63n(255) - 128
		}
		if divider && w.Arr.Name == "B" {
			for j := range vals {
				vals[j] = rng.Int63n(97) + 1
			}
			if i%2 == 1 {
				vals[rng.Intn(len(vals))] = 0
			}
		}
		in[w.Arr.Name] = vals
	}
	return in
}

// diffKernel checks one kernel on a path against the serial interp
// reference: three timed runs per side, each path run verified stream
// by stream with DiffJob.
func diffKernel(spec serve.KernelSpec, streams int, open opener) (SweepRow, error) {
	row := SweepRow{Kernel: spec.Name}
	res, err := core.CompileSource(spec.Source, spec.Func, spec.Options)
	if err != nil {
		return row, err
	}
	cfg := spec.Config
	cfg.Serial = true
	ref, refErr := netlist.NewSystem(res.Kernel, res.Datapath, cfg)
	run, err := open(spec, res)
	if refErr != nil {
		probe := []netlist.Job{{}}
		if err == nil {
			if err = run(probe); err == nil {
				err = probe[0].Err
			}
		}
		if err == nil || !strings.Contains(err.Error(), refErr.Error()) {
			return row, fmt.Errorf("stream 0: path returned %v, reference refused the kernel: %v", err, refErr)
		}
		row.Refused = refErr.Error()
		return row, nil
	}
	if err != nil {
		return row, err
	}

	inputs := make([]map[string][]int64, streams)
	for i := range inputs {
		inputs[i] = streamInputs(spec, res, i)
	}
	want := make([]netlist.Job, streams)
	got := make([]netlist.Job, streams)
	timed := func(run runFunc, jobs []netlist.Job) (time.Duration, error) {
		for i := range jobs {
			jobs[i] = netlist.Job{Inputs: inputs[i]}
		}
		start := time.Now()
		err := run(jobs)
		return time.Since(start), err
	}
	runRef := func(jobs []netlist.Job) error {
		for i := range jobs {
			jobs[i].Err = ref.RunJob(&jobs[i])
		}
		return nil
	}
	row.Streams = streams
	for rep := 0; rep < 3; rep++ {
		dref, _ := timed(runRef, want)
		dpath, runErr := timed(run, got)
		if rep == 0 || dref < row.Ref {
			row.Ref = dref
		}
		if rep == 0 || dpath < row.Path {
			row.Path = dpath
		}
		row.Faults, row.Cycles = 0, 0
		for i := range want {
			if want[i].Err != nil {
				row.Faults++
			} else {
				row.Cycles += int64(want[i].Cycles)
			}
		}
		if runErr != nil && row.Faults == 0 {
			return row, fmt.Errorf("run %d: %w", rep, runErr)
		}
		for i := range got {
			if err := netlist.DiffJob(&got[i], &want[i]); err != nil {
				return row, fmt.Errorf("run %d stream %d: %w", rep, i, err)
			}
		}
	}
	if row.Path > 0 {
		row.Speedup = float64(row.Ref) / float64(row.Path)
	}
	return row, nil
}

// SysBatchSweep checks the default System (walking the static memory
// schedule), one per kernel, running one stream at a time.
func SysBatchSweep(specs []serve.KernelSpec, streams int) (*SweepTable, error) {
	rows, err := sweep(specs, streams, false, func(spec serve.KernelSpec, res *core.Result) (runFunc, error) {
		sys, err := netlist.NewSystem(res.Kernel, res.Datapath, spec.Config)
		if err != nil {
			return nil, err
		}
		return func(jobs []netlist.Job) error {
			for i := range jobs {
				jobs[i].Err = sys.RunJob(&jobs[i])
			}
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &SweepTable{Title: "SysBatch sweep: the default System, one stream at a time", Rows: rows}, nil
}

// PoolSweep checks SystemPool.RunBatch sharding every kernel's streams
// across workers (<= 0 means GOMAXPROCS).
func PoolSweep(specs []serve.KernelSpec, streams, workers int) (*SweepTable, error) {
	var pools []*netlist.SystemPool
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	rows, err := sweep(specs, streams, false, func(spec serve.KernelSpec, res *core.Result) (runFunc, error) {
		pool, err := netlist.NewSystemPool(res.Kernel, res.Datapath, spec.Config, workers)
		if err != nil {
			return nil, err
		}
		pools = append(pools, pool)
		workers = pool.Workers() // the title names the resolved width
		return pool.RunBatch, nil
	})
	if err != nil {
		return nil, err
	}
	return &SweepTable{Title: fmt.Sprintf("Pool sweep: SystemPool.RunBatch on %d workers", workers), Rows: rows}, nil
}

// ServeSweep checks an in-memory rocccserve with every spec registered,
// over one TCP connection with one request slot.
func ServeSweep(specs []serve.KernelSpec, streams int) (*SweepTable, error) {
	srv := serve.NewServer(0)
	for _, spec := range specs {
		if err := srv.Register(spec); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	defer shutdown(srv.Shutdown)
	conn, err := serve.DialContext(context.Background(), ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	rows, err := sweep(specs, streams, false, connPath(conn))
	if err != nil {
		return nil, err
	}
	return &SweepTable{Title: "Serve sweep: one TCP connection, one request slot, to rocccserve", Rows: rows}, nil
}

// FleetSweep checks the sharded serving stack: a pipelined connection
// into the in-process fleet (fleet.NewLocal: a front server dispatching
// through a fleet.Router into `shards` workers, every spec registered on
// every shard), with all kernels in flight at once over the one
// connection, so the request-id demux is load-bearing. After the storm
// every shard pool must be balanced (Gets == Puts + Rejected), the
// route table must agree with the ring, and nothing may have been shed.
func FleetSweep(specs []serve.KernelSpec, streams, shards int) (*SweepTable, error) {
	// The ring decides which shard compiles and serves each kernel.
	// Slots are sized so the sweep never sheds: admission control has
	// its own test, and here a Busy fault would be a false divergence.
	fl, err := fleet.NewLocal(specs, shards, len(specs)*streams, 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go fl.Front.Serve(ln)
	defer shutdown(fl.Shutdown)
	conn, err := serve.DialContext(context.Background(), ln.Addr().String(), serve.WithPipelined(0))
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	rows, err := sweep(specs, streams, true, connPath(conn))
	if err != nil {
		return nil, err
	}

	if err := fl.Balanced(5 * time.Second); err != nil {
		return nil, fmt.Errorf("exp: fleet sweep: %w", err)
	}
	m := fl.Router.Metrics()
	if len(m.Shards) != shards {
		return nil, fmt.Errorf("exp: fleet sweep: metrics report %d shards, want %d", len(m.Shards), shards)
	}
	for _, kr := range m.Kernels {
		if want := fl.Router.ShardFor(kr.Kernel); kr.Shard != want {
			return nil, fmt.Errorf("exp: fleet sweep: kernel %s routed to shard %d, ring says %d", kr.Kernel, kr.Shard, want)
		}
	}
	var sheds int64
	for _, sm := range m.Shards {
		sheds += sm.Sheds
	}
	if sheds != 0 {
		return nil, fmt.Errorf("exp: fleet sweep: %d streams shed despite uncontended slots", sheds)
	}
	title := fmt.Sprintf("Fleet sweep: one pipelined connection -> front server -> router -> %d shards", shards)
	return &SweepTable{Title: title, Rows: rows}, nil
}

// connPath runs each kernel's streams as one request on conn.
func connPath(conn *serve.Conn) opener {
	return func(spec serve.KernelSpec, _ *core.Result) (runFunc, error) {
		return func(jobs []netlist.Job) error { return conn.Run(spec.Name, jobs) }, nil
	}
}

// shutdown drains a sweep's server or fleet.
func shutdown(drain func(context.Context) error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drain(ctx)
}
