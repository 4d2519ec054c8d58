// bench_test.go regenerates every table and figure of the paper's
// evaluation as Go benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// BenchmarkTable1/<row> compiles and synthesizes one Table 1 kernel and
// reports the reproduced clock/area ratios as benchmark metrics;
// BenchmarkFig* regenerate the structural figures; the remaining
// benchmarks cover the §5 throughput claim and the §2 area-estimation
// claim.
package roccc

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roccc/internal/bench"
	"roccc/internal/dp"
	"roccc/internal/exp"
	"roccc/internal/fleet"
	"roccc/internal/ip"
	"roccc/internal/load"
	"roccc/internal/netlist"
	"roccc/internal/serve"
)

// BenchmarkTable1 regenerates each row of Table 1: compile → pipeline →
// synthesize, reporting the ROCCC/IP clock and area ratios.
func BenchmarkTable1(b *testing.B) {
	kernels := bench.All()
	cores := ip.All()
	if len(kernels) != len(cores) {
		b.Fatalf("%d bench kernels but %d IP baselines", len(kernels), len(cores))
	}
	for i, k := range kernels {
		core := cores[i]
		// The two lists are paired by index: a silent mispairing would
		// divide kernel X's clock/area by kernel Y's baseline and report
		// plausible-looking nonsense, so reordering either list must
		// fail loudly.
		if core.Name != k.Name {
			b.Fatalf("row %d pairs kernel %q with IP core %q; bench.All() and ip.All() must list Table 1 rows in the same order", i, k.Name, core.Name)
		}
		b.Run(k.Name, func(b *testing.B) {
			var clockRatio, areaRatio float64
			for n := 0; n < b.N; n++ {
				_, rep, err := exp.SynthesizeKernel(k)
				if err != nil {
					b.Fatal(err)
				}
				clockRatio = rep.ClockMHz / core.Report.ClockMHz
				areaRatio = float64(rep.Slices) / float64(core.Report.Slices)
			}
			b.ReportMetric(clockRatio, "%clock")
			b.ReportMetric(areaRatio, "%area")
		})
	}
}

// BenchmarkFig2ExecutionModel streams the FIR through the full system
// (engine → BRAM → smart buffer → data path → BRAM) and reports cycles
// per produced output. The system is built once and Reset between
// iterations — the sweep-reuse pattern the compiled sysPlan targets —
// and the steady state is gated at 0 allocs/op in CI.
func BenchmarkFig2ExecutionModel(b *testing.B) {
	res, err := Compile(exp.Fig3Source, "fir", DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	in := make([]int64, 21)
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	sys, err := netlist.NewSystem(res.Kernel, res.Datapath, netlist.Config{BusElems: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up grows the simulator's batch lane scratch once, so the
	// timed loop measures the zero-alloc steady state the gate holds.
	if err := sys.LoadInput("A", in); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		b.Fatal(err)
	}
	var cycles int
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sys.Reset()
		if err := sys.LoadInput("A", in); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		cycles = sys.Cycles()
	}
	b.ReportMetric(float64(cycles)/17.0, "cycles/output")
}

// BenchmarkSysRun compares the serial per-cycle System.Run dispatch
// (Config.Serial, the reference) against the default walk of the static
// memory schedule on identical systems — the regression meter for the
// system cycle loop.
// fig3 is the Fig. 2 benchmark workload (17 iterations: fill/drain-edge
// heavy); fir4k is the 4096-iteration steady state; wavelet is the
// Table 1 wavelet, whose 5x5 window sliding by two leaves 151 of its
// 347 cycles bubbles, most of them mid-stream at the strip edges. The
// default variants keep their "-streak" names, which the gates
// reference. CI gates them at 0 allocs/op and fig3 and fir4k at
// CPU-conditioned speedup floors over their serial baselines
// (ci/gates.json, sysbatch group).
func BenchmarkSysRun(b *testing.B) {
	for _, tc := range []struct {
		name string
		k    bench.Kernel
	}{
		{"fig3", bench.Kernel{Source: exp.Fig3Source, Func: "fir", Options: DefaultOptions(), BusElems: 1}},
		{"fir4k", bench.Kernel{Source: exp.LongFIRSource, Func: "fir", Options: DefaultOptions(), BusElems: 1}},
		{"wavelet", bench.Wavelet()},
	} {
		res, err := tc.k.Compile()
		if err != nil {
			b.Fatal(err)
		}
		arr := res.Kernel.Reads[0].Arr
		rng := rand.New(rand.NewSource(1))
		in := make([]int64, arr.Len())
		for i := range in {
			in[i] = rng.Int63n(255) - 128
		}
		bus := tc.k.BusElems
		for _, m := range []struct {
			name string
			cfg  netlist.Config
		}{
			{tc.name + "-serial", netlist.Config{BusElems: bus, Serial: true}},
			{tc.name + "-streak", netlist.Config{BusElems: bus}},
		} {
			b.Run(m.name, func(b *testing.B) {
				sys, err := netlist.NewSystem(res.Kernel, res.Datapath, m.cfg)
				if err != nil {
					b.Fatalf("%s: %v", m.name, err)
				}
				run := func() {
					sys.Reset()
					if err := sys.LoadInput(arr.Name, in); err != nil {
						b.Fatalf("%s: %v", m.name, err)
					}
					if _, err := sys.Run(); err != nil {
						b.Fatalf("%s: %v", m.name, err)
					}
				}
				run() // warm-up: grows the batch lane scratch once
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					run()
				}
				b.ReportMetric(float64(sys.BatchedCycles())/float64(sys.Cycles())*100, "batched-%")
			})
		}
	}
}

// BenchmarkFig3ScalarReplacement measures the front end through scalar
// replacement on the Fig. 3 FIR.
func BenchmarkFig3ScalarReplacement(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := exp.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4FeedbackDetection measures feedback detection on the
// Fig. 4 accumulator.
func BenchmarkFig4FeedbackDetection(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := exp.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6BranchDatapath measures data-path building with mux and
// pipe nodes on the Fig. 5 kernel, reporting the hard-node counts. The
// counts are asserted: Fig. 6 requires at least one mux node (the SSA
// phis of the join block) and one pipe node (live values crossing the
// branch), and the seed's magic ordinals 2/1 had them swapped.
func BenchmarkFig6BranchDatapath(b *testing.B) {
	var muxes, pipes int
	for n := 0; n < b.N; n++ {
		_, d, err := exp.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		muxes = len(d.NodesOfKind(dp.MuxNode))
		pipes = len(d.NodesOfKind(dp.PipeNode))
	}
	if muxes == 0 {
		b.Fatal("Fig. 6 data path built no mux node")
	}
	if pipes == 0 {
		b.Fatal("Fig. 6 data path built no pipe node")
	}
	b.ReportMetric(float64(muxes), "mux-nodes")
	b.ReportMetric(float64(pipes), "pipe-nodes")
}

// BenchmarkFig7AccumulatorDatapath measures the feedback-latch data path
// of Fig. 7.
func BenchmarkFig7AccumulatorDatapath(b *testing.B) {
	for n := 0; n < b.N; n++ {
		_, d, err := exp.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Feedbacks) != 1 {
			b.Fatal("missing feedback latch")
		}
	}
}

// BenchmarkDCTThroughput regenerates the §5 throughput comparison and
// reports the overall samples-per-second ratio.
func BenchmarkDCTThroughput(b *testing.B) {
	var speedup float64
	for n := 0; n < b.N; n++ {
		t, err := exp.DCTThroughput()
		if err != nil {
			b.Fatal(err)
		}
		speedup = t.Speedup
	}
	b.ReportMetric(speedup, "throughput-ratio")
}

// BenchmarkAreaEstimation regenerates the §2 estimation experiment and
// reports the mean absolute error.
func BenchmarkAreaEstimation(b *testing.B) {
	var meanAbs float64
	for n := 0; n < b.N; n++ {
		rows, err := exp.AreaEstimation()
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			e := r.ErrorPct
			if e < 0 {
				e = -e
			}
			sum += e
		}
		meanAbs = sum / float64(len(rows))
	}
	b.ReportMetric(meanAbs, "mean-abs-err-%")
}

// BenchmarkDatapathSim measures the cycle-accurate simulator's
// per-cycle Step, the interpreter loop on either backend, on the DCT
// data path (one iteration = 8 outputs).
func BenchmarkDatapathSim(b *testing.B) {
	k := bench.DCT()
	res, err := k.Compile()
	if err != nil {
		b.Fatal(err)
	}
	sim := NewSim(res)
	in := make([]int64, len(res.Datapath.Inputs))
	rng := rand.New(rand.NewSource(2))
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	b.ReportAllocs() // steady-state Step must stay at 0 allocs/op
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := sim.Step(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatapathSimBatch times 256-iteration batches, so ns/op is
// per iteration and directly comparable with BenchmarkDatapathSim's
// per-Step cost. Each kernel has two rows: -interp is the reference
// loop, 256 Steps plus Latency() Drains, and -threaded is the one batch
// path, RunN(256), which feeds and flushes the same clocks. The kernels
// are a feedback-free one (dct, the pure op-major path) and a feedback
// one (mul_acc, whose accumulate cone RunN vectorizes in closed form).
// Both steady states are gated at 0 allocs/op in CI (codegen group),
// and -threaded at CPU-conditioned speedup floors over -interp.
func BenchmarkDatapathSimBatch(b *testing.B) {
	const batch = 256
	for _, k := range []bench.Kernel{bench.DCT(), bench.MulAcc()} {
		res, err := k.Compile()
		if err != nil {
			b.Fatal(err)
		}
		inW := len(res.Datapath.Inputs)
		in := make([]int64, batch*inW)
		rng := rand.New(rand.NewSource(2))
		for i := range in {
			in[i] = rng.Int63n(255) - 128
		}
		rows := make([][]int64, batch)
		for j := range rows {
			rows[j] = make([]int64, inW)
			for i := range rows[j] {
				rows[j][i] = in[i*batch+j]
			}
		}
		b.Run(k.Name+"-interp", func(b *testing.B) {
			sim := dp.NewSim(res.Datapath)
			lat := sim.Latency()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += batch {
				for _, row := range rows {
					if _, err := sim.Step(row); err != nil {
						b.Fatal(err)
					}
				}
				for c := 0; c < lat; c++ {
					if _, err := sim.Drain(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(k.Name+"-threaded", func(b *testing.B) {
			sim := dp.NewSim(res.Datapath)
			if _, err := sim.RunN(in, batch); err != nil { // warm-up grows the lane scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += batch {
				if _, err := sim.RunN(in, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchSweep is the multi-core sweep: 32 independent FIR input
// streams through the Fig. 2 system, either serially (one System, one
// stream at a time — the pre-SystemPool path) or sharded across the
// SystemPool's worker crew. CI gates the sharded/serial throughput
// ratio on multi-core runners and the sharded steady state at
// 0 allocs/op.
func BenchmarkBatchSweep(b *testing.B) {
	res, err := Compile(exp.Fig3Source, "fir", DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	const jobs = 32
	streams := make([][]int64, jobs)
	for j := range streams {
		rng := rand.New(rand.NewSource(int64(j + 1)))
		in := make([]int64, 21)
		for i := range in {
			in[i] = rng.Int63n(255) - 128
		}
		streams[j] = in
	}
	b.Run("serial", func(b *testing.B) {
		sys, err := netlist.NewSystem(res.Kernel, res.Datapath, netlist.Config{BusElems: 1})
		if err != nil {
			b.Fatal(err)
		}
		out := make([]int64, 17)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for j := range streams {
				sys.Reset()
				if err := sys.LoadInput("A", streams[j]); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Run(); err != nil {
					b.Fatal(err)
				}
				if err := sys.OutputInto("C", out); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		pool, err := netlist.NewSystemPool(res.Kernel, res.Datapath, netlist.Config{BusElems: 1}, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		batch := make([]netlist.Job, jobs)
		for j := range batch {
			batch[j] = netlist.Job{Inputs: map[string][]int64{"A": streams[j]}}
		}
		// Warm-up spawns the workers, fills the pool and allocates the
		// per-job output buffers once.
		if err := pool.RunBatch(batch); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if err := pool.RunBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompile measures full-pipeline compilation of the wavelet
// engine, the largest kernel.
func BenchmarkCompile(b *testing.B) {
	k := bench.Wavelet()
	for n := 0; n < b.N; n++ {
		if _, err := k.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateVHDL measures VHDL emission alone: one op renders
// the file set of every Table 1 kernel, each compiled once outside the
// timer. The smart-buffer configurations are cached on each kernel
// after the first pass, so this is emission's steady state.
func BenchmarkGenerateVHDL(b *testing.B) {
	results := table1Results(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, res := range results {
			if _, err := GenerateVHDL(res); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGenerateVHDLFresh is BenchmarkGenerateVHDL on kernels whose
// plan caches are emptied before every pass (outside the timer), so
// each pass also derives the smart-buffer configurations: what one
// compile pays for emission.
func BenchmarkGenerateVHDLFresh(b *testing.B) {
	results := table1Results(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for _, res := range results {
			res.Kernel.PlanCache.Clear()
		}
		b.StartTimer()
		for _, res := range results {
			if _, err := GenerateVHDL(res); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// table1Results compiles every Table 1 kernel.
func table1Results(b *testing.B) []*Result {
	var results []*Result
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, res)
	}
	return results
}

// BenchmarkCPUSpeedup regenerates the §1 speedup-over-microprocessor
// experiment and reports the FIR kernel's speedup factor.
func BenchmarkCPUSpeedup(b *testing.B) {
	var firSpeedup float64
	for n := 0; n < b.N; n++ {
		rows, err := exp.Speedups()
		if err != nil {
			b.Fatal(err)
		}
		firSpeedup = rows[0].Speedup
	}
	b.ReportMetric(firSpeedup, "speedup-x")
}

// BenchmarkAblations regenerates the three design-choice studies
// (DCT symmetry, latch-placement sweep, unroll sweep).
func BenchmarkAblations(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := exp.FormatAblations(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeThroughput measures the rocccserve request path on the
// Fig. 2 FIR system; one benchmark op is one served stream, so the
// sub-benchmarks compare directly.
//
//   - inproc: Server.RunStream in process, straight into the warm
//     SystemPool — the pool path the CI gate holds at 0 allocs/op in
//     steady state.
//   - tcp-serial: one TCP client dialled with no options (one request
//     slot), one stream per request, sequential round trips — the
//     throughput floor.
//   - tcp-concurrent: several such TCP clients issuing the same
//     single-stream requests concurrently; CI gates this at >= the
//     serial floor on multi-core runners (round trips overlap even on
//     small machines).
//   - tcp-pipelined: several request slots multiplexed over ONE
//     connection dialled WithPipelined — the Serve v2 headline.
//     Requests overlap in flight on a single socket, so the per-stream
//     round-trip latency amortizes away; CI gates this against
//     tcp-serial (serve group).
func BenchmarkServeThroughput(b *testing.B) {
	srv := serve.NewServer(0)
	if err := srv.Register(serve.KernelSpec{
		Name: "fir", Source: exp.Fig3Source, Func: "fir",
		Options: DefaultOptions(), Config: netlist.Config{BusElems: 1},
	}); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	mkJobs := func(n int) []netlist.Job {
		jobs := make([]netlist.Job, n)
		for j := range jobs {
			rng := rand.New(rand.NewSource(int64(j + 1)))
			in := make([]int64, 21)
			for i := range in {
				in[i] = rng.Int63n(255) - 128
			}
			jobs[j] = netlist.Job{Inputs: map[string][]int64{"A": in}}
		}
		return jobs
	}

	b.Run("inproc", func(b *testing.B) {
		const batch = 32
		jobs := mkJobs(batch)
		// Warm-up compiles the kernel, builds its pool and allocates the
		// reusable output buffers; each op then serves one of the reused
		// Jobs through Server.RunStream, one stream at a time as
		// tcp-serial does.
		for i := range jobs {
			if err := srv.RunStream("fir", &jobs[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if err := srv.RunStream("fir", &jobs[n%batch]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp-serial", func(b *testing.B) {
		conn, err := serve.DialContext(context.Background(), ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		jobs := mkJobs(1)
		if err := conn.Run("fir", jobs); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if err := conn.Run("fir", jobs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp-concurrent", func(b *testing.B) {
		clients := min(8, max(2, runtime.GOMAXPROCS(0)))
		conns := make([]*serve.Conn, clients)
		for i := range conns {
			c, err := serve.DialContext(context.Background(), ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			conns[i] = c
			warm := mkJobs(1)
			if err := c.Run("fir", warm); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		var next atomic.Int64
		for i := range conns {
			wg.Add(1)
			go func(c *serve.Conn) {
				defer wg.Done()
				jobs := mkJobs(1)
				for int(next.Add(1)) <= b.N {
					if err := c.Run("fir", jobs); err != nil {
						b.Error(err)
						return
					}
				}
			}(conns[i])
		}
		wg.Wait()
	})
	b.Run("tcp-pipelined", func(b *testing.B) {
		conn, err := serve.DialContext(context.Background(), ln.Addr().String(), serve.WithPipelined(0))
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		slots := min(8, max(2, runtime.GOMAXPROCS(0)))
		warm := mkJobs(1)
		if err := conn.Run("fir", warm); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		var next atomic.Int64
		var failed atomic.Bool
		for i := 0; i < slots; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				jobs := mkJobs(1)
				for int(next.Add(1)) <= b.N {
					if err := conn.Run("fir", jobs); err != nil {
						if failed.CompareAndSwap(false, true) {
							b.Error(err)
						}
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// BenchmarkFleetRouter measures the fleet placement layer's overhead on
// the in-process fast path: Dispatch resolves the kernel's cached route
// and RunStream admits the stream against the shard's slot budget before
// handing it to the worker's warm SystemPool. One op is one served
// stream on a reused Job, so the admission + routing tax sits directly
// on top of the inproc ServeThroughput numbers; CI holds the steady
// state at 0 allocs/op (serve group) — routing must stay a pointer
// chase plus a few atomics, never an allocation.
func BenchmarkFleetRouter(b *testing.B) {
	spec := serve.KernelSpec{
		Name: "fir", Source: exp.Fig3Source, Func: "fir",
		Options: DefaultOptions(), Config: netlist.Config{BusElems: 1},
	}
	shards := make([]fleet.Shard, 2)
	for i := range shards {
		w := serve.NewServer(2)
		if err := w.Register(spec); err != nil {
			b.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			w.Shutdown(ctx)
		}()
		shards[i] = fleet.Shard{Local: w, Slots: 4}
	}
	r, err := fleet.NewRouter(shards)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(1))
	in := make([]int64, 21)
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	job := netlist.Job{Inputs: map[string][]int64{"A": in}}
	// Warm-up compiles the kernel on its owning shard, builds its pool
	// and allocates THIS job's reusable output buffers — the
	// timed loop reuses the same Job so the steady state stays at 0
	// allocs/op.
	warm, err := r.Dispatch("fir")
	if err != nil {
		b.Fatal(err)
	}
	if warm.RunStream(&job); job.Err != nil {
		b.Fatal(job.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		runner, err := r.Dispatch("fir")
		if err != nil {
			b.Fatal(err)
		}
		if runner.RunStream(&job); job.Err != nil {
			b.Fatal(job.Err)
		}
	}
}

// BenchmarkLoadRecord measures rocccload's per-arrival hot path: one
// pacing-clock tick (Poisson interarrival draw) plus one histogram
// record. The loadpath gate holds it at zero allocations so the
// open-loop harness never perturbs the latencies it is measuring.
func BenchmarkLoadRecord(b *testing.B) {
	pacer := load.NewPacer(1e6, 42)
	var h load.Hist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(pacer.Next())
	}
	if h.Count() != uint64(b.N) {
		b.Fatalf("recorded %d of %d ticks", h.Count(), b.N)
	}
}
