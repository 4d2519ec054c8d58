// Command perfbench is the repository's benchmark. Each invocation runs
// one named workload as a closed loop for a fixed time and prints its
// end-to-end metrics, or with --trace 1 its per-layer metrics, as one
// JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 30 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//   - compile: C text → roccc.Compile → GenerateVHDL → Synthesize →
//     NewSystem for the 20-kernel set, fresh source text every round;
//   - simulate: seeded streams of every streaming kernel through
//     SystemPool.RunBatch with nproc workers;
//   - serve: 4 callers per connection on nproc pipelined connections to
//     a front server dispatching through a fleet.Router to 2 in-process
//     worker servers, one stream per request.
//
// The seed makes every input; the program under test only receives
// them. Every output of the measured window is checked against the cc
// interpreter (planted faults against serial interp System.Run); a
// wrong value, an unexpected error, a shed or a timeout counts as a
// failed operation, and any failure makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 7

// stallProbeTime is the host-stall probe's spin before and after the
// measured window.
const stallProbeTime = 250 * time.Millisecond

// measurement is one measured window of a workload.
type measurement struct {
	// rate is the workload's throughput: kernels/s, simulated cycles/s or
	// requests/s (see each workload).
	rate float64
	// p50 and p99 are operation latencies in ms from samples operations:
	// over all requests for serve; for compile and simulate, percentiles
	// over the kernel set of each kernel's median operation time. A
	// per-operation tail of those short operations measures the host's
	// stalls, not the program.
	p50, p99          float64
	samples           int64
	attempted, failed int
	firstErr          error
	// rows are per-kernel figures printed beside the geomean.
	rows []row
	// layer holds per-layer counters measured from outside the program
	// (memory, fleet and pool statistics).
	layer map[string]float64
	// trace is the traced window's log (nil when untraced).
	trace *traceLog
}

type row struct {
	name  string
	value float64
	unit  string
}

func (m *measurement) fail(err error) {
	m.failed++
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// workload is one benchmark workload bound to its inputs and expected
// results (made before set-up, outside every timed region).
type workload interface {
	// setup builds the program state the loop runs on; it is timed.
	setup() error
	// measure runs the closed loop for d, recording spans into tr when
	// tr is not nil.
	measure(d time.Duration, tr *tracer) (*measurement, error)
	teardown()
}

type config struct {
	seed    int64
	nproc   int
	kernels []*kernel
	exact   *exactMetrics
}

var workloads = map[string]func(*config) (workload, error){
	"compile":  newCompileWorkload,
	"simulate": newSimulateWorkload,
	"serve":    newServeWorkload,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: compile, simulate or serve")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 20, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload compile|simulate|serve --seed N --seconds N --trace 0|1")
		return 2
	}
	if err := runWorkload(*name, mk, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runWorkload(name string, mk func(*config) (workload, error), seed int64, d time.Duration, traced bool) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	began := time.Now()
	ks, err := loadKernels(root)
	if err != nil {
		return err
	}
	ex, err := exactTwice(ks, seed)
	if err != nil {
		return err
	}
	fmt.Printf("kernel set and exact metrics (computed twice, identical): %.2fs\n", time.Since(began).Seconds())
	cfg := &config{seed: seed, nproc: runtime.NumCPU(), kernels: ks, exact: ex}
	began = time.Now()
	w, err := mk(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("inputs and expected results: %.2fs\n", time.Since(began).Seconds())
	// Collect the benchmark's own reference work first, so the
	// collector counts below see the program's set-up and loop only.
	debug.FreeOSMemory()
	var gc [4]runtime.MemStats
	runtime.ReadMemStats(&gc[0])
	defer w.teardown()
	setups := make([]float64, setupReps)
	for i := range setups {
		if i > 0 {
			w.teardown()
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}

	// Start the window from the program's live state: the discarded
	// set-ups' garbage would otherwise stay resident through a window
	// that allocates too little to collect it (simulate).
	runtime.ReadMemStats(&gc[1])
	debug.FreeOSMemory()
	runtime.ReadMemStats(&gc[2])
	stallA, spunA := stallProbe(stallProbeTime)
	rss := startRSS()
	defer rss.stop()
	m, err := w.measure(d, nil)
	if err != nil {
		return err
	}
	peakRSS := rss.finish()
	// The collector's own cycles are counted over set-up and the window,
	// leaving out the collection forced between them.
	runtime.ReadMemStats(&gc[3])
	m.layer["gc.cycles"] = float64(gc[1].NumGC - gc[0].NumGC + gc[3].NumGC - gc[2].NumGC)
	m.layer["gc.pause_ms"] = float64(gc[1].PauseTotalNs-gc[0].PauseTotalNs+gc[3].PauseTotalNs-gc[2].PauseTotalNs) / 1e6
	var t, probe *measurement
	if traced {
		tr := newTracer()
		if t, err = w.measure(d, tr); err != nil {
			return err
		}
		t.trace = tr.log
		if err := tr.log.dump(filepath.Join(root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.tsv", name, seed))); err != nil {
			return err
		}
	}
	stallB, spunB := stallProbe(stallProbeTime)
	stallMsPerS := float64(stallA+stallB) / 1e6 / (spunA + spunB).Seconds()

	e2e := endToEnd(m, ex, setups, peakRSS)
	fmt.Printf("workload %s: seed %d, %d CPUs, %s window, set-ups %.4f s\n", name, seed, cfg.nproc, d, setups)
	fmt.Printf("host stalls over 50µs: %.3f ms per s of probe\n", stallMsPerS)
	printReport(name, m, e2e)

	out := result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if !traced {
		for _, e := range e2eMetrics {
			out.Metrics[e.name] = metric{Value: e2e[e.name], Unit: e.unit}
		}
	} else {
		if probe, err = probeOthers(name, cfg); err != nil {
			return err
		}
		out.Attempted += t.attempted + probe.attempted
		out.Failed += t.failed + probe.failed
		layers := layerValues(cfg, m, t, probe, e2e)
		layers["host.stall_ms_per_s"] = stallMsPerS
		ladder, err := measureLadder(cfg)
		if err != nil {
			return err
		}
		for k, v := range ladder {
			layers[k] = v
		}
		printLayers(layers)
		for _, l := range layerMetrics() {
			v, ok := layers[l.name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", l.name)
			}
			out.Metrics[l.name] = metric{Value: v, Unit: l.unit}
		}
	}
	out.Correct = out.Failed == 0
	for k, v := range out.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, v.Value)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !out.Correct {
		first := m.firstErr
		for _, o := range []*measurement{t, probe} {
			if first == nil && o != nil {
				first = o.firstErr
			}
		}
		return fmt.Errorf("%d of %d operations failed; first: %v", out.Failed, out.Attempted, first)
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload prints. The
// rate and latency figures measure each workload's own operation: a
// kernel through the full compile pipeline, a RunBatch of one kernel's
// streams, or one served request.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"hw.area_ratio", "ratio"},
	{"hw.clock_ratio", "ratio"},
	{"hw.cycles_per_output", "cycles"},
}

func endToEnd(m *measurement, ex *exactMetrics, setups []float64, peakRSS float64) map[string]float64 {
	e := loopMetrics(m)
	e["setup_s"] = median(setups)
	e["peak_rss_mb"] = peakRSS
	e["hw.area_ratio"] = ex.AreaRatio
	e["hw.clock_ratio"] = ex.ClockRatio
	e["hw.cycles_per_output"] = ex.CyclesPerOutput
	return e
}

// loopMetrics are the end-to-end metrics a measured window yields.
func loopMetrics(m *measurement) map[string]float64 {
	return map[string]float64{"throughput": m.rate, "p50_ms": m.p50, "p99_ms": m.p99}
}

// workloadNames maps the generic throughput and latency metrics to the
// workload-specific names the report prints beside them.
var workloadNames = map[string]map[string]string{
	"compile":  {"throughput": "compile.kernels_per_s"},
	"simulate": {"throughput": "sim.cycles_per_s"},
	"serve":    {"throughput": "serve.rps", "p50_ms": "serve.p50_ms", "p99_ms": "serve.p99_ms"},
}

func printReport(name string, m *measurement, e2e map[string]float64) {
	fmt.Printf("operations: %d attempted, %d failed, %d latency samples\n", m.attempted, m.failed, m.samples)
	if m.firstErr != nil {
		fmt.Printf("first failure: %v\n", m.firstErr)
	}
	for _, e := range e2eMetrics {
		alias := ""
		if a, ok := workloadNames[name][e.name]; ok {
			alias = " (" + a + ")"
		}
		fmt.Printf("  %-22s %14.6g %-6s%s\n", e.name, e2e[e.name], e.unit, alias)
	}
	if name == "simulate" {
		fmt.Printf("  %-22s %14.6g %s\n", "sim.mcycles_per_s", e2e["throughput"]/1e6, "Mcycles/s")
	}
	for _, r := range m.rows {
		fmt.Printf("  %-40s %14.6g %s\n", r.name, r.value, r.unit)
	}
}

func printLayers(layers map[string]float64) {
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("per-layer metrics:")
	for _, k := range names {
		fmt.Printf("  %-44s %14.6g\n", k, layers[k])
	}
}

// repoRoot finds the repository root (the directory holding ci/corpus)
// from the working directory upward.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "ci", "corpus")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no ci/corpus above the working directory; run from the repository root")
		}
		dir = parent
	}
}

// spanLayers turns span aggregates into `<name>_us` (mean per call) and
// `<name>.self_us` metrics for every span name in names (0 for a name
// with no calls).
func spanLayers(st map[string]layerStat, names []string) map[string]float64 {
	out := map[string]float64{}
	for _, n := range names {
		s := st[n]
		out[n+"_us"] = s.meanUs()
		out[n+".self_us"] = s.selfUs()
	}
	fmt.Println("span self times (calls, mean µs, self µs):")
	for _, n := range names {
		s := st[n]
		if s.calls > 0 {
			fmt.Printf("  %-22s %9d %12.3f %12.3f\n", n, s.calls, s.meanUs(), s.selfUs())
		}
	}
	return out
}
