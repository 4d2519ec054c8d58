package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"roccc"
)

func TestQuantileMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.Float64()
			}
			return xs
		},
		"duplicates": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(3))
			}
			return xs
		},
		"ascending": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		},
		"descending": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		},
		"heavy tail": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Exp(rng.NormFloat64() * 3)
			}
			return xs
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 4097} {
			xs := gen(n)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
				// Oracle: nearest rank on the sorted copy.
				want := sorted[max(0, int(math.Ceil(q*float64(n)))-1)]
				if got := quantile(append([]float64(nil), xs...), q); got != want {
					t.Errorf("%s n=%d q=%v: quantile %v, sorted oracle %v", name, n, q, got, want)
				}
			}
		}
	}
}

func TestHistogramMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 7, 100, 1000, 100000} {
		var h histogram
		xs := make([]float64, n)
		for i := range xs {
			d := time.Duration(math.Exp(rng.NormFloat64()*2) * 50e3) // around 50 µs, heavy tail
			if i%17 == 0 {
				d = time.Duration(rng.Intn(300)) // the exact low range
			}
			h.record(d)
			xs[i] = float64(d)
		}
		sort.Float64s(xs)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			want := xs[max(0, int(math.Ceil(q*float64(n)))-1)] / 1e6
			got := h.quantileMs(q)
			if math.Abs(got-want) > want/128+1e-6 { // within one bucket
				t.Errorf("n=%d q=%v: histogram %v ms, sorted oracle %v ms", n, q, got, want)
			}
		}
	}
	for _, v := range []int64{0, 1, 255, 256, 257, 511, 512, 1000, 1 << 20, 1<<40 - 1, 1 << 62} {
		b := histBucket(v)
		if lo, w := histLow(b), histWidth(b); v < lo || v >= lo+w || (v >= 256 && w*128 > lo) {
			t.Errorf("%d in bucket %d = [%d, %d)", v, b, lo, lo+w)
		}
	}
}

func TestGeomeanMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 20; n++ {
		xs := make([]float64, n)
		prod := 1.0
		for i := range xs {
			xs[i] = 0.1 + rng.Float64()*10
			prod *= xs[i]
		}
		want := math.Pow(prod, 1/float64(n))
		if got := geomean(xs); math.Abs(got-want) > 1e-12*want {
			t.Errorf("n=%d: geomean %v, product oracle %v", n, got, want)
		}
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
}

func TestSelfTimeSyntheticTree(t *testing.T) {
	// root [0,100] has children a [10,40], b [30,60] (overlapping a) and
	// c [90,120] (running past root's end); a has child g [15,20].
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60},
		{name: "c", parent: 0, start: 90, end: 120},
		{name: "g", parent: 1, start: 15, end: 20},
		{name: "root", parent: -1, start: 200, end: 210},
		{name: "open", parent: -1, start: 5, end: -1}, // never closed: skipped
	}
	st := map[string]layerStat{}
	addSelfTimes(st, spans, nil)
	want := map[string]layerStat{
		"root": {calls: 2, total: 110, self: 100 - 60 + 10}, // covered: [10,60] and [90,100]
		"a":    {calls: 1, total: 30, self: 25},
		"b":    {calls: 1, total: 30, self: 30},
		"c":    {calls: 1, total: 30, self: 30},
		"g":    {calls: 1, total: 5, self: 5},
	}
	for name, w := range want {
		if got := st[name]; got != w {
			t.Errorf("%s: %+v, want %+v", name, got, w)
		}
	}
	if _, ok := st["open"]; ok {
		t.Errorf("an unclosed span was aggregated")
	}
}

func loadSet(t *testing.T) []*kernel {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := loadKernels(root)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func TestKernelSet(t *testing.T) {
	ks := loadSet(t)
	var names, streams []string
	for _, k := range ks {
		names = append(names, k.name)
		if k.stream {
			streams = append(streams, k.name)
		}
	}
	if !equal(names, kernelNames) {
		t.Errorf("kernel set %v, want %v", names, kernelNames)
	}
	if !equal(streams, streamingNames) {
		t.Errorf("streaming kernels %v, want %v", streams, streamingNames)
	}
}

func TestReplayMatchesCompile(t *testing.T) {
	for _, k := range loadSet(t) {
		res, err := roccc.Compile(k.src, k.fn, k.opt)
		if err != nil {
			t.Fatal(err)
		}
		d, err := replayBackEnd(res.Kernel, k.opt, newTracer(), 0)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		want := res.Datapath
		if d.NumOps() != want.NumOps() || d.Latency() != want.Latency() || d.LatchCount() != want.LatchCount() {
			t.Errorf("%s: replay ops/latency/latches %d/%d/%d, core.Compile %d/%d/%d", k.name,
				d.NumOps(), d.Latency(), d.LatchCount(), want.NumOps(), want.Latency(), want.LatchCount())
		}
	}
}

func TestWrongResultsFail(t *testing.T) {
	ks := loadSet(t)
	div := find(ks, "divide")
	rng := rand.New(rand.NewSource(3))
	good, err := div.newTemplate(rng, false)
	if err != nil {
		t.Fatal(err)
	}
	outs := map[string][]int64{"Q": append([]int64(nil), good.outputs["Q"]...)}
	if err := good.check(outs, nil, 0, 0, nil); err != nil {
		t.Fatalf("correct outputs rejected: %v", err)
	}
	outs["Q"][5]++
	if good.check(outs, nil, 0, 0, nil) == nil {
		t.Errorf("a corrupted output value passed the check")
	}
	fault, err := div.newTemplate(rng, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(fault.inputs) != len(good.inputs) {
		t.Errorf("planted-fault template has %d input arrays, want %d", len(fault.inputs), len(good.inputs))
	}
	if fault.check(good.outputs, nil, 0, 0, nil) == nil {
		t.Errorf("a planted fault returned as success passed the check")
	}
	wrongCycle := *fault.fault
	wrongCycle.Cycle++
	if fault.check(nil, nil, 0, 0, &wrongCycle) == nil {
		t.Errorf("a fault at the wrong cycle passed the check")
	}
	if err := fault.check(nil, nil, 0, 0, fault.fault); err != nil {
		t.Errorf("the serial run's own fault was rejected: %v", err)
	}
}

func TestCorruptedBatchCountsAsFailure(t *testing.T) {
	ks := loadSet(t)
	ex, err := computeExact(ks, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newSimulateWorkload(&config{seed: 4, nproc: 2, kernels: ks, exact: ex})
	if err != nil {
		t.Fatal(err)
	}
	sw := w.(*simulateWorkload)
	if err := sw.setup(); err != nil {
		t.Fatal(err)
	}
	defer sw.teardown()
	for i := range sw.ks {
		if err := sw.checkBatch(i); err != nil {
			t.Fatalf("%s: warm-up batch rejected: %v", sw.ks[i].name, err)
		}
	}
	job := &sw.jobs[0][1]
	for name := range job.Outputs {
		job.Outputs[name][0] ^= 1
		break
	}
	if sw.checkBatch(0) == nil {
		t.Errorf("a corrupted stream in a batch passed the check")
	}
}

// TestWorkloadsRun runs every workload briefly, untraced and traced,
// and requires every operation to pass its check.
func TestWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ks := loadSet(t)
	ex, err := exactTwice(ks, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := &config{seed: 5, nproc: 2, kernels: ks, exact: ex}
	for name, mk := range workloads {
		w, err := mk(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := w.setup(); err != nil {
			t.Fatalf("%s set-up: %v", name, err)
		}
		for _, tr := range []*tracer{nil, newTracer()} {
			m, err := w.measure(300*time.Millisecond, tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if m.attempted == 0 || m.failed != 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed (first: %v)", name, tr != nil, m.attempted, m.failed, m.firstErr)
			}
			if tr != nil && len(tr.log.kept) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
		w.teardown()
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric and workload lists
// equal to what the program prints.
func TestBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", wl, len(workloads))
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		ok := len(got) == len(want)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i].Name == want[i].name && got[i].Unit == want[i].unit
		}
		if !ok {
			var exp []map[string]string
			for _, m := range want {
				exp = append(exp, map[string]string{"name": m.name, "unit": m.unit})
			}
			js, _ := json.Marshal(exp)
			t.Errorf("BENCHMARK.json %s does not match the program; want names and units %s", what, js)
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics())
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
