package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

const sampleOutput = `
goos: linux
goarch: amd64
pkg: roccc
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig2ExecutionModel-8         	     200	      4400 ns/op	        10.29 cycles/output	       0 B/op	       0 allocs/op
BenchmarkBatchSweep/serial-8          	     100	    171000 ns/op	     152 B/op	       3 allocs/op
BenchmarkBatchSweep/sharded-8         	     100	     71250 ns/op	       0 B/op	       0 allocs/op
BenchmarkServeThroughput/inproc       	     200	      5367 ns/op	       0 B/op	       0 allocs/op
BenchmarkServeThroughput/tcp-serial-2 	     200	     33800 ns/op	    1460 B/op	      17 allocs/op
BenchmarkServeThroughput/tcp-concurrent-2 	     200	     26929 ns/op	    1526 B/op	      17 allocs/op
PASS
ok  	roccc	12.3s
`

func TestParseBench(t *testing.T) {
	rs := parseBench(sampleOutput)
	if len(rs) != 6 {
		t.Fatalf("parsed %d results, want 6", len(rs))
	}
	byName := map[string]Result{}
	for _, r := range rs {
		byName[r.Name] = r
	}
	fig2, ok := byName["BenchmarkFig2ExecutionModel"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix was not stripped")
	}
	if fig2.NsOp != 4400 || fig2.Iters != 200 {
		t.Fatalf("fig2 = %+v", fig2)
	}
	if fig2.Metrics["allocs/op"] != 0 || fig2.Metrics["cycles/output"] != 10.29 {
		t.Fatalf("fig2 metrics = %+v", fig2.Metrics)
	}
	if byName["BenchmarkServeThroughput/tcp-serial"].Metrics["allocs/op"] != 17 {
		t.Fatal("sub-benchmark with suffix not parsed")
	}
	// A name without suffix parses too.
	if byName["BenchmarkServeThroughput/inproc"].NsOp != 5367 {
		t.Fatal("suffix-less benchmark not parsed")
	}
}

func gateFixture() GateFile {
	zero := int64(0)
	return GateFile{Groups: []Group{
		{
			Name: "alloc",
			Gates: []Gate{
				{Bench: "BenchmarkFig2ExecutionModel", MaxAllocs: &zero},
				{Bench: "BenchmarkBatchSweep/sharded", MaxAllocs: &zero},
				{Bench: "BenchmarkServeThroughput/tcp-serial", MaxAllocs: &zero}, // must fail: 17
			},
		},
		{
			Name: "speedup",
			Gates: []Gate{
				{Bench: "BenchmarkBatchSweep/sharded", Baseline: "BenchmarkBatchSweep/serial",
					Speedups: []SpeedupRule{{MinCPUs: 4, Min: 2.0}, {MinCPUs: 2, Min: 1.2}, {MinCPUs: 0, Min: 0.7}}},
				{Bench: "BenchmarkMissing", MaxAllocs: &zero},
			},
		},
	}}
}

func TestEvaluateGates(t *testing.T) {
	results := map[string]Result{}
	for _, r := range parseBench(sampleOutput) {
		results[r.Name] = r
	}
	// On 8 CPUs the 2.0x rule applies: 171000/71250 = 2.4x passes.
	vs := evaluate(gateFixture(), results, 8)
	if len(vs) != 5 {
		t.Fatalf("verdicts = %d, want 5", len(vs))
	}
	get := func(bench, check string) Verdict {
		for _, v := range vs {
			if v.Bench == bench && v.Check == check {
				return v
			}
		}
		t.Fatalf("no verdict for %s %s", bench, check)
		return Verdict{}
	}
	if v := get("BenchmarkFig2ExecutionModel", "allocs/op"); !v.OK {
		t.Errorf("fig2 alloc gate failed: %+v", v)
	}
	if v := get("BenchmarkServeThroughput/tcp-serial", "allocs/op"); v.OK || v.Observed != 17 {
		t.Errorf("tcp-serial alloc gate should fail with 17: %+v", v)
	}
	if v := get("BenchmarkBatchSweep/sharded", "speedup"); !v.OK || v.Bound != 2.0 || v.Observed < 2.3 {
		t.Errorf("speedup gate on 8 CPUs: %+v", v)
	}
	if v := get("BenchmarkMissing", "present"); v.OK {
		t.Errorf("missing benchmark must fail: %+v", v)
	}

	// On 1 CPU the 0.7x floor applies instead.
	vs1 := evaluate(gateFixture(), results, 1)
	for _, v := range vs1 {
		if v.Check == "speedup" && v.Bound != 0.7 {
			t.Errorf("1-CPU speedup floor = %v, want 0.7", v.Bound)
		}
	}

	out := formatVerdicts(vs, 8)
	for _, want := range []string{"PASS", "FAIL", "speedup", "allocs/op"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatBaselineDiff(t *testing.T) {
	base := &Trajectory{
		SHA:  "seed00000000",
		CPUs: 8,
		Results: []Result{
			{Name: "BenchmarkFig2ExecutionModel", NsOp: 4400, Metrics: map[string]float64{"allocs/op": 0}},
			{Name: "BenchmarkOld", NsOp: 100, Metrics: map[string]float64{}},
			{Name: "BenchmarkLeaky", NsOp: 50, Metrics: map[string]float64{"allocs/op": 3}},
		},
	}
	fresh := []Result{
		{Name: "BenchmarkFig2ExecutionModel", NsOp: 2200, Metrics: map[string]float64{"allocs/op": 0}},
		{Name: "BenchmarkLeaky", NsOp: 50, Metrics: map[string]float64{"allocs/op": 0}},
		{Name: "BenchmarkSysRun/fir4k-streak", NsOp: 275000, Metrics: map[string]float64{"allocs/op": 0}},
	}
	out := formatBaselineDiff(base, fresh)
	for _, want := range []string{
		"seed00000000",
		"2x",   // 4400/2200: the headline speedup is visible in review
		"new",  // fresh benchmark absent from the baseline
		"gone", // baseline benchmark that disappeared
		"3→0",  // alloc transition
	} {
		if !strings.Contains(out, want) {
			t.Errorf("baseline diff missing %q:\n%s", want, out)
		}
	}
}

func TestLoadTrajectoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/BENCH_test.json"
	blob := `{"sha":"abc","date":"2026-07-26T00:00:00Z","go":"go1.24","cpus":2,
		"results":[{"name":"BenchmarkX","iters":10,"ns_op":123.5,"metrics":{"allocs/op":1}}]}`
	if err := writeFile(path, blob); err != nil {
		t.Fatal(err)
	}
	tr, err := loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SHA != "abc" || len(tr.Results) != 1 || tr.Results[0].NsOp != 123.5 {
		t.Fatalf("trajectory = %+v", tr)
	}
	if _, err := loadTrajectory(dir + "/missing.json"); err == nil {
		t.Fatal("missing baseline must error")
	}
}

func TestPickSpeedup(t *testing.T) {
	rules := []SpeedupRule{{MinCPUs: 4, Min: 2.0}, {MinCPUs: 2, Min: 1.2}, {MinCPUs: 0, Min: 0.7}}
	for cpus, want := range map[int]float64{1: 0.7, 2: 1.2, 3: 1.2, 4: 2.0, 64: 2.0} {
		r, ok := pickSpeedup(rules, cpus)
		if !ok || r.Min != want {
			t.Errorf("cpus=%d: rule %+v ok=%v, want floor %v", cpus, r, ok, want)
		}
	}
	if _, ok := pickSpeedup([]SpeedupRule{{MinCPUs: 4, Min: 2}}, 2); ok {
		t.Error("uncovered CPU count must report no rule")
	}
}

func TestRunCmdGroupParsesSummary(t *testing.T) {
	zero := int64(0)
	five := 5.0
	g := Group{
		Name: "static",
		Cmd:  []string{"echo", "rocccvet: 15 kernels, 0 violations, 0 broken, 0.02s"},
		Gates: []Gate{
			{Bench: "rocccvet", MaxViolations: &zero, MaxSeconds: &five},
		},
	}
	vs, r, _ := runCmdGroup(g)
	if len(vs) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(vs))
	}
	for _, v := range vs {
		if !v.OK {
			t.Errorf("%s gate failed: %+v", v.Check, v)
		}
	}
	if r.Name != "cmd:static" || r.Metrics["violations"] != 0 || r.Metrics["seconds"] != 0.02 {
		t.Errorf("bad trajectory result: %+v", r)
	}
}

func TestRunCmdGroupFailsOnViolations(t *testing.T) {
	zero := int64(0)
	g := Group{
		Name:  "static",
		Cmd:   []string{"echo", "rocccvet: 15 kernels, 3 violations, 0 broken, 0.10s"},
		Gates: []Gate{{Bench: "rocccvet", MaxViolations: &zero}},
	}
	vs, _, _ := runCmdGroup(g)
	if len(vs) != 1 || vs[0].OK {
		t.Fatalf("3 violations against a 0 bound must fail: %+v", vs)
	}
	if vs[0].Observed != 3 {
		t.Errorf("observed = %v, want 3", vs[0].Observed)
	}
}

func TestRunCmdGroupFailsWithoutSummary(t *testing.T) {
	zero := int64(0)
	five := 5.0
	g := Group{
		Name:  "static",
		Cmd:   []string{"echo", "no summary here"},
		Gates: []Gate{{Bench: "rocccvet", MaxViolations: &zero, MaxSeconds: &five}},
	}
	vs, _, _ := runCmdGroup(g)
	if len(vs) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(vs))
	}
	for _, v := range vs {
		if v.OK {
			t.Errorf("gate %s passed without a summary line", v.Check)
		}
		if !strings.Contains(v.Detail, "no violations summary") {
			t.Errorf("gate %s detail = %q", v.Check, v.Detail)
		}
	}
}

func TestRunCmdGroupSecondsBound(t *testing.T) {
	limit := 0.01
	g := Group{
		Name:  "static",
		Cmd:   []string{"echo", "rocccvet: 15 kernels, 0 violations, 0 broken, 4.20s"},
		Gates: []Gate{{Bench: "rocccvet", MaxSeconds: &limit}},
	}
	vs, _, _ := runCmdGroup(g)
	if len(vs) != 1 || vs[0].OK {
		t.Fatalf("4.20s against a 0.01s bound must fail: %+v", vs)
	}
}

func TestHeadSHADirty(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	t.Setenv("GITHUB_SHA", "")
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=cigate", "-c", "user.email=cigate@example.com"}, args...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	git("init", "-q")
	tracked := filepath.Join(dir, "tracked.txt")
	if err := writeFile(tracked, "one\n"); err != nil {
		t.Fatal(err)
	}
	git("add", "tracked.txt")
	git("commit", "-q", "-m", "first")
	sha := git("rev-parse", "--short=12", "HEAD")

	// An untracked file leaves the tree clean.
	if err := writeFile(filepath.Join(dir, "untracked.txt"), "x\n"); err != nil {
		t.Fatal(err)
	}
	if got := headSHA(dir); got != sha {
		t.Errorf("clean tree: headSHA = %q, want %q", got, sha)
	}
	if err := writeFile(tracked, "two\n"); err != nil {
		t.Fatal(err)
	}
	if got, want := headSHA(dir), sha+"-dirty"; got != want {
		t.Errorf("modified tracked file: headSHA = %q, want %q", got, want)
	}
	t.Setenv("GITHUB_SHA", "0123456789abcdef")
	if got := headSHA(dir); got != "0123456789ab" {
		t.Errorf("GITHUB_SHA set: headSHA = %q, want the first 12 characters", got)
	}
}
