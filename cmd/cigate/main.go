// Command cigate is the CI benchmark gate runner: it replaces the old
// awk/shell pipelines in ci.yml with one Go program that runs the
// benchmarks itself, parses their output, evaluates the checked-in
// gates (ci/gates.json) and prints a pass/fail table. With -json it
// also writes a machine-readable BENCH_<sha>.json trajectory file
// (ns/op, allocs/op, speedups) for CI to upload as an artifact, so
// future changes have a perf baseline to compare against.
//
// Usage:
//
//	cigate [-gates ci/gates.json] [-json out.json] [-baseline ci/baseline/BENCH_seed.json] [-group NAME] [-v]
//
// -group runs one gate group; the default is all of them. A speedup
// gate's floor is the rule for the host's CPU count (runtime.NumCPU).
//
// -baseline diffs the fresh results against a committed trajectory file
// (ns/op and allocs/op per benchmark), so every CI run shows where the
// numbers stand relative to the checked-in baseline — informational,
// never gating: absolute ns/op is runner-dependent, which is exactly
// why the gates themselves are ratios and alloc counts.
//
// Exit status is nonzero if any gate fails or any gated benchmark is
// missing from the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// GateFile is the checked-in gate configuration.
type GateFile struct {
	// Pkg is the package directory the benchmarks live in (default ".").
	Pkg string `json:"pkg"`
	// Groups each run one `go test -bench` invocation.
	Groups []Group `json:"groups"`
}

// Group is one benchmark run (or one command run) and the gates
// evaluated on it.
type Group struct {
	Name string `json:"name"`
	// Bench is the -bench regexp; Benchtime the -benchtime value
	// (iteration counts like "200x" keep CI deterministic).
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
	// Cmd, when set, replaces the benchmark invocation with an
	// arbitrary command (argv form). The command's output must carry a
	// summary line with "<n> violations" and a "<x.xx>s" elapsed time —
	// cmd/rocccvet's format — which MaxViolations/MaxSeconds gate.
	Cmd   []string `json:"cmd,omitempty"`
	Gates []Gate   `json:"gates"`
}

// Gate is one assertion over a benchmark's results. Exactly one of the
// assertion families applies: MaxAllocs bounds the benchmark itself;
// Baseline+Speedups require bench to beat baseline by a
// CPU-count-conditional factor.
type Gate struct {
	// Bench is the exact benchmark name, without the -N GOMAXPROCS
	// suffix (e.g. "BenchmarkBatchSweep/sharded").
	Bench string `json:"bench"`
	// MaxAllocs caps allocs/op (steady-state zero-alloc gates use 0).
	MaxAllocs *int64 `json:"max_allocs,omitempty"`
	// Baseline names the benchmark to compare against; the speedup is
	// baseline ns/op divided by bench ns/op.
	Baseline string `json:"baseline,omitempty"`
	// Speedups are CPU-conditioned floors: the rule with the largest
	// MinCPUs <= the runner's CPU count applies.
	Speedups []SpeedupRule `json:"speedups,omitempty"`
	// MaxViolations caps the violation count a Cmd group's summary
	// reports (static verification gates use 0).
	MaxViolations *int64 `json:"max_violations,omitempty"`
	// MaxSeconds caps the elapsed seconds the Cmd summary reports.
	MaxSeconds *float64 `json:"max_seconds,omitempty"`
}

// SpeedupRule is one CPU-count-conditional speedup floor.
type SpeedupRule struct {
	MinCPUs int     `json:"min_cpus"`
	Min     float64 `json:"min"`
}

// Result is one parsed benchmark line.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	NsOp    float64            `json:"ns_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Verdict is one evaluated gate.
type Verdict struct {
	Group    string  `json:"group"`
	Bench    string  `json:"bench"`
	Check    string  `json:"check"`
	Observed float64 `json:"observed"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
	Detail   string  `json:"detail,omitempty"`
}

// Trajectory is the -json artifact: one CI run's full benchmark state.
type Trajectory struct {
	SHA     string    `json:"sha"`
	Date    time.Time `json:"date"`
	Go      string    `json:"go"`
	CPUs    int       `json:"cpus"`
	Results []Result  `json:"results"`
	Gates   []Verdict `json:"gates"`
}

func main() {
	var (
		gatesPath = flag.String("gates", "ci/gates.json", "gate configuration file")
		jsonOut   = flag.String("json", "", "write a BENCH trajectory JSON to this path ('auto' derives BENCH_<sha>.json)")
		baseline  = flag.String("baseline", "", "committed BENCH_*.json trajectory to diff the fresh results against (informational)")
		group     = flag.String("group", "", "run only the named gate group (default: all)")
		verbose   = flag.Bool("v", false, "echo raw benchmark output")
	)
	flag.Parse()
	cpus := runtime.NumCPU()

	raw, err := os.ReadFile(*gatesPath)
	if err != nil {
		fatal(err)
	}
	var gf GateFile
	if err := json.Unmarshal(raw, &gf); err != nil {
		fatal(fmt.Errorf("%s: %w", *gatesPath, err))
	}
	if gf.Pkg == "" {
		gf.Pkg = "."
	}
	if *group != "" {
		var kept []Group
		for _, g := range gf.Groups {
			if g.Name == *group {
				kept = append(kept, g)
			}
		}
		if len(kept) == 0 {
			fatal(fmt.Errorf("no gate group named %q in %s", *group, *gatesPath))
		}
		gf.Groups = kept
	}

	results := map[string]Result{}
	var ordered []Result
	var cmdVerdicts []Verdict
	for _, g := range gf.Groups {
		if len(g.Cmd) > 0 {
			vs, r, out := runCmdGroup(g)
			if *verbose || !allOK(vs) {
				fmt.Print(out)
			}
			cmdVerdicts = append(cmdVerdicts, vs...)
			results[r.Name] = r
			ordered = append(ordered, r)
			continue
		}
		out, err := runGroup(gf.Pkg, g)
		if *verbose || err != nil {
			fmt.Print(out)
		}
		if err != nil {
			fatal(fmt.Errorf("group %s: %w", g.Name, err))
		}
		for _, r := range parseBench(out) {
			results[r.Name] = r
			ordered = append(ordered, r)
		}
	}

	verdicts := append(evaluate(gf, results, cpus), cmdVerdicts...)
	fmt.Print(formatVerdicts(verdicts, cpus))

	if *baseline != "" {
		// The diff is informational, never gating — a missing or stale
		// baseline file must not fail a run whose gates all passed.
		if base, err := loadTrajectory(*baseline); err != nil {
			fmt.Fprintf(os.Stderr, "cigate: baseline diff skipped: %v\n", err)
		} else {
			fmt.Print(formatBaselineDiff(base, ordered))
		}
	}

	failed := false
	for _, v := range verdicts {
		if !v.OK {
			failed = true
		}
	}

	if *jsonOut != "" {
		path := *jsonOut
		sha := headSHA("")
		if path == "auto" {
			path = fmt.Sprintf("BENCH_%s.json", sha)
		}
		traj := Trajectory{
			SHA:     sha,
			Date:    time.Now().UTC(),
			Go:      runtime.Version(),
			CPUs:    cpus,
			Results: ordered,
			Gates:   verdicts,
		}
		blob, err := json.MarshalIndent(traj, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("cigate: wrote %s\n", path)
	}

	if failed {
		os.Exit(1)
	}
}

// runGroup executes one `go test -bench` invocation and returns its
// combined output.
func runGroup(pkg string, g Group) (string, error) {
	bt := g.Benchtime
	if bt == "" {
		bt = "100x"
	}
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", g.Bench,
		"-benchtime", bt, "-benchmem", pkg)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// cmdSummary matches a verifier summary line: "... <n> violations ...
// <x.xx>s" — cmd/rocccvet's last line. The elapsed time is the tool's
// self-reported one, so the gate is independent of go-run build time.
var cmdSummary = regexp.MustCompile(`(\d+) violations.*?([0-9]+(?:\.[0-9]+)?)s`)

// runCmdGroup executes one Cmd group, parses its violation summary and
// evaluates the group's MaxViolations/MaxSeconds gates. A command that
// exits nonzero is not fatal by itself: the summary decides the
// verdicts, and a run with no parseable summary fails every gate.
func runCmdGroup(g Group) ([]Verdict, Result, string) {
	cmd := exec.Command(g.Cmd[0], g.Cmd[1:]...)
	outBytes, runErr := cmd.CombinedOutput()
	out := string(outBytes)

	var violations float64
	var seconds float64
	found := false
	extra := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		if m := cmdSummary.FindStringSubmatch(line); m != nil {
			violations, _ = strconv.ParseFloat(m[1], 64)
			seconds, _ = strconv.ParseFloat(m[2], 64)
			found = true
		}
		// Tools may report extra metrics as "cigate-metric <name> <value>"
		// lines (rocccload's knee_rps etc.); they ride along into the
		// trajectory next to the violation counts.
		if f := strings.Fields(line); len(f) == 3 && f[0] == "cigate-metric" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				extra[f[1]] = v
			}
		}
	}

	var vs []Verdict
	for _, gate := range g.Gates {
		bench := gate.Bench
		if bench == "" {
			bench = strings.Join(g.Cmd, " ")
		}
		if gate.MaxViolations != nil {
			v := Verdict{Group: g.Name, Bench: bench, Check: "violations",
				Observed: violations, Bound: float64(*gate.MaxViolations)}
			v.OK = found && int64(violations) <= *gate.MaxViolations
			if !found {
				v.Detail = noSummaryDetail(runErr)
			}
			vs = append(vs, v)
		}
		if gate.MaxSeconds != nil {
			v := Verdict{Group: g.Name, Bench: bench, Check: "seconds",
				Observed: seconds, Bound: *gate.MaxSeconds}
			v.OK = found && seconds <= *gate.MaxSeconds
			if !found {
				v.Detail = noSummaryDetail(runErr)
			}
			vs = append(vs, v)
		}
	}
	r := Result{Name: "cmd:" + g.Name,
		Metrics: map[string]float64{"violations": violations, "seconds": seconds}}
	for k, v := range extra {
		r.Metrics[k] = v
	}
	return vs, r, out
}

func noSummaryDetail(runErr error) string {
	if runErr != nil {
		return fmt.Sprintf("no violations summary in output (%v)", runErr)
	}
	return "no violations summary in output"
}

func allOK(vs []Verdict) bool {
	for _, v := range vs {
		if !v.OK {
			return false
		}
	}
	return true
}

// benchLine matches one `go test -bench` result line.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parseBench extracts benchmark results from `go test -bench` output.
// Metric pairs after the iteration count are "<value> <unit>"; ns/op is
// promoted to its own field, everything else (allocs/op, B/op, custom
// b.ReportMetric units) lands in Metrics.
func parseBench(out string) []Result {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: m[1], Iters: iters, Metrics: map[string]float64{}}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				r.NsOp = v
			} else {
				r.Metrics[unit] = v
			}
		}
		results = append(results, r)
	}
	return results
}

// pickSpeedup selects the floor whose MinCPUs condition is the tightest
// satisfied one.
func pickSpeedup(rules []SpeedupRule, cpus int) (SpeedupRule, bool) {
	best, found := SpeedupRule{MinCPUs: -1}, false
	for _, r := range rules {
		if cpus >= r.MinCPUs && r.MinCPUs > best.MinCPUs {
			best, found = r, true
		}
	}
	return best, found
}

// evaluate turns parsed results into gate verdicts.
func evaluate(gf GateFile, results map[string]Result, cpus int) []Verdict {
	var out []Verdict
	for _, g := range gf.Groups {
		if len(g.Cmd) > 0 {
			continue // gated by runCmdGroup
		}
		for _, gate := range g.Gates {
			r, ok := results[gate.Bench]
			if !ok {
				out = append(out, Verdict{Group: g.Name, Bench: gate.Bench,
					Check: "present", Detail: "benchmark missing from output"})
				continue
			}
			if gate.MaxAllocs != nil {
				allocs, has := r.Metrics["allocs/op"]
				v := Verdict{Group: g.Name, Bench: gate.Bench, Check: "allocs/op",
					Observed: allocs, Bound: float64(*gate.MaxAllocs)}
				v.OK = has && int64(allocs) <= *gate.MaxAllocs
				if !has {
					v.Detail = "allocs/op missing (run with -benchmem)"
				}
				out = append(out, v)
			}
			if gate.Baseline != "" {
				base, baseOK := results[gate.Baseline]
				rule, ruleOK := pickSpeedup(gate.Speedups, cpus)
				v := Verdict{Group: g.Name, Bench: gate.Bench, Check: "speedup"}
				switch {
				case !baseOK:
					v.Detail = fmt.Sprintf("baseline %s missing from output", gate.Baseline)
				case !ruleOK:
					v.Detail = fmt.Sprintf("no speedup rule covers %d CPUs", cpus)
				case r.NsOp <= 0:
					v.Detail = "ns/op is zero"
				default:
					v.Observed = base.NsOp / r.NsOp
					v.Bound = rule.Min
					v.OK = v.Observed >= rule.Min
					v.Detail = fmt.Sprintf("vs %s (floor for >=%d CPUs)", gate.Baseline, rule.MinCPUs)
				}
				out = append(out, v)
			}
		}
	}
	return out
}

// formatVerdicts renders the pass/fail table.
func formatVerdicts(vs []Verdict, cpus int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cigate: %d gates on %d CPUs\n", len(vs), cpus)
	fmt.Fprintf(&b, "%-6s %-10s %-45s %-10s %12s %12s  %s\n",
		"result", "group", "benchmark", "check", "observed", "bound", "detail")
	for _, v := range vs {
		status := "PASS"
		if !v.OK {
			status = "FAIL"
		}
		obs, bound := trimFloat(v.Observed), trimFloat(v.Bound)
		fmt.Fprintf(&b, "%-6s %-10s %-45s %-10s %12s %12s  %s\n",
			status, v.Group, v.Bench, v.Check, obs, bound, v.Detail)
	}
	return b.String()
}

func trimFloat(f float64) string {
	s := strconv.FormatFloat(f, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// loadTrajectory reads a committed BENCH_*.json file.
func loadTrajectory(path string) (*Trajectory, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &t, nil
}

// formatBaselineDiff renders the perf trajectory: fresh results against
// a committed baseline, benchmark by benchmark. The ratio column is
// baseline ns/op over fresh ns/op (>1 means faster now); alloc deltas
// surface regressions the ns columns can hide. Benchmarks on one side
// only are listed so renames and new meters stay visible in review.
func formatBaselineDiff(base *Trajectory, fresh []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cigate: trajectory vs baseline %s (%s, %d CPUs)\n",
		base.SHA, base.Date.Format("2006-01-02"), base.CPUs)
	fmt.Fprintf(&b, "%-50s %12s %12s %8s %9s\n",
		"benchmark", "base ns/op", "now ns/op", "ratio", "allocs")
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	seen := map[string]bool{}
	for _, r := range fresh {
		seen[r.Name] = true
		br, ok := baseBy[r.Name]
		if !ok {
			fmt.Fprintf(&b, "%-50s %12s %12s %8s %9s\n",
				r.Name, "-", trimFloat(r.NsOp), "new", trimFloat(r.Metrics["allocs/op"]))
			continue
		}
		ratio := "-"
		if r.NsOp > 0 && br.NsOp > 0 {
			ratio = trimFloat(br.NsOp/r.NsOp) + "x"
		}
		fmt.Fprintf(&b, "%-50s %12s %12s %8s %9s\n",
			r.Name, trimFloat(br.NsOp), trimFloat(r.NsOp), ratio,
			allocDelta(br.Metrics["allocs/op"], r.Metrics["allocs/op"]))
	}
	for _, r := range base.Results {
		if !seen[r.Name] {
			fmt.Fprintf(&b, "%-50s %12s %12s %8s %9s\n", r.Name, trimFloat(r.NsOp), "-", "gone", "")
		}
	}
	return b.String()
}

// allocDelta renders an allocs/op transition compactly ("0", "3→0").
func allocDelta(base, now float64) string {
	if base == now {
		return trimFloat(now)
	}
	return trimFloat(base) + "→" + trimFloat(now)
}

// headSHA resolves the commit being gated: GITHUB_SHA in CI, else the
// HEAD of the git checkout in dir ("" for the working directory), with
// "-dirty" appended when tracked files differ from it, so a trajectory
// written from uncommitted changes does not name the commit before
// them; "unknown" without either.
func headSHA(dir string) string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		if len(sha) > 12 {
			sha = sha[:12]
		}
		return sha
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	sha, err := git("rev-parse", "--short=12", "HEAD")
	if err != nil {
		return "unknown"
	}
	if status, err := git("status", "--porcelain", "--untracked-files=no"); err == nil && status != "" {
		sha += "-dirty"
	}
	return sha
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cigate:", err)
	os.Exit(1)
}
