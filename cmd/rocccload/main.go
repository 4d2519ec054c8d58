// Command rocccload is the open-loop load harness for a rocccserve
// fleet: it fires requests at fixed Poisson arrival rates from a single
// pacing clock — the next arrival never waits for the last response, so
// queueing collapse shows up as tail latency instead of being absorbed
// — and measures every latency from the request's scheduled arrival
// time (coordinated-omission debt is in the quantiles, not hidden).
// Traffic follows one scenario: a uniform kernel mix over Table 1, the
// fault divider and the streaming kernels of exp.CorpusDir, 5% planted
// faults and 1% rude disconnects, drawn from seed 1. Load-sheds (the
// fleet's typed Busy fault) are classified as backpressure, separate
// from errors, and /metrics is scraped between steps to correlate
// latency with pool saturation.
//
// Usage:
//
//	rocccload -local 2                  # self-hosted 2-shard fleet, knee search
//	rocccload -addr host:9944 -rate 200 # one fixed-rate step on a live fleet
//	rocccload -local 2 -gate -out LOAD_report.json
//
// With -addr the server must register every kernel of the scenario:
// rocccserve does when it runs from the same directory as rocccload, so
// both read the same corpus (ci/corpus, from the repo root).
//
// With -rate the harness runs one step and exits 1 when that step had a
// non-shed error or served nothing. Without -rate it runs the knee
// search: step-doubling then bisection to the highest rate where p99
// stays under -slo with zero non-shed errors, then post-knee probes
// proving the shed rate rises monotonically under deepening overload.
// -out writes the full machine-readable report; -gate evaluates the
// load gate contract and prints a cigate-parseable summary ("N
// violations in X.XXs") plus cigate-metric lines folded into the BENCH
// trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"roccc/internal/exp"
	"roccc/internal/load"
)

// The scenario every run fires: seed fixes the arrival schedules and
// the mix draw, so two runs at one rate fire the same kernels at the
// same offsets; faultFrac of arrivals carry a planted divide-by-zero
// and discFrac rudely disconnect mid-request.
const (
	seed      = 1
	faultFrac = 0.05
	discFrac  = 0.01
)

func main() {
	var (
		addr       = flag.String("addr", "", "rocccserve TCP address (mutually exclusive with -local)")
		metricsURL = flag.String("metrics", "", "rocccserve /metrics URL to scrape between steps (external fleets)")
		local      = flag.Int("local", 0, "stand up a self-hosted in-process fleet with N shards (0 = use -addr)")
		localSlots = flag.Int("local-slots", 48, "per-shard concurrent-stream budget for the local fleet (sheds past it)")

		rate     = flag.Float64("rate", 0, "fixed offered rate in req/s (0 = knee search)")
		duration = flag.Duration("duration", 2*time.Second, "arrival window per rate step")
		streams  = flag.Int("streams", 1, "streams per request")

		slo       = flag.Duration("slo", 100*time.Millisecond, "p99 ceiling defining the knee")
		startRate = flag.Float64("start-rate", 50, "knee search starting rate (req/s)")

		out  = flag.String("out", "", "write the machine-readable JSON report here")
		gate = flag.Bool("gate", false, "evaluate the load gate contract and print a cigate summary")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rocccload: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *local == 0 && *addr == "":
		usageErr("one of -addr or -local is required")
	case *local != 0 && *addr != "":
		usageErr("-addr and -local are mutually exclusive")
	case *local < 0 || (*local > 0 && *local < 2):
		usageErr("-local needs at least 2 shards (the router is what sheds)")
	case *rate < 0 || *startRate <= 0:
		usageErr("-rate must be >= 0 and -start-rate positive")
	case *duration <= 0 || *slo <= 0:
		usageErr("-duration and -slo must be positive")
	case *streams <= 0:
		usageErr("-streams must be positive")
	case *localSlots <= 0:
		usageErr("-local-slots must be positive")
	case *gate && *rate > 0:
		usageErr("-gate needs the knee search (drop -rate)")
	}
	scenario, err := load.BuildScenario(exp.CorpusDir, faultFrac, discFrac, *streams)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rocccload: scenario: %d kernels in the mix, %.0f%% faults, %.0f%% rude disconnects, %d stream(s)/request\n",
		len(scenario.Mix), faultFrac*100, discFrac*100, *streams)

	target, mURL := *addr, *metricsURL
	var fleet *load.LocalFleet
	if *local > 0 {
		fleet, err = load.StartLocalFleet(*local, *localSlots, scenario.Specs)
		if err != nil {
			fatal(err)
		}
		defer fleet.Close()
		target, mURL = fleet.Addr, fleet.MetricsURL
		fmt.Printf("rocccload: local fleet: %d shards x %d slots at %s (metrics %s)\n",
			*local, *localSlots, target, mURL)
	}

	if err := load.Warmup(target, scenario); err != nil {
		fatal(err)
	}

	stepCfg := load.StepConfig{
		Addr:       target,
		MetricsURL: mURL,
		Duration:   *duration,
		Seed:       seed,
		Scenario:   scenario,
	}
	report := &load.Report{
		Addr:               target,
		CPUs:               runtime.NumCPU(),
		StepSec:            duration.Seconds(),
		StreamsPerRequest:  *streams,
		FaultFraction:      faultFrac,
		DisconnectFraction: discFrac,
		Mix:                scenario.Mix,
	}

	var violations []string
	begin := time.Now()
	if *rate > 0 {
		stepCfg.Rate = *rate
		res, err := load.RunStep(stepCfg)
		if err != nil {
			fatal(err)
		}
		report.Knee = &load.KneeResult{SLOMs: float64(*slo) / 1e6, Steps: []load.StepResult{*res}}
		blob, _ := json.MarshalIndent(res, "", "  ")
		fmt.Printf("rocccload: fixed-rate step:\n%s\n", blob)
		if err := res.Check(); err != nil {
			violations = append(violations, err.Error())
		}
	} else {
		kr, err := load.FindKnee(load.KneeConfig{
			Step:      stepCfg,
			StartRate: *startRate,
			SLO:       *slo,
			Log: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		report.Knee = kr
		fmt.Printf("rocccload: %s\n", kr)
	}
	elapsed := time.Since(begin)

	if fleet != nil {
		if err := fleet.Balanced(10 * time.Second); err != nil {
			violations = append(violations, err.Error())
		}
	}

	if *out != "" {
		if err := report.WriteFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("rocccload: wrote %s\n", *out)
	}

	if *gate {
		violations = append(violations, report.Gate()...)
		for _, v := range violations {
			fmt.Printf("rocccload: VIOLATION: %s\n", v)
		}
		// Machine-readable metric lines: cigate folds these into the
		// BENCH_<sha>.json trajectory next to the gate verdicts.
		fmt.Printf("cigate-metric knee_rps %.0f\n", report.Knee.KneeRPS)
		fmt.Printf("cigate-metric p99_at_knee_ms %.3f\n", p99AtKnee(report.Knee))
		fmt.Printf("cigate-metric shed_monotonic %d\n", boolMetric(report.Knee.ShedMonotonic))
		fmt.Printf("cigate-metric load_steps %d\n", len(report.Knee.Steps))
		fmt.Printf("rocccload: %d violations in %.2fs\n", len(violations), elapsed.Seconds())
		if len(violations) > 0 {
			os.Exit(1)
		}
		return
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "rocccload: %s\n", v)
		}
		os.Exit(1)
	}
}

// p99AtKnee returns the knee-rate step's p99 (the last step run exactly
// at the knee rate; 0 when no knee was found).
func p99AtKnee(kr *load.KneeResult) float64 {
	p99 := 0.0
	for _, s := range kr.Steps {
		if s.Rate == kr.KneeRPS {
			p99 = s.P99Ms
		}
	}
	return p99
}

func boolMetric(b bool) int {
	if b {
		return 1
	}
	return 0
}

func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "rocccload:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rocccload:", err)
	os.Exit(1)
}
