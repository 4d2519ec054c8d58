package load

import (
	"fmt"
	"sort"
	"time"
)

// KneeConfig drives the knee search: step-doubling from StartRate until
// a step fails (its p99 breaks the SLO, or Check fails it), then
// bisection between the last good and first bad rate, then post-knee
// probes for the shed-rate shape.
type KneeConfig struct {
	Step      StepConfig    // template; Rate is set per step
	StartRate float64       // first offered rate
	SLO       time.Duration // p99 ceiling for a passing step

	// Log, when set, receives one line per finished step.
	Log func(format string, args ...any)
}

const (
	maxRate = 1 << 20 // knee search ceiling, rps
	bisects = 3       // bisection refinements after the doubling phase
)

// probeFactors are rates past the knee (as multiples of it) run after
// the search so the report can assert the shed rate rises smoothly
// under overload instead of collapsing.
var probeFactors = [...]float64{1.3, 1.7}

// KneeResult is the full search trace plus the verdict.
type KneeResult struct {
	// KneeRPS is the highest offered rate that met the SLO with a
	// clean error budget; 0 when even StartRate failed.
	KneeRPS float64 `json:"knee_rps"`
	// SLOMs echoes the p99 ceiling the knee is defined against.
	SLOMs float64 `json:"slo_ms"`
	// Steps is every step run, in execution order (doubling, bisection,
	// post-knee probes).
	Steps []StepResult `json:"steps"`
	// ShedMonotonic reports whether, ordering all steps at or past the
	// knee by rate, the shed rate never decreases (small tolerance):
	// the fleet degrades by shedding more, not by collapsing.
	ShedMonotonic bool `json:"shed_monotonic"`
}

// pass reports whether a step met the knee criteria: Check passes it
// and its p99 is at most the SLO.
func (kc *KneeConfig) pass(res *StepResult) bool {
	return res.Check() == nil && res.P99Ms <= float64(kc.SLO)/1e6
}

// FindKnee runs the search. Every step reuses the template's address,
// scenario and duration; seeds differ per step so arrival schedules do
// not repeat.
func FindKnee(kc KneeConfig) (*KneeResult, error) {
	logf := kc.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	out := &KneeResult{SLOMs: float64(kc.SLO) / 1e6}
	step := 0
	run := func(rate float64) (*StepResult, error) {
		cfg := kc.Step
		cfg.Rate = rate
		cfg.Seed = kc.Step.Seed + uint64(step)*0x1000193
		step++
		res, err := RunStep(cfg)
		if res != nil {
			out.Steps = append(out.Steps, *res)
		}
		if err != nil {
			return nil, err
		}
		logf("load: step %5.0f rps: served=%d faults=%d sheds=%d errors=%d p99=%.2fms shed_rate=%.3f",
			rate, res.Served, res.Faults, res.Sheds, res.Errors, res.P99Ms, res.ShedRate)
		return res, nil
	}

	// Phase 1: doubling.
	var lo, hi float64
	rate := kc.StartRate
	for {
		res, err := run(rate)
		if err != nil {
			return out, err
		}
		if !kc.pass(res) {
			hi = rate
			break
		}
		lo = rate
		if rate >= maxRate {
			break // never failed up to the ceiling; knee = ceiling
		}
		rate = min(2*rate, maxRate)
	}

	// Phase 2: bisection (only when a failing rate brackets the knee).
	if hi > 0 {
		blo := lo
		if blo == 0 {
			blo = hi / 16 // even StartRate failed: probe below it
		}
		for i := 0; i < bisects && hi-blo > 1; i++ {
			mid := (blo + hi) / 2
			res, err := run(mid)
			if err != nil {
				return out, err
			}
			if kc.pass(res) {
				blo, lo = mid, mid
			} else {
				hi = mid
			}
		}
	}
	out.KneeRPS = lo

	// Phase 3: post-knee probes for the shed curve.
	if lo > 0 {
		for _, f := range probeFactors {
			if _, err := run(lo * f); err != nil {
				return out, err
			}
		}
	}
	out.ShedMonotonic, _, _ = shedMonotonic(out.Steps, lo)
	return out, nil
}

// shedMonotonic orders the steps at or past the knee by offered rate
// and checks the shed rate never drops by more than a small tolerance
// below the highest shed rate of a lower-rate step: under deepening
// overload the fleet must shed more, not seize up. When it drops, peak
// is that highest-shedding step and drop the first step below it.
func shedMonotonic(steps []StepResult, knee float64) (ok bool, peak, drop StepResult) {
	const tol = 0.02
	var past []StepResult
	for _, s := range steps {
		if s.Rate >= knee {
			past = append(past, s)
		}
	}
	sort.Slice(past, func(i, j int) bool { return past[i].Rate < past[j].Rate })
	peak.ShedRate = -1
	for _, s := range past {
		if s.ShedRate < peak.ShedRate-tol {
			return false, peak, s
		}
		if s.ShedRate > peak.ShedRate {
			peak = s
		}
	}
	return true, StepResult{}, StepResult{}
}

// String renders a one-line verdict for logs.
func (r *KneeResult) String() string {
	return fmt.Sprintf("knee %.0f rps (p99 <= %.0fms, %d steps, shed monotonic: %v)",
		r.KneeRPS, r.SLOMs, len(r.Steps), r.ShedMonotonic)
}
