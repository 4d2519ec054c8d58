package load

import (
	"encoding/json"
	"fmt"
	"os"
)

// Report is the machine-readable harness output: the run's shape, the
// scenario profile (the embedded Scenario's keys: mix, fault and
// disconnect fractions, streams per request), and the full knee-search
// trace. cmd/cigate's load gate group consumes it, and the run's
// headline numbers fold into the BENCH_<sha>.json trajectory.
type Report struct {
	Addr    string  `json:"addr"`
	CPUs    int     `json:"cpus"`
	StepSec float64 `json:"step_sec"`

	*Scenario

	Knee *KneeResult `json:"knee"`
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// The CPU-conditioned knee floor: on machines with at least gateMinCPU
// cores the knee must reach gateFloorRPS.
const (
	gateMinCPU   = 4
	gateFloorRPS = 100
)

// Gate evaluates the report against the load gate contract and returns
// the violations (empty = pass):
//
//   - a knee was found and the SLO held at it;
//   - below the knee every step had zero non-shed errors (sheds are
//     backpressure, not failures — they have their own check);
//   - at and past the knee the shed rate rises monotonically instead of
//     collapsing; a violation names the two steps where it drops;
//   - on machines with at least gateMinCPU cores, the knee clears
//     gateFloorRPS (the p99-ceiling-at-rate gate: knee >= floor means
//     p99 met the SLO at the floor rate). Smaller machines skip the
//     floor but still gate the shape checks.
func (r *Report) Gate() []string {
	kr := r.Knee
	if kr == nil {
		return []string{"load: report carries no knee result"}
	}
	var v []string
	if kr.KneeRPS <= 0 {
		v = append(v, fmt.Sprintf("load: no knee found (even the starting rate broke the %.0fms p99 SLO)", kr.SLOMs))
	}
	if !kr.ShedMonotonic {
		msg := "load: shed rate is not monotonic past the knee"
		if ok, peak, drop := shedMonotonic(kr.Steps, kr.KneeRPS); !ok {
			msg += fmt.Sprintf(": %.0f rps shed %.3f, then %.0f rps shed %.3f",
				peak.Rate, peak.ShedRate, drop.Rate, drop.ShedRate)
		}
		v = append(v, msg+" (the fleet collapsed instead of shedding)")
	}
	for _, s := range kr.Steps {
		if s.Rate <= kr.KneeRPS && s.Errors > 0 {
			v = append(v, fmt.Sprintf("load: %d non-shed errors at %.0f rps, below the %.0f rps knee", s.Errors, s.Rate, kr.KneeRPS))
		}
	}
	if r.CPUs >= gateMinCPU && kr.KneeRPS < gateFloorRPS {
		v = append(v, fmt.Sprintf("load: knee %.0f rps under the %d rps floor (floor applies at this CPU count)",
			kr.KneeRPS, gateFloorRPS))
	}
	return v
}

// Check fails a step whatever its latency: when it had a non-shed
// error, or when it served nothing (no success and no planted fault
// came back, so its quantiles are vacuous). A fixed-rate rocccload run
// exits 1 on it, and the knee search counts such a step as failed.
func (s *StepResult) Check() error {
	switch {
	case s.Errors > 0:
		return fmt.Errorf("load: %d non-shed errors of %d arrivals at %.0f rps", s.Errors, s.Offered, s.Rate)
	case s.Served+s.Faults == 0:
		return fmt.Errorf("load: nothing served of %d arrivals at %.0f rps", s.Offered, s.Rate)
	}
	return nil
}
