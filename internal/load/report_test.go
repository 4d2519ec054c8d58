package load

import (
	"strings"
	"testing"
)

func knee(rps float64) *KneeResult {
	return &KneeResult{
		KneeRPS:       rps,
		SLOMs:         100,
		ShedMonotonic: true,
		Steps:         []StepResult{{Rate: rps, P99Ms: 12}},
	}
}

// TestGateUncalibratedUnchanged pins the gate over the one (uncalibrated)
// knee search: no knee result is itself a violation, a clean report
// passes, and a missing knee, a collapsing shed rate and errors below
// the knee are violations.
func TestGateUncalibratedUnchanged(t *testing.T) {
	r := &Report{CPUs: 8}
	if v := r.Gate(4, 100); len(v) != 1 || !strings.Contains(v[0], "no knee result") {
		t.Fatalf("violations = %v", r.Gate(4, 100))
	}
	r.Knee = knee(200)
	if v := r.Gate(4, 100); len(v) != 0 {
		t.Fatalf("clean report flagged: %q", v)
	}
	r.Knee.ShedMonotonic = false
	r.Knee.Steps[0].Errors = 3
	if v := r.Gate(4, 0); len(v) != 2 || !strings.Contains(v[0], "not monotonic") || !strings.Contains(v[1], "non-shed errors") {
		t.Fatalf("violations = %q, want shed-shape and error violations", v)
	}

	r.Knee = knee(0)
	r.Knee.Steps = nil
	if v := r.Gate(4, 0); len(v) != 1 || !strings.Contains(v[0], "no knee found") {
		t.Fatalf("violations = %q, want no-knee violation", v)
	}
}

// TestGateFloorAppliesToBothKnees keeps its name from when rocccload
// also searched a calibrated knee. With one knee left it pins that the
// CPU-conditioned rate floor gates that knee with a labelled violation,
// and is skipped under the CPU threshold.
func TestGateFloorAppliesToBothKnees(t *testing.T) {
	r := &Report{CPUs: 8, Knee: knee(80)}
	if v := r.Gate(4, 100); len(v) != 1 || !strings.Contains(v[0], "under the 100 rps floor") {
		t.Fatalf("violations = %q, want a floor violation", v)
	}
	r.CPUs = 2
	if v := r.Gate(4, 100); len(v) != 0 {
		t.Fatalf("small machine gated the floor: %q", v)
	}
}
