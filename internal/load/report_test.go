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
	if v := r.Gate(); len(v) != 1 || !strings.Contains(v[0], "no knee result") {
		t.Fatalf("violations = %v", r.Gate())
	}
	r.Knee = knee(200)
	if v := r.Gate(); len(v) != 0 {
		t.Fatalf("clean report flagged: %q", v)
	}
	r.Knee.ShedMonotonic = false
	r.Knee.Steps[0].Errors = 3
	if v := r.Gate(); len(v) != 2 || !strings.Contains(v[0], "not monotonic") || !strings.Contains(v[1], "non-shed errors") {
		t.Fatalf("violations = %q, want shed-shape and error violations", v)
	}

	// Under the floor's CPU count, so the missing knee is the one
	// violation.
	r.CPUs = 2
	r.Knee = knee(0)
	r.Knee.Steps = nil
	if v := r.Gate(); len(v) != 1 || !strings.Contains(v[0], "no knee found") {
		t.Fatalf("violations = %q, want no-knee violation", v)
	}
}

// TestGateFloorAppliesToBothKnees keeps its name from when rocccload
// also searched a calibrated knee. With one knee left it pins that the
// CPU-conditioned rate floor gates that knee with a labelled violation,
// and is skipped under the CPU threshold.
func TestGateFloorAppliesToBothKnees(t *testing.T) {
	r := &Report{CPUs: 8, Knee: knee(80)}
	if v := r.Gate(); len(v) != 1 || !strings.Contains(v[0], "under the 100 rps floor") {
		t.Fatalf("violations = %q, want a floor violation", v)
	}
	r.CPUs = 2
	if v := r.Gate(); len(v) != 0 {
		t.Fatalf("small machine gated the floor: %q", v)
	}
}

// TestGateNamesShedDrop: a shed-rate violation names the two steps where
// the shed rate drops, with their rates and shed rates. The steps are
// those of a failing gate run whose knee was 12800 rps.
func TestGateNamesShedDrop(t *testing.T) {
	r := &Report{CPUs: 2, Knee: knee(12800)}
	r.Knee.Steps = append(r.Knee.Steps,
		StepResult{Rate: 25600, P99Ms: 300, ShedRate: 0.2},
		StepResult{Rate: 16000, P99Ms: 80, ShedRate: 0.058},
		StepResult{Rate: 16640, P99Ms: 90, ShedRate: 0.023},
	)
	r.Knee.ShedMonotonic, _, _ = shedMonotonic(r.Knee.Steps, r.Knee.KneeRPS)
	v := r.Gate()
	if len(v) != 1 || !strings.Contains(v[0], "not monotonic") ||
		!strings.Contains(v[0], "16000 rps shed 0.058, then 16640 rps shed 0.023") {
		t.Fatalf("violations = %q, want the 16000 -> 16640 rps drop named", v)
	}
}

// TestStepCheck pins the verdict fixed-rate rocccload exits 1 on: a
// non-shed error or nothing served fails the step; sheds alone do not,
// and a planted fault that came back counts as served.
func TestStepCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    StepResult
		want string // substring of the error; "" = passes
	}{
		{"clean", StepResult{Rate: 50, Offered: 47, Served: 44, Faults: 3}, ""},
		{"sheds", StepResult{Rate: 50, Offered: 47, Served: 20, Sheds: 27}, ""},
		{"faults only", StepResult{Rate: 50, Offered: 2, Faults: 2}, ""},
		{"one error", StepResult{Rate: 50, Offered: 47, Served: 46, Errors: 1}, "1 non-shed errors of 47 arrivals at 50 rps"},
		{"server killed", StepResult{Rate: 100, Offered: 199, Served: 98, Errors: 101}, "101 non-shed errors"},
		{"all shed", StepResult{Rate: 50, Offered: 47, Sheds: 47}, "nothing served of 47 arrivals"},
		{"no arrivals", StepResult{Rate: 1}, "nothing served of 0 arrivals"},
	} {
		err := tc.s.Check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v, want a pass", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}
