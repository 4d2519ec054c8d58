package load

import "testing"

// TestShedMonotonic pins the check that decides most load gate runs:
// only steps at or past the knee count, they are ordered by rate rather
// than run order, and a step may shed up to 0.02 less than the highest
// shed rate below its rate. A larger drop fails and names that
// highest-shedding step and the first step under it.
func TestShedMonotonic(t *testing.T) {
	type step struct{ rate, shed float64 }
	for _, tc := range []struct {
		name       string
		knee       float64
		steps      []step
		ok         bool
		peak, drop float64 // rates of the named steps when !ok
	}{
		{name: "no steps", knee: 400, ok: true},
		{name: "rising", knee: 400, steps: []step{{400, 0}, {800, 0.01}, {520, 0.005}, {680, 0.008}}, ok: true},
		{name: "below the knee ignored", knee: 400, steps: []step{{200, 0.3}, {400, 0.01}, {520, 0.02}}, ok: true},
		{name: "ordered by rate", knee: 400, steps: []step{{400, 0.01}, {800, 0.10}, {600, 0.05}}, ok: true},
		{name: "drop within tolerance", knee: 400, steps: []step{{400, 0}, {520, 0.058}, {680, 0.040}}, ok: true},
		{name: "drop past tolerance", knee: 12800, steps: []step{{12800, 0.01}, {25600, 0.2}, {16000, 0.058}, {16640, 0.023}},
			peak: 16000, drop: 16640},
		{name: "measured from the highest earlier shed rate", knee: 400, steps: []step{{400, 0.05}, {520, 0.04}, {680, 0.025}},
			peak: 400, drop: 680},
		{name: "no knee: every step counts", knee: 0, steps: []step{{50, 0.1}, {100, 0.05}},
			peak: 50, drop: 100},
	} {
		var steps []StepResult
		for _, s := range tc.steps {
			steps = append(steps, StepResult{Rate: s.rate, ShedRate: s.shed})
		}
		ok, peak, drop := shedMonotonic(steps, tc.knee)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok && (peak.Rate != tc.peak || drop.Rate != tc.drop) {
			t.Errorf("%s: drop named %.0f -> %.0f rps, want %.0f -> %.0f", tc.name, peak.Rate, drop.Rate, tc.peak, tc.drop)
		}
	}
}
