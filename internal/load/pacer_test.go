package load

import (
	"math"
	"testing"
)

// gaps draws n interarrival gaps (successive Next differences) in ns.
func gaps(p *Pacer, n int) []float64 {
	out := make([]float64, n)
	prev := int64(0)
	for i := range out {
		now := p.Next()
		out[i] = float64(now - prev)
		prev = now
	}
	return out
}

// TestPacerPoissonMoments checks the exponential interarrival draw
// against its first two moments: mean 1/rate and variance (1/rate)^2.
// With 200k draws the sampling error on both is well under the 2%/5%
// tolerances.
func TestPacerPoissonMoments(t *testing.T) {
	const rate = 1000.0 // mean gap 1e6 ns
	const mean = 1e9 / rate
	const n = 200_000
	g := gaps(NewPacer(rate, 99), n)

	var sum, sum2 float64
	minGap := math.Inf(1)
	for _, v := range g {
		sum += v
		sum2 += v * v
		if v < minGap {
			minGap = v
		}
	}
	m := sum / n
	v := sum2/n - m*m
	if rel := math.Abs(m/mean - 1); rel > 0.02 {
		t.Errorf("mean gap %.0fns, want %.0fns (off %.1f%%)", m, mean, rel*100)
	}
	if rel := math.Abs(v/(mean*mean) - 1); rel > 0.05 {
		t.Errorf("gap variance %.3g, want %.3g (off %.1f%%)", v, mean*mean, rel*100)
	}
	if minGap < 0 {
		t.Errorf("negative interarrival gap %.0f", minGap)
	}
}

// TestPacerDeterministic proves the schedule is a pure function of
// (rate, seed): reruns replay identical arrival times, and a
// different seed diverges.
func TestPacerDeterministic(t *testing.T) {
	a := NewPacer(500, 42)
	b := NewPacer(500, 42)
	c := NewPacer(500, 43)
	same, diff := true, false
	for i := 0; i < 1000; i++ {
		av, bv, cv := a.Next(), b.Next(), c.Next()
		if av != bv {
			same = false
		}
		if av != cv {
			diff = true
		}
	}
	if !same {
		t.Error("same seed replayed a different schedule")
	}
	if !diff {
		t.Error("different seeds produced identical schedules")
	}
}
