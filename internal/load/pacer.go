package load

import "math"

// Pacer generates one rate step's Poisson arrival schedule: successive
// Next calls return each arrival's offset from the step start, in
// nanoseconds, strictly non-decreasing. The interarrival gaps are
// exponential (a memoryless arrival process, so bursts happen), and the
// schedule is deterministic for a given (rate, seed).
type Pacer struct {
	meanNs float64
	rng    uint64
	sched  float64
}

// NewPacer builds a schedule for rate arrivals per second.
func NewPacer(rate float64, seed uint64) *Pacer {
	return &Pacer{meanNs: 1e9 / rate, rng: seed}
}

// Next returns the next arrival's offset from the step start. This is
// the pacing clock's per-tick hot path.
//
//roccc:hotpath
func (p *Pacer) Next() int64 {
	// 1-u is in (0,1], so the log is finite.
	u := float64(splitmix64(&p.rng)>>11) / (1 << 53)
	p.sched += -math.Log(1-u) * p.meanNs
	return int64(p.sched)
}

// splitmix64 advances the state and returns the next 64 random bits
// (Steele, Lea, Flood — deterministic, seedable, alloc-free).
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
