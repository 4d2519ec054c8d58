package load

import (
	"testing"
	"time"
)

// arrivals replays a step's arrival schedule: the offsets that
// NewPacer(rate, seed|1) draws inside the window d, as RunStep fires
// them.
func arrivals(rate float64, seed uint64, d time.Duration) []int64 {
	p := NewPacer(rate, seed|1)
	var offs []int64
	for off := p.Next(); off < d.Nanoseconds(); off = p.Next() {
		offs = append(offs, off)
	}
	return offs
}

// TestHarnessSmoke stands up the in-process 2-shard fleet and runs one
// short fixed-rate step through the full harness path: scenario mix
// with faults and rude disconnects, pipelined connections, the pacing
// clock, the /metrics probe, and the pool-balance teardown check.
func TestHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness smoke is not short")
	}
	sc, err := BuildScenario("", 0.1, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := StartLocalFleet(2, 2, sc.Specs)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if err := Warmup(fleet.Addr, sc); err != nil {
		t.Fatal(err)
	}

	const rate, window, seed = 200, 500 * time.Millisecond, 3
	res, err := RunStep(StepConfig{
		Addr:       fleet.Addr,
		MetricsURL: fleet.MetricsURL,
		Rate:       rate,
		Duration:   window,
		Seed:       seed,
		Scenario:   sc,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The offered count is pinned by the pacing clock's schedule, not
	// wall-clock luck.
	if want := len(arrivals(rate, seed, window)); res.Offered != int64(want) {
		t.Errorf("offered = %d, want the schedule's %d", res.Offered, want)
	}
	// Every arrival is classified exactly once.
	if got := res.Served + res.Faults + res.Sheds + res.Errors + res.Disconnects; got != res.Offered {
		t.Errorf("classified %d of %d arrivals", got, res.Offered)
	}
	if res.Served == 0 {
		t.Error("nothing served")
	}
	if res.Errors != 0 {
		t.Errorf("%d non-shed errors at a trivial rate", res.Errors)
	}
	// 10% faults and 5% disconnects over ~100 draws: both present for
	// this fixed seed.
	if res.Faults == 0 {
		t.Error("no planted faults surfaced")
	}
	if res.Disconnects == 0 {
		t.Error("no rude disconnects fired")
	}
	if res.P99Ms <= 0 || res.P50Ms > res.P99Ms || res.P99Ms > res.P999Ms {
		t.Errorf("quantiles out of order: p50=%.3f p99=%.3f p999=%.3f", res.P50Ms, res.P99Ms, res.P999Ms)
	}
	if res.Metrics == nil {
		t.Error("no /metrics probe in the step result")
	} else if len(res.Metrics.PoolIdle) == 0 {
		t.Error("metrics probe saw no kernel pools")
	}
	if err := fleet.Balanced(10 * time.Second); err != nil {
		t.Error(err)
	}
}

// TestRunStepLatenessCountsOversleep: the pacing clock sleeps to each
// scheduled arrival, and the timer wakes it after the deadline, never
// at it. That overrun is dispatch debt the step must report: at 20
// arrivals per second this seed's schedule leaves at least a
// millisecond before each arrival, so every arrival sleeps, and a zero
// LateMaxMs means the oversleep never reached the report.
func TestRunStepLatenessCountsOversleep(t *testing.T) {
	const rate, window, seed = 20, 300 * time.Millisecond, 1
	offs := arrivals(rate, seed, window)
	prev := int64(0)
	for _, off := range offs {
		if off-prev < int64(time.Millisecond) {
			t.Fatalf("schedule %v has an arrival %dns after the last; every arrival must sleep", offs, off-prev)
		}
		prev = off
	}
	sc, err := BuildScenario("", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := StartLocalFleet(2, 2, sc.Specs)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	res, err := RunStep(StepConfig{
		Addr:     fleet.Addr,
		Rate:     rate,
		Duration: window,
		Seed:     seed,
		Scenario: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != int64(len(offs)) || len(offs) == 0 {
		t.Fatalf("offered = %d, want the schedule's %d arrivals %v", res.Offered, len(offs), offs)
	}
	if res.LateMaxMs <= 0 {
		t.Fatalf("late_max_ms = %v after %d slept arrivals, want the sleep overrun reported", res.LateMaxMs, res.Offered)
	}
	if err := fleet.Balanced(10 * time.Second); err != nil {
		t.Error(err)
	}
}
