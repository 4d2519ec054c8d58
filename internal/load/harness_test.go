package load

import (
	"testing"
	"time"
)

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
	if err := Warmup(fleet.Addr, sc, 8); err != nil {
		t.Fatal(err)
	}

	res, err := RunStep(StepConfig{
		Addr:       fleet.Addr,
		MetricsURL: fleet.MetricsURL,
		Rate:       200,
		Duration:   500 * time.Millisecond,
		Dist:       DistUniform,
		Conns:      1,
		Slots:      8,
		Workers:    8,
		Timeout:    10 * time.Second,
		Seed:       3,
		Scenario:   sc,
	})
	if err != nil {
		t.Fatal(err)
	}

	// With a uniform 200 rps schedule over 500ms the offered count is
	// pinned by the pacing clock, not wall-clock luck.
	if res.Offered < 99 || res.Offered > 101 {
		t.Errorf("offered = %d, want ~100", res.Offered)
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
// uniform arrivals per second every arrival sleeps, so a zero
// LateMaxMs means the oversleep never reached the report.
func TestRunStepLatenessCountsOversleep(t *testing.T) {
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
		Rate:     20,
		Duration: 300 * time.Millisecond,
		Dist:     DistUniform,
		Conns:    1,
		Slots:    2,
		Workers:  2,
		Seed:     1,
		Scenario: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 5 {
		t.Fatalf("offered = %d, want 5 arrivals 50ms apart", res.Offered)
	}
	if res.LateMaxMs <= 0 {
		t.Fatalf("late_max_ms = %v after %d slept arrivals, want the sleep overrun reported", res.LateMaxMs, res.Offered)
	}
	if err := fleet.Balanced(10 * time.Second); err != nil {
		t.Error(err)
	}
}
