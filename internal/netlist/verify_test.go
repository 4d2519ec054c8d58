package netlist

// verify_test.go exercises the system-plan verifier two ways: a real
// compiled System must verify clean, and targeted corruptions of a
// plan copy must each be rejected with the right named invariant.

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"roccc/internal/core"
	"roccc/internal/dp"
)

func assertSysInvariant(t *testing.T, vs []dp.Violation, invariant string) {
	t.Helper()
	if invariant == "" {
		if len(vs) != 0 {
			t.Fatalf("want a clean verification, got %d violations, first: %v", len(vs), vs[0])
		}
		return
	}
	for _, v := range vs {
		if v.Invariant == invariant {
			return
		}
	}
	t.Fatalf("no %q violation in %v", invariant, vs)
}

// planCopy deep-copies the cached plan, with its memory schedule if one
// is derived, so corruptions never leak into the kernel's PlanCache
// (other tests share it).
func planCopy(p *sysPlan) *sysPlan {
	c := *p
	c.schedOnce = new(sync.Once)
	if sc := p.sched; sc != nil {
		cs := *sc
		cs.origins = cloneTables(sc.origins)
		cs.tapOff = cloneTables(sc.tapOff)
		cs.stores = cloneTables(sc.stores)
		cs.reads = slices.Clone(sc.reads)
		c.sched = &cs
		c.schedOnce.Do(func() {}) // the copy keeps its schedule
	}
	c.reads = append([]readPlan(nil), p.reads...)
	for i := range c.reads {
		c.reads[i].route = append([]int32(nil), p.reads[i].route...)
	}
	c.writes = append([]writePlan(nil), p.writes...)
	c.ivs = append([]ivPlan(nil), p.ivs...)
	c.scalarIn = append([]int(nil), p.scalarIn...)
	c.from = append([]int64(nil), p.from...)
	c.step = append([]int64(nil), p.step...)
	c.trips = append([]int64(nil), p.trips...)
	return &c
}

func cloneTables(ts [][]int32) [][]int32 {
	c := make([][]int32, len(ts))
	for i, t := range ts {
		c[i] = slices.Clone(t)
	}
	return c
}

func TestVerifySystemClean(t *testing.T) {
	res, sys := buildSystem(t, firSource, "fir", core.DefaultOptions(), Config{BusElems: 1})
	assertSysInvariant(t, VerifySystem(sys), "")
	assertSysInvariant(t, verifySysPlan(sys.plan, res.Kernel, sys.Datapath), "")
}

func TestVerifySysPlanCorruptions(t *testing.T) {
	res, sys := buildSystem(t, firSource, "fir", core.DefaultOptions(), Config{BusElems: 1})
	k, d := res.Kernel, sys.Datapath
	sys.plan.scheduleFor() // derived before copying, so copies carry it

	cases := []struct {
		name      string
		invariant string
		detail    string // the named check, when one invariant holds several
		mut       func(p *sysPlan)
	}{
		{"trip count drift", "system/nest", "", func(p *sysPlan) { p.trips[0]++ }},
		{"stale total", "system/nest", "", func(p *sysPlan) { p.total *= 2 }},
		{"latency mismatch", "system/harvest-ring", "", func(p *sysPlan) { p.latency++ }},
		{"fed ring too shallow", "system/harvest-ring", "", func(p *sysPlan) { p.fedMask = 0 }},
		{"route past input ports", "system/routing", "", func(p *sysPlan) {
			p.reads[0].route[0] = int32(len(d.Inputs))
		}},
		{"scalar route past input ports", "system/routing", "", func(p *sysPlan) {
			p.scalarIn = append(p.scalarIn, len(d.Inputs))
		}},
		{"needClear dropped", "system/need-clear", "", func(p *sysPlan) {
			// Unroute a tap so one input port goes uncovered while the
			// plan still claims no clearing is needed.
			p.reads[0].route[0] = -1
			p.needClear = false
		}},
		{"runs short of the clean run", "system/schedule", "fewer than", func(p *sysPlan) {
			// The schedule ends before the last iteration leaves the
			// pipeline.
			p.sched.cycles = p.total + p.latency - 1
		}},
		{"a feed cycle turned bubble", "system/schedule", "window origins", func(p *sysPlan) {
			// The last iteration loses its window.
			p.sched.origins[0] = p.sched.origins[0][:p.total-1]
		}},
		{"flush longer than the pipeline", "system/schedule", "store addresses", func(p *sysPlan) {
			// One more harvest than iterations: the last iteration's
			// stores recorded twice.
			n := len(p.writes[0].outIdx)
			st := p.sched.stores[0]
			p.sched.stores[0] = append(st, st[len(st)-n:]...)
		}},
		{"gather past the array", "system/schedule", "gathers index", func(p *sysPlan) {
			p.sched.origins[0][p.total-1] = int32(p.reads[0].arrLen)
		}},
		{"store outside the array", "system/schedule", "store 0 addresses", func(p *sysPlan) {
			p.sched.stores[0][0] = int32(p.writes[0].arrLen)
		}},
		{"store table short", "system/schedule", "store addresses", func(p *sysPlan) {
			p.sched.stores[0] = p.sched.stores[0][:len(p.sched.stores[0])-1]
		}},
		{"reads past the array", "system/schedule", "reads of a", func(p *sysPlan) {
			p.sched.reads[0] = p.reads[0].arrLen + 1
		}},
		{"derivation failed", "system/schedule", "derivation failed", func(p *sysPlan) {
			p.sched.err = errors.New("netlist: cycle limit exceeded")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := planCopy(sys.plan)
			tc.mut(p)
			vs := verifySysPlan(p, k, d)
			assertSysInvariant(t, vs, tc.invariant)
			if tc.detail == "" {
				return
			}
			for _, v := range vs {
				if v.Invariant == tc.invariant && strings.Contains(v.Detail, tc.detail) {
					return
				}
			}
			t.Fatalf("no %q violation mentioning %q in %v", tc.invariant, tc.detail, vs)
		})
	}
	// The corruptions stayed on the copies.
	assertSysInvariant(t, verifySysPlan(sys.plan, k, d), "")
}
