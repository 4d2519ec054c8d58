package netlist

// verify.go is the system slice of the static invariant verifier
// (internal/dpverify, cmd/rocccvet): it checks a compiled sysPlan's
// routing tables, loop-nest odometer, harvest ring geometry and
// needClear derivation against the kernel and data path they were
// compiled from, the plan's memory schedule against the arrays it
// indexes, and a constructed System's buffers against the smart-buffer
// capacity contract — all without running a data-path cycle. Under the
// `dpverify` build tag the plan checks also run at plan-cache time, and
// the schedule checks when the schedule is derived (verify_hook_on.go),
// so every System CI builds carries them.

import (
	"fmt"

	"roccc/internal/dp"
	"roccc/internal/hir"
	"roccc/internal/smartbuf"
)

// VerifySystem statically checks a constructed System: the data path's
// compiled plan (dp.Verify), the system plan's congruence with kernel
// and data path and its memory schedule, the smart-buffer capacity
// contract for every read port, and the sizing of the cycle-loop
// scratch buffers.
func VerifySystem(s *System) []dp.Violation {
	vs := dp.Verify(s.Datapath)
	vs = append(vs, verifySysPlan(s.plan, s.Kernel, s.Datapath)...)
	for i, b := range s.buffers {
		for _, msg := range smartbuf.VerifyBuffer(b) {
			vs = append(vs, dp.Violation{Invariant: "system/smartbuf",
				Detail: fmt.Sprintf("read port %d (%s): %s", i, s.plan.reads[i].arrName, msg)})
		}
	}
	p := s.plan
	if len(s.buffers) != len(p.reads) || len(s.readGens) != len(p.reads) || len(s.readBRAMs) != len(p.reads) {
		vs = append(vs, violation("system/wiring", "system carries %d buffers / %d generators / %d BRAMs for %d read plans",
			len(s.buffers), len(s.readGens), len(s.readBRAMs), len(p.reads)))
	}
	if len(s.writeGens) != len(p.writes) || len(s.writeBRAMs) != len(p.writes) {
		vs = append(vs, violation("system/wiring", "system carries %d write generators / %d BRAMs for %d write plans",
			len(s.writeGens), len(s.writeBRAMs), len(p.writes)))
	}
	// A feed chunk stages up to min(total, sysChunkMax) input rows.
	if wantStage := min(p.total, sysChunkMax) * len(s.Datapath.Inputs); len(s.stage) < wantStage {
		vs = append(vs, violation("system/wiring", "staging buffer holds %d values, a full chunk needs %d", len(s.stage), wantStage))
	}
	if len(s.fedRing) != s.fedMask+1 || s.fedMask != p.fedMask {
		vs = append(vs, violation("system/wiring", "fed ring of %d bits does not match mask %#x (plan mask %#x)", len(s.fedRing), s.fedMask, p.fedMask))
	}
	return vs
}

func violation(inv, format string, args ...any) dp.Violation {
	return dp.Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)}
}

// verifySysPlan checks a compiled system plan against its kernel and
// data path (verifyPlanTables) and, when those tables are sound, its
// memory schedule (verifySchedule), deriving the schedule first if the
// plan has none yet.
func verifySysPlan(p *sysPlan, k *hir.Kernel, d *dp.Datapath) []dp.Violation {
	vs := verifyPlanTables(p, k, d)
	if len(vs) == 0 {
		vs = verifySchedule(p, p.scheduleFor())
	}
	return vs
}

// verifyPlanTables checks a compiled system plan's tables: every
// routing index in bounds, the loop nest congruent with the kernel's,
// the harvest ring deep enough for the pipeline, and needClear
// re-derived from the actual input coverage.
func verifyPlanTables(p *sysPlan, k *hir.Kernel, d *dp.Datapath) []dp.Violation {
	var vs []dp.Violation
	add := func(inv, format string, args ...any) {
		vs = append(vs, violation(inv, format, args...))
	}

	// system/nest: the dense odometer must reproduce the kernel's loop
	// nest exactly — Run's cycle budget and the write generators both
	// derive from it.
	depth := k.Nest.Depth()
	if len(p.from) != depth || len(p.step) != depth || len(p.trips) != depth {
		add("system/nest", "odometer tables cover %d/%d/%d levels for a depth-%d nest", len(p.from), len(p.step), len(p.trips), depth)
	} else {
		total := 1
		for l := 0; l < depth; l++ {
			if p.trips[l] != k.Nest.Trips(l) {
				add("system/nest", "level %d trips %d, kernel nest has %d", l, p.trips[l], k.Nest.Trips(l))
			}
			if p.trips[l] <= 0 {
				add("system/nest", "level %d has non-positive trip count %d", l, p.trips[l])
			}
			if p.from[l] != k.Nest.From[l] {
				add("system/nest", "level %d lower bound %d, kernel nest has %d", l, p.from[l], k.Nest.From[l])
			}
			total *= int(p.trips[l])
		}
		if p.total != total {
			add("system/nest", "plan total %d is not the product of trip counts %d", p.total, total)
		}
	}
	if p.total != int(k.Nest.TotalIterations()) {
		add("system/nest", "plan total %d, kernel nest iterates %d", p.total, k.Nest.TotalIterations())
	}

	// system/harvest-ring: latency must match the data path, and the fed
	// ring must hold latency+1 cycles of history as a power of two —
	// harvest reads the bit from `latency` cycles ago before the current
	// cycle's write wraps onto it.
	if p.latency != d.Latency() {
		add("system/harvest-ring", "plan latency %d, data path latency %d", p.latency, d.Latency())
	}
	if n := p.fedMask + 1; n&(n-1) != 0 || n < p.latency+1 {
		add("system/harvest-ring", "fed ring of %d bits cannot hold latency %d + 1 cycles as a power of two", n, p.latency)
	}

	// system/routing: every dense table must address real data-path
	// ports; -1 marks a deliberately unrouted slot.
	nIn, nOut := len(d.Inputs), len(d.Outputs)
	if len(p.reads) != len(k.Reads) {
		add("system/routing", "%d read plans for %d kernel read windows", len(p.reads), len(k.Reads))
	}
	for i := range p.reads {
		rp := &p.reads[i]
		if err := rp.cfg.Validate(); err != nil {
			add("system/routing", "read port %d (%s): invalid buffer config: %v", i, rp.arrName, err)
		}
		if len(rp.route) != len(rp.cfg.Taps) {
			add("system/routing", "read port %d (%s): %d route entries for %d window taps", i, rp.arrName, len(rp.route), len(rp.cfg.Taps))
		}
		for t, ix := range rp.route {
			if ix < -1 || int(ix) >= nIn {
				add("system/routing", "read port %d (%s): tap %d routes to input %d of %d", i, rp.arrName, t, ix, nIn)
			}
		}
	}
	if len(p.writes) != len(k.Writes) {
		add("system/routing", "%d write plans for %d kernel write accesses", len(p.writes), len(k.Writes))
	}
	for i := range p.writes {
		wp := &p.writes[i]
		for e, ix := range wp.outIdx {
			if ix < 0 || ix >= nOut {
				add("system/routing", "write port %d (%s): element %d routes to output %d of %d", i, wp.arrName, e, ix, nOut)
			}
		}
	}
	for i, iv := range p.ivs {
		if iv.in < 0 || iv.in >= nIn {
			add("system/routing", "IV %d routes to input %d of %d", i, iv.in, nIn)
		}
		if iv.level < 0 || iv.level >= depth {
			add("system/routing", "IV %d reads nest level %d of %d", i, iv.level, depth)
		}
	}
	if len(p.scalarIn) != len(k.ScalarParams) {
		add("system/routing", "%d scalar routes for %d scalar parameters", len(p.scalarIn), len(k.ScalarParams))
	}
	for i, ix := range p.scalarIn {
		if ix < -1 || ix >= nIn {
			add("system/routing", "scalar %d routes to input %d of %d", i, ix, nIn)
		}
	}

	// system/need-clear: re-derive input coverage. needClear may only be
	// false when every data-path input is overwritten each feed cycle;
	// a stale value surviving into an uncovered port would silently
	// corrupt the stream.
	covered := make([]bool, nIn)
	mark := func(ix int) {
		if ix >= 0 && ix < nIn {
			covered[ix] = true
		}
	}
	for i := range p.reads {
		for _, ix := range p.reads[i].route {
			mark(int(ix))
		}
	}
	for _, iv := range p.ivs {
		mark(iv.in)
	}
	for _, ix := range p.scalarIn {
		mark(ix)
	}
	wantClear := false
	for _, c := range covered {
		if !c {
			wantClear = true
		}
	}
	if p.needClear != wantClear {
		add("system/need-clear", "plan records needClear=%v, input coverage derives %v", p.needClear, wantClear)
	}
	return vs
}

// verifySchedule checks a derived memory schedule against its plan. A
// schedule whose derivation failed means every Run of the system
// replays the serial loop, which fails; no Run walks its tables, so the
// failure is all it reports. A clean schedule's tables must be sound
// (verifyScheduleTables).
func verifySchedule(p *sysPlan, sc *memSchedule) []dp.Violation {
	if sc.err != nil {
		return []dp.Violation{violation("system/schedule", "derivation failed at cycle %d: %v", sc.cycles, sc.err)}
	}
	return verifyScheduleTables(p, sc)
}

// verifyScheduleTables checks the tables the schedule walk indexes:
// every iteration has a window origin per read port and its store
// addresses per write port; every gather index and every store address
// lies inside its array; no read count exceeds its array; and the cycle
// count holds every iteration and the pipeline flush. The walk has no
// per-pop readiness check and no store bounds check, so a bad table
// fails here by name instead of as a panic mid-run.
func verifyScheduleTables(p *sysPlan, sc *memSchedule) []dp.Violation {
	var vs []dp.Violation
	add := func(format string, args ...any) {
		vs = append(vs, violation("system/schedule", format, args...))
	}
	// The controller feeds at most one iteration per cycle, and the last
	// one leaves the pipeline latency cycles after its feed.
	if sc.cycles < p.total+p.latency {
		add("the schedule takes %d cycles, fewer than %d iterations + latency %d", sc.cycles, p.total, p.latency)
	}
	if len(sc.origins) != len(p.reads) || len(sc.tapOff) != len(p.reads) || len(sc.reads) != len(p.reads) {
		add("%d origin tables, %d tap tables and %d read counts for %d read ports",
			len(sc.origins), len(sc.tapOff), len(sc.reads), len(p.reads))
	} else {
		for i := range p.reads {
			rp := &p.reads[i]
			taps := sc.tapOff[i]
			if len(sc.origins[i]) != p.total {
				add("read port %d (%s): %d window origins for %d iterations", i, rp.arrName, len(sc.origins[i]), p.total)
			}
			if len(taps) != len(rp.route) {
				add("read port %d (%s): %d tap offsets for %d routed taps", i, rp.arrName, len(taps), len(rp.route))
			}
			for j, o := range sc.origins[i] {
				if bad := gatherOutside(int(o), taps, rp.arrLen); bad >= 0 {
					add("read port %d (%s): iteration %d gathers index %d outside [0,%d)", i, rp.arrName, j, bad, rp.arrLen)
					break
				}
			}
			if sc.reads[i] > rp.arrLen {
				add("read port %d (%s): %d reads of a %d-element array", i, rp.arrName, sc.reads[i], rp.arrLen)
			}
		}
	}
	if len(sc.stores) != len(p.writes) {
		add("%d store tables for %d write ports", len(sc.stores), len(p.writes))
		return vs
	}
	for w := range p.writes {
		wp := &p.writes[w]
		if want := p.total * len(wp.outIdx); len(sc.stores[w]) != want {
			add("write port %d (%s): %d store addresses, want %d per iteration for %d iterations",
				w, wp.arrName, len(sc.stores[w]), len(wp.outIdx), p.total)
		}
		for e, a := range sc.stores[w] {
			if a < 0 || int(a) >= wp.arrLen {
				add("write port %d (%s): store %d addresses %d outside [0,%d)", w, wp.arrName, e, a, wp.arrLen)
				break
			}
		}
	}
	return vs
}

// gatherOutside returns the first gather index origin+off outside
// [0, n), or -1 when every tap lies inside.
func gatherOutside(origin int, offs []int32, n int) int {
	for _, off := range offs {
		if ix := origin + int(off); ix < 0 || ix >= n {
			return ix
		}
	}
	return -1
}
