//go:build dpverify

package netlist

import (
	"strings"

	"roccc/internal/dp"
	"roccc/internal/hir"
)

// sysVerifyHook runs the static system-plan verifier at plan-cache time
// and panics on any violation: under `-tags dpverify` a malformed plan
// can never reach a Run cycle.
func sysVerifyHook(p *sysPlan, k *hir.Kernel, d *dp.Datapath) {
	panicOnViolations(k.Name, verifyPlanTables(p, k, d))
}

// schedVerifyHook checks a clean memory schedule's tables as soon as it
// is derived, before any Run walks them. A failed derivation is no
// table fault: no Run walks its tables, and every Run replays the
// serial loop, which returns the error.
func schedVerifyHook(p *sysPlan) {
	if p.sched.err == nil {
		panicOnViolations("memory schedule", verifyScheduleTables(p, p.sched))
	}
}

func panicOnViolations(what string, vs []dp.Violation) {
	if len(vs) == 0 {
		return
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.String()
	}
	panic("dpverify: " + what + ": " + strings.Join(msgs, "; "))
}
