package dp

import "roccc/internal/vm"

// LaneScratch reports how many lane values a Sim's batch scratch holds.
func LaneScratch(s *Sim) int { return cap(s.laneVals) }

// VerifyLPRShifted verifies a fresh copy of d's execution plan, its
// feedback cone recognized as the cached plan's is, with the first LPR
// moved to a neighbouring stage (opStage included). It reports whether
// the copy's cone has the closed form.
func VerifyLPRShifted(d *Datapath) (vs []Violation, closedForm bool) {
	p := compileSimPlan(d)
	closedForm = p.coneFor() != nil
	for i := range p.plan {
		if c := &p.plan[i]; c.opc == vm.LPR {
			if c.stage > 0 {
				c.stage--
			} else {
				c.stage++
			}
			p.opStage[int(c.slot)>>p.opShift] = c.stage
			break
		}
	}
	return verifyPlan(p), closedForm
}
