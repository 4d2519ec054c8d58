package dp

// LaneScratch reports how many lane values a Sim's batch scratch holds.
func LaneScratch(s *Sim) int { return cap(s.laneVals) }
