package dp

import (
	"fmt"

	"roccc/internal/vm"
)

// pipeline.go implements §4.2.3: "ROCCC automatically places latches in
// a data path to pipeline it. The latch location in a node is decided
// based on the delay estimation of instructions." After pipelining,
// "each pipeline stage is an instance of single iteration in the
// for-loop body" — the data path accepts one iteration per clock.

// DelayFn estimates the combinational propagation delay of an op in
// nanoseconds. Package synth provides the Virtex-II calibrated model
// (synth.OpDelay), the one model latch placement uses.
type DelayFn func(op *Op) float64

// PipelineConfig controls latch placement.
type PipelineConfig struct {
	// Period is the target clock period in ns (e.g. 5.0 for 200 MHz).
	Period float64
	// Delay estimates per-op combinational delay; it must be set.
	Delay DelayFn
}

// Pipeline assigns every op a pipeline stage and marks latched outputs.
// Operations on a feedback path (LPR → ... → SNX) are kept inside a
// single stage — the SNX latch is the only register on the cycle — and
// the realized stage delay may exceed the target period, which lowers
// the reported clock rate instead of breaking the accumulator semantics.
func Pipeline(d *Datapath, cfgp PipelineConfig) error {
	delay := cfgp.Delay
	if delay == nil {
		return fmt.Errorf("dp: pipelining %s: no delay model", d.Name)
	}
	if cfgp.Period <= 0 {
		cfgp.Period = 5.0
	}
	d.Period = cfgp.Period

	// Consumers map for feedback-path discovery.
	consumers := map[*Op][]*Op{}
	for _, op := range d.Ops {
		for _, r := range op.Instr.Uses() {
			if def := d.DefOf[r]; def != nil {
				consumers[def] = append(consumers[def], op)
			}
		}
	}
	onPath := map[*Op]bool{}
	for _, fb := range d.Feedbacks {
		fwd := map[*Op]bool{}
		var walk func(op *Op)
		walk = func(op *Op) {
			if fwd[op] {
				return
			}
			fwd[op] = true
			for _, c := range consumers[op] {
				walk(c)
			}
		}
		for _, lpr := range fb.LPRs {
			walk(lpr)
		}
		// Backward from SNX over fwd-marked ops.
		bwd := map[*Op]bool{}
		var back func(op *Op)
		back = func(op *Op) {
			if bwd[op] || !fwd[op] {
				return
			}
			bwd[op] = true
			for _, r := range op.Instr.Uses() {
				if def := d.DefOf[r]; def != nil {
					back(def)
				}
			}
		}
		if fwd[fb.SNX] {
			back(fb.SNX)
		}
		for op := range bwd {
			onPath[op] = true
		}
		for _, lpr := range fb.LPRs {
			onPath[lpr] = true
		}
		onPath[fb.SNX] = true
	}

	// LPR stages follow their feedback region; floors raised iteratively
	// until every LPR sits in the same stage as its SNX.
	lprFloor := map[*Op]int{}
	for iter := 0; iter < 16; iter++ {
		schedule(d, delay, cfgp.Period, onPath, lprFloor)
		stable := true
		for _, fb := range d.Feedbacks {
			for _, lpr := range fb.LPRs {
				if lpr.Stage != fb.SNX.Stage {
					lprFloor[lpr] = fb.SNX.Stage
					stable = false
				}
			}
		}
		if stable {
			break
		}
	}
	for _, fb := range d.Feedbacks {
		for _, lpr := range fb.LPRs {
			if lpr.Stage != fb.SNX.Stage {
				return fmt.Errorf("dp: feedback %s: LPR at stage %d but SNX at stage %d (initiation interval > 1 not supported)",
					fb.State.Name, lpr.Stage, fb.SNX.Stage)
			}
		}
	}

	// Latch marking and stage statistics.
	maxStage := 0
	d.MaxStageDelay = 0
	for _, op := range d.Ops {
		if op.Stage > maxStage {
			maxStage = op.Stage
		}
		if op.TEnd > d.MaxStageDelay {
			d.MaxStageDelay = op.TEnd
		}
	}
	for _, op := range d.Ops {
		op.Latched = false
		for _, c := range consumers[op] {
			if c.Stage > op.Stage {
				op.Latched = true
			}
		}
		if op.Instr.Op == vm.SNX {
			op.Latched = true // "SNX instruction must have a latch" (§4.2.3)
		}
	}
	d.Stages = maxStage + 1
	return nil
}

// schedule performs one greedy ASAP pass over the topologically ordered
// ops.
func schedule(d *Datapath, delay DelayFn, period float64, onPath map[*Op]bool, lprFloor map[*Op]int) {
	for _, op := range d.Ops {
		if op.Node.Kind == InputNode {
			op.Stage = 0
			op.TEnd = 0
			continue
		}
		if op.Instr.Op == vm.LPR {
			op.Stage = lprFloor[op]
			op.TEnd = delay(op)
			continue
		}
		stage := 0
		tStart := 0.0
		for _, r := range op.Instr.Uses() {
			def := d.DefOf[r]
			if def == nil {
				continue
			}
			if def.Stage > stage {
				stage = def.Stage
				tStart = 0
			}
			if def.Stage == stage && def.TEnd > tStart {
				tStart = def.TEnd
			}
		}
		dly := delay(op)
		if tStart+dly > period && tStart > 0 && canBump(d, op, stage, onPath) &&
			(!onPath[op] || dly <= period) {
			// Latch the incoming values: start a new stage. On-path ops
			// bump only when the move actually meets the period, so the
			// LPR-floor fixpoint cannot ratchet on an oversized cycle.
			stage++
			tStart = 0
		}
		op.Stage = stage
		op.TEnd = tStart + dly
	}
}

// canBump reports whether op may start a new stage. Ops outside feedback
// regions always may. An op on a feedback path may only when none of its
// same-stage producers (other than the LPR latch read itself, which
// floats with the floor) is also on the path — bumping then latches only
// off-path inputs, and the LPR floor fixpoint re-aligns the latch read.
func canBump(d *Datapath, op *Op, stage int, onPath map[*Op]bool) bool {
	if !onPath[op] {
		return true
	}
	for _, r := range op.Instr.Uses() {
		def := d.DefOf[r]
		if def == nil || def.Stage != stage {
			continue
		}
		if onPath[def] && def.Instr.Op != vm.LPR {
			return false
		}
	}
	return true
}

// Latency returns the number of cycles between an iteration entering the
// data path and its outputs appearing (the stage index of the last
// output definition).
func (d *Datapath) Latency() int {
	max := 0
	for _, p := range d.Outputs {
		if def := d.DefOf[p.Reg]; def != nil && def.Stage > max {
			max = def.Stage
		}
	}
	return max
}

// ClockMHz returns the achievable clock rate implied by the worst stage
// delay (the synthesis model refines this with routing overhead).
func (d *Datapath) ClockMHz() float64 {
	if d.MaxStageDelay <= 0 {
		return 1000.0
	}
	return 1000.0 / d.MaxStageDelay
}

// LatchCount returns the number of latched op outputs (pipeline
// registers), one counted per latched op.
func (d *Datapath) LatchCount() int {
	n := 0
	for _, op := range d.Ops {
		if op.Latched {
			n++
		}
	}
	return n
}
