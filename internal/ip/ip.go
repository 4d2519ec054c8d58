// Package ip provides the reproduction's stand-ins for the Xilinx IP
// cores of Table 1 (and the handwritten wavelet engine): for each
// baseline, a structural synthesis report composed from the same
// Virtex-II primitive models (package synth) that cost the
// ROCCC-generated circuits, with the outputs per cycle the core
// sustains. The baselines are reports only; nothing here simulates them.
//
// The microarchitectures follow the documented cores: XNOR-popcount
// correlator, MULT18X18 multiplier-accumulator, pipelined restoring
// divider and square root, half-wave sine/cosine ROM, plain ROM,
// distributed-arithmetic FIR and DCT, and a lifting-scheme (5,3) wavelet
// engine with line buffers.
package ip

import (
	"roccc/internal/synth"
)

// Core is one baseline circuit.
type Core struct {
	Name            string
	Report          *synth.Report
	OutputsPerCycle float64
}

func newReport(name string) *synth.Report {
	return &synth.Report{
		Name:      name,
		Breakdown: map[string]int{},
		Device:    synth.VirtexII2000,
	}
}

func finish(r *synth.Report, critNs float64, mult18s int) *synth.Report {
	for _, s := range r.Breakdown {
		r.Slices += s
	}
	r.Mult18s = mult18s
	r.CriticalPathNs = critNs
	r.ClockMHz = r.Device.ClockFrom(critNs)
	return r
}

// BitCorrelator is the 8-bit correlator: XNOR with a constant mask is
// free (wire inversions), followed by a balanced 3-level popcount adder
// tree and an output register.
func BitCorrelator() Core {
	r := newReport("bit_correlator(IP)")
	r.Breakdown["popcount level 1 (4x 1+1)"] = 4 * synth.AdderSlices(2)
	r.Breakdown["popcount level 2 (2x 2+2)"] = 2 * synth.AdderSlices(3)
	r.Breakdown["popcount level 3 (3+3)"] = synth.AdderSlices(4)
	r.Breakdown["output register"] = synth.RegSlices(4)
	crit := synth.AdderDelay(2) + synth.AdderDelay(3) + synth.AdderDelay(4)
	return Core{Name: "bit_correlator", Report: finish(r, crit, 0), OutputsPerCycle: 1}
}

// MulAcc is the 12x12 multiplier-accumulator: one MULT18X18 block, a
// 25-bit accumulate adder, and an nd (new data) clock-enable — the
// reason the IP needs no mux where the ROCCC circuit builds an
// alternative branch (§5).
func MulAcc() Core {
	r := newReport("mul_acc(IP)")
	r.Breakdown["accumulate adder (25b)"] = synth.AdderSlices(25)
	r.Breakdown["nd clock-enable + control"] = 3
	r.Breakdown["output register (absorbed)"] = 0
	r.Breakdown["io"] = 2
	// The multiplier is internally registered; the accumulate stage sets
	// the clock together with the MULT18X18 propagation.
	crit := synth.MultBlockDelay(24)
	if a := synth.AdderDelay(25); a > crit {
		crit = a
	}
	return Core{Name: "mul_acc", Report: finish(r, crit, 1), OutputsPerCycle: 1}
}

// UDiv is the 8-bit pipelined restoring divider: eight stages, each a
// 9-bit subtract/compare, a restore mux, and the {remainder, divisor,
// quotient} pipeline registers.
func UDiv() Core {
	r := newReport("udiv(IP)")
	perStageLogic := synth.AdderSlices(9) + synth.MuxSlices(9)
	perStageRegs := synth.RegSlices(17 + 8 + 8) // rem + den + q carried
	perStage := perStageLogic
	if perStageRegs > perStage {
		perStage = perStageRegs
	}
	r.Breakdown["8 divide stages"] = 8 * perStage
	r.Breakdown["control"] = 8
	// Stage: subtract/compare, restore mux, and the quotient-select
	// control logic of the serial core.
	crit := synth.AdderDelay(9) + synth.MuxDelay() + 0.9
	return Core{Name: "udiv", Report: finish(r, crit, 0), OutputsPerCycle: 1}
}

// SquareRoot is the 24-bit pipelined restoring square root: twelve
// stages of a 26-bit add/sub, select mux and root/remainder registers.
func SquareRoot() Core {
	r := newReport("square_root(IP)")
	perStage := synth.AdderSlices(26) + synth.AdderSlices(26) + synth.MuxSlices(26) +
		synth.RegSlices(24+12)
	r.Breakdown["12 sqrt stages"] = 12 * perStage
	r.Breakdown["control"] = 9
	crit := 2*synth.AdderDelay(26) + synth.MuxDelay()
	return Core{Name: "square_root", Report: finish(r, crit, 0), OutputsPerCycle: 1}
}

// CosLUT is the Xilinx sine/cosine lookup core: a quarter-wave ROM with
// mirror/negate logic, 10-bit phase in, 16-bit amplitude out.
func CosLUT() Core {
	r := newReport("cos(IP)")
	r.Breakdown["quarter-wave ROM + mirror"] = synth.HalfWaveRomSlices(1024, 16)
	crit := synth.RomDelay(256) + synth.AdderDelay(16)*0.5 + synth.MuxDelay()
	return Core{Name: "cos", Report: finish(r, crit, 0), OutputsPerCycle: 1}
}

// ArbitraryLUT is a full 1024x16 ROM core.
func ArbitraryLUT() Core {
	r := newReport("arbitrary_lut(IP)")
	r.Breakdown["1024x16 ROM"] = synth.RomSlices(1024, 16)
	crit := synth.RomDelay(1024)
	return Core{Name: "arbitrary_lut", Report: finish(r, crit, 0), OutputsPerCycle: 1}
}

// FIR is the pair of 5-tap 8-bit constant-coefficient filters in
// distributed arithmetic: per filter, four dual-bit DA ROMs over the
// five tap bits, a scaling adder tree, and the input shift registers.
// "For Xilinx IP FIR ... the multiplications with constants are
// implemented using distributed arithmetic technique" (§5).
func FIR() Core {
	r := newReport("fir(IP)")
	perFilter := 4*synth.RomSlices(32, 12) +
		3*synth.AdderSlices(16) +
		synth.RegSlices(5*8) + // tap shift registers
		synth.RegSlices(16) // output register
	r.Breakdown["2x DA filter"] = 2 * perFilter
	r.Breakdown["bus interface + control"] = 22
	crit := synth.RomDelay(32) + 2*synth.AdderDelay(16)
	return Core{Name: "fir", Report: finish(r, crit, 0), OutputsPerCycle: 2}
}

// DCT is the 1-D 8-point DA-based DCT core: serialized through a shared
// DA unit, one transformed coefficient per clock (the throughput
// contrast of §5: "The throughput of Xilinx DCT IP is one output data
// per clock cycle, while ROCCC's throughput is eight output data per
// clock cycle").
func DCT() Core {
	r := newReport("dct(IP)")
	r.Breakdown["DA ROMs (8x 16x19)"] = 8 * synth.RomSlices(16, 19)
	r.Breakdown["accumulator tree"] = 4 * synth.AdderSlices(21)
	r.Breakdown["coefficient serializer"] = 8 * synth.MuxSlices(19) / 2
	r.Breakdown["transpose registers"] = synth.RegSlices(8 * 19)
	r.Breakdown["input double buffer"] = synth.RegSlices(8 * 8)
	r.Breakdown["output serializer regs"] = synth.RegSlices(8 * 19)
	r.Breakdown["rounding + control"] = 38
	crit := synth.RomDelay(16) + 2*synth.AdderDelay(21) + synth.MuxDelay() + 0.9
	return Core{Name: "dct", Report: finish(r, crit, 0), OutputsPerCycle: 1}
}

// Wavelet is the handwritten 2-D (5,3) engine the paper compares against
// (not a Xilinx IP): lifting-scheme data path with four image-row line
// buffers, address generation and control.
func Wavelet() Core {
	r := newReport("wavelet(handwritten)")
	r.Breakdown["line buffers (4x32x8)"] = synth.RegSlices(4 * 32 * 8)
	r.Breakdown["vertical lifting (predict+update)"] = 6 * synth.AdderSlices(16)
	r.Breakdown["horizontal lifting"] = 6 * synth.AdderSlices(16)
	r.Breakdown["column delay registers"] = synth.RegSlices(10 * 16)
	r.Breakdown["subband output registers"] = synth.RegSlices(4 * 16)
	r.Breakdown["address generators"] = 2 * (synth.RegSlices(10) + synth.AdderSlices(10) + synth.CmpSlices(10))
	r.Breakdown["control FSM"] = 30
	crit := 3*synth.AdderDelay(16) + 2*synth.MuxDelay() + 2.0 // + line-buffer access
	return Core{Name: "wavelet", Report: finish(r, crit, 0), OutputsPerCycle: 4}
}

// All returns the nine baselines in Table 1 row order.
func All() []Core {
	return []Core{
		BitCorrelator(), MulAcc(), UDiv(), SquareRoot(),
		CosLUT(), ArbitraryLUT(), FIR(), DCT(), Wavelet(),
	}
}
