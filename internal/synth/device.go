// Package synth is the reproduction's stand-in for Xilinx ISE 5.1i
// targeting the Virtex-II xc2v2000-5 (§5): a structural area and timing
// model of the CLB fabric. Operators map to 4-input-LUT/slice counts and
// propagation delays; the achievable clock is derived from the worst
// pipeline-stage combinational path plus register overhead.
//
// Both the ROCCC-generated circuits and the hand-structured IP baselines
// (package ip) are costed through the same primitive models, so the
// relative results (the shape of Table 1) do not depend on absolute
// calibration.
package synth

import "math"

// Device describes the target FPGA.
type Device struct {
	Name            string
	Slices          int // total slice count
	Mult18s         int // dedicated 18x18 multiplier blocks
	BRAMs           int // block RAMs
	MaxMHz          float64
	StageOverheadNs float64 // FF clock-to-out + setup + skew per stage
}

// VirtexII2000 models the xc2v2000 at speed grade -5, the paper's target.
var VirtexII2000 = Device{
	Name:            "xc2v2000-5",
	Slices:          10752,
	Mult18s:         56,
	BRAMs:           56,
	MaxMHz:          280,
	StageOverheadNs: 1.55,
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func log2ceil(n int) int {
	b := 0
	for (1 << uint(b)) < n {
		b++
	}
	return b
}

// --- Primitive area models (slices; 1 slice = 2 LUT4 + 2 FF) ---

// RegSlices is the cost of w register bits (2 FFs per slice).
func RegSlices(w int) int { return ceilDiv(w, 2) }

// AdderSlices is a w-bit ripple-carry adder/subtractor on the dedicated
// carry chain (2 bits per slice).
func AdderSlices(w int) int { return ceilDiv(w, 2) }

// LogicSlices is a w-bit 2-input bitwise operation (2 bits per slice).
func LogicSlices(w int) int { return ceilDiv(w, 2) }

// MuxSlices is a w-bit 2:1 multiplexer.
func MuxSlices(w int) int { return ceilDiv(w, 2) }

// CmpSlices is a w-bit comparator (carry chain).
func CmpSlices(w int) int { return ceilDiv(w, 2) }

// MultLUTSlices is an a×b-bit combinational LUT-fabric multiplier
// (partial-product rows compressed in slices).
func MultLUTSlices(a, b int) int { return ceilDiv(a*b, 2) }

// DividerSlices is a w-bit restoring array divider: w subtract/select
// rows.
func DividerSlices(w int) int { return w * (AdderSlices(w) + MuxSlices(w)) }

// BarrelSlices is a w-bit variable shifter (log2(w) mux levels).
func BarrelSlices(w int) int { return ceilDiv(w*log2ceil(w), 2) }

// RomSlices is a size×bits LUT ROM: 16x1 per LUT4 plus an output
// mux/decoder tree.
func RomSlices(size, bits int) int {
	luts := ceilDiv(size, 16) * bits
	tree := 0
	if size > 16 {
		tree = bits * log2ceil(ceilDiv(size, 16)) / 2
	}
	return ceilDiv(luts, 2) + tree + ceilDiv(log2ceil(size), 2)
}

// HalfWaveRomSlices models the Xilinx sine/cosine core trick: only one
// half wave stored, mirrored by a small negate/mux stage (§5).
func HalfWaveRomSlices(size, bits int) int {
	return RomSlices(size/4, bits) + AdderSlices(bits) + MuxSlices(bits) + ceilDiv(log2ceil(size), 2)
}

// KCMSlices prices a constant-coefficient multiplier in the ISE
// "multiplier style LUT" fashion (§5): one 16-deep partial-product ROM
// per 4-bit group of the variable operand plus a combining adder tree.
func KCMSlices(wIn, wOut int) int {
	groups := ceilDiv(wIn, 4)
	s := groups * RomSlices(16, wOut)
	if groups > 1 {
		s += (groups - 1) * AdderSlices(wOut)
	}
	return s
}

// KCMDelay is the LUT-style constant multiplier delay.
func KCMDelay(wIn, wOut int) float64 {
	groups := ceilDiv(wIn, 4)
	return RomDelay(16) + float64(log2ceil(groups))*AdderDelay(wOut)
}

// CSDDigits returns the number of nonzero digits in the canonical
// signed-digit form of c — the adder count of a constant multiplier is
// CSDDigits-1.
func CSDDigits(c int64) int {
	if c < 0 {
		c = -c
	}
	n := 0
	for c != 0 {
		if c&1 != 0 {
			if c&3 == 3 { // ...11 -> +100...-1 (digit -1, carry)
				n++
				c++
			} else {
				n++
			}
		}
		c >>= 1
	}
	return n
}

// --- Primitive delay models (ns, speed grade -5) ---

// AdderDelay is the w-bit carry-chain delay.
func AdderDelay(w int) float64 { return 0.65 + 0.045*float64(w) }

// CmpDelay is the w-bit comparator delay.
func CmpDelay(w int) float64 { return 0.60 + 0.040*float64(w) }

// MuxDelay is a 2:1 mux.
func MuxDelay() float64 { return 0.65 }

// LogicDelay is a 2-input bitwise stage.
func LogicDelay() float64 { return 0.50 }

// MultBlockDelay is the dedicated MULT18X18 combinational delay.
func MultBlockDelay(w int) float64 { return 3.3 + 0.04*float64(w) }

// MultLUTDelay is the LUT-fabric multiplier delay.
func MultLUTDelay(a, b int) float64 { return 1.6 + 0.10*float64(a+b) }

// ConstMultDelay is the CSD shift-add network delay (adder tree depth).
func ConstMultDelay(c int64, w int) float64 {
	adders := CSDDigits(c) - 1
	if adders <= 0 {
		return 0.15 // pure wiring/shift
	}
	depth := int(math.Ceil(math.Log2(float64(adders + 1))))
	return float64(depth) * AdderDelay(w)
}

// DividerDelay is the restoring array divider combinational delay.
func DividerDelay(w int) float64 { return float64(w) * (AdderDelay(w)*0.7 + MuxDelay()*0.4) }

// BarrelDelay is the variable shifter delay.
func BarrelDelay(w int) float64 { return float64(log2ceil(w)) * MuxDelay() }

// RomDelay is the LUT ROM access delay (mux-tree depth grows with size).
func RomDelay(size int) float64 {
	return 1.6 + 0.42*float64(log2ceil(ceilDiv(size, 16)))
}

// ClockFrom converts a worst-case combinational stage delay into an
// achievable clock rate on the device.
func (dv Device) ClockFrom(stageDelayNs float64) float64 {
	period := stageDelayNs + dv.StageOverheadNs
	mhz := 1000.0 / period
	if mhz > dv.MaxMHz {
		return dv.MaxMHz
	}
	return math.Round(mhz)
}
