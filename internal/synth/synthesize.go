package synth

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"roccc/internal/dp"
	"roccc/internal/hir"
	"roccc/internal/smartbuf"
)

// Report is the synthesis result for one circuit — the two numbers
// Table 1 compares (clock MHz, area in slices) plus the breakdown.
type Report struct {
	Name           string
	Slices         int
	Mult18s        int
	BRAMs          int
	ClockMHz       float64
	CriticalPathNs float64
	Breakdown      map[string]int
	Device         Device
}

// String renders the report in ISE map-report style.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s on %s\n", r.Name, r.Device.Name)
	fmt.Fprintf(&b, "  slices: %d / %d\n", r.Slices, r.Device.Slices)
	if r.Mult18s > 0 {
		fmt.Fprintf(&b, "  MULT18X18: %d\n", r.Mult18s)
	}
	if r.BRAMs > 0 {
		fmt.Fprintf(&b, "  block RAMs: %d\n", r.BRAMs)
	}
	fmt.Fprintf(&b, "  clock: %.0f MHz (critical path %.2f ns)\n", r.ClockMHz, r.CriticalPathNs)
	keys := make([]string, 0, len(r.Breakdown))
	for k := range r.Breakdown {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-24s %5d slices\n", k, r.Breakdown[k])
	}
	return b.String()
}

// Options configure a synthesis run.
type Options struct {
	// BufferConfigs adds the smart buffers to the area (the FIR, DCT and
	// wavelet rows of Table 1 include them).
	BufferConfigs []smartbuf.Config
	// ControllerIters sizes the controller counters (0 = combinational
	// kernel, no controller).
	ControllerIters int
	// LUTMultipliers applies the ISE "multiplier style LUT" option to
	// constant multipliers (set for the FIR row, §5).
	LUTMultipliers bool
}

// KernelOptions returns the options that cost kernel k's memory side
// at a bus width of busElems elements: its smart buffers
// (smartbuf.KernelConfigs) plus a controller sized by the loop nest's
// trip count. A kernel that does not stream gets the zero Options, its
// data path alone.
func KernelOptions(k *hir.Kernel, busElems int) (Options, error) {
	cfgs, err := smartbuf.KernelConfigs(k, busElems)
	if err != nil || cfgs == nil {
		return Options{}, err
	}
	return Options{BufferConfigs: cfgs, ControllerIters: int(k.Nest.TotalIterations())}, nil
}

// Synthesize costs a compiled data path (plus optional buffers and
// controllers) on the Virtex-II xc2v2000-5 — the reproduction's
// substitute for running Xilinx ISE on the generated VHDL.
func Synthesize(d *dp.Datapath, opt Options) *Report {
	r := &Report{
		Name:      d.Name,
		Breakdown: map[string]int{},
		Device:    VirtexII2000,
	}
	// Data-path operators and pipeline registers.
	consumers := map[*dp.Op]int{} // op -> max stage distance to a consumer
	for _, op := range d.Ops {
		for _, reg := range op.Instr.Uses() {
			if def := d.DefOf[reg]; def != nil {
				if delta := op.Stage - def.Stage; delta > consumers[def] {
					consumers[def] = delta
				}
			}
		}
	}
	for _, op := range d.Ops {
		s, usesMult := OpSlices(d, op, opt.LUTMultipliers)
		if usesMult {
			r.Mult18s++
		}
		// Values crossing several stage boundaries ride register chains:
		// the first register is the op's own latch, each further stage
		// adds another rank.
		if delta := consumers[op]; delta > 1 {
			chain := (delta - 1) * RegSlices(op.Width)
			r.Slices += chain
			r.Breakdown["pipeline reg chains"] += chain
		}
		if s == 0 {
			continue
		}
		r.Slices += s
		r.Breakdown[opClass(d, op)] += s
	}
	// Output alignment registers (ports defined before the exit stage).
	lat := d.Latency()
	align := 0
	for _, p := range d.Outputs {
		def := d.DefOf[p.Reg]
		if def != nil && def.Stage < lat {
			align += RegSlices(p.Width) * (lat - def.Stage)
		}
	}
	if align > 0 {
		r.Slices += align
		r.Breakdown["output alignment regs"] += align
	}
	// Smart buffers (window storage + fill counter).
	for i, cfg := range opt.BufferConfigs {
		s := RegSlices(cfg.StorageBits())
		s += RegSlices(16) + CmpSlices(16) // fill counter + ready compare
		addrBits := log2ceil(cfg.ArrayDims[0] * busSecond(cfg))
		s += RegSlices(addrBits) + AdderSlices(addrBits) // address generator
		r.Slices += s
		r.Breakdown[fmt.Sprintf("smart buffer %d", i)] += s
	}
	// Higher-level controller.
	if opt.ControllerIters > 0 {
		bits := log2ceil(opt.ControllerIters + 1)
		s := RegSlices(3) // state
		s += 2 * (RegSlices(bits) + AdderSlices(bits) + CmpSlices(bits))
		r.Slices += s
		r.Breakdown["controller"] += s
	}
	// Timing: the worst pipeline stage of the data path dominates; the
	// buffer/controller paths are short counters.
	r.CriticalPathNs = d.MaxStageDelay
	if r.CriticalPathNs < 1.0 {
		r.CriticalPathNs = 1.0
	}
	r.ClockMHz = r.Device.ClockFrom(r.CriticalPathNs)
	return r
}

func busSecond(cfg smartbuf.Config) int {
	if len(cfg.ArrayDims) == 2 {
		return cfg.ArrayDims[1]
	}
	return 1
}

func opClass(d *dp.Datapath, op *dp.Op) string {
	in := op.Instr
	switch {
	case in.Op.String() == "mul" && (len(in.Srcs) > 1 && (in.Srcs[0].IsImm || in.Srcs[1].IsImm)):
		return "const multipliers"
	default:
		return in.Op.String() + "s"
	}
}

// Estimate is the fast compile-time area estimator of [13] (§2: "in
// less than one millisecond and within 5% accuracy compile time area
// estimation can be achieved"). Unlike Synthesize it does not analyze
// each operator: it aggregates bit counts per opcode class and applies
// per-class slice densities (the calibrated linear model of [13]). The
// experiment in package exp measures its error and runtime against the
// detailed Synthesize pass.
func Estimate(d *dp.Datapath, opt Options) (slices int, elapsed time.Duration) {
	start := time.Now()
	// Aggregate widths per opcode class in one linear sweep.
	var addBits, cmpBits, muxBits, logicBits, regBits, romSlices, constMulBits int
	mults := 0
	for _, op := range d.Ops {
		in := op.Instr
		w := op.Width
		switch in.Op.String() {
		case "add", "sub", "neg":
			addBits += w
		case "seq", "sne", "slt", "sle":
			// Comparators are sized by their operands.
			ow := opWidth(d, op)
			if ow > 1 || !(in.Srcs[0].IsImm || in.Srcs[1].IsImm) {
				cmpBits += ow
			}
		case "mux":
			muxBits += w
		case "and", "ior", "xor":
			if !(in.Srcs[0].IsImm || in.Srcs[1].IsImm) {
				logicBits += w
			}
		case "mul":
			if len(in.Srcs) > 1 && (in.Srcs[0].IsImm || in.Srcs[1].IsImm) {
				constMulBits += w
			} else {
				mults++
			}
		case "lut":
			if in.Rom.Half {
				romSlices += HalfWaveRomSlices(in.Rom.Size, in.Rom.Elem.Bits)
			} else {
				romSlices += RomSlices(in.Rom.Size, in.Rom.Elem.Bits)
			}
		case "snx":
			regBits += in.State.Type.Bits
		}
		if op.Latched {
			// Compute ops absorb their flip-flops into their own slices;
			// only wire-class ops (copies, conversions, constant shifts)
			// pay for explicit registers.
			constShift := (in.Op.String() == "shl" || in.Op.String() == "shr") &&
				len(in.Srcs) > 1 && in.Srcs[1].IsImm
			if zeroAreaOp(in.Op, constShift) {
				regBits += op.Width
			}
		}
	}
	constMulDensity := 0.8
	if opt.LUTMultipliers {
		constMulDensity = 1.7
	}
	// Deep pipelines carry multi-stage register chains the class sweep
	// cannot see; scale register cost with depth, saturating (values do
	// not live across the whole pipeline).
	stageFactor := 1.0 + 0.25*float64(maxI(d.Stages-2, 0))
	if stageFactor > 2.0 {
		stageFactor = 2.0
	}
	// The +8 intercept covers fixed wrapper costs the class sweep misses
	// (SNX latches, IO, odd slices) — fitted once against Synthesize on
	// the Table 1 suite, as [13] calibrated its per-unit model.
	est := 8 + float64(addBits)*0.5 + float64(cmpBits)*0.5 + float64(muxBits)*0.5 +
		float64(logicBits)*0.5 + float64(regBits)*0.55*stageFactor +
		float64(constMulBits)*constMulDensity + float64(romSlices)
	// Buffers and controller priced by storage.
	for _, cfg := range opt.BufferConfigs {
		est += float64(cfg.StorageBits())*0.5 + 16
	}
	if opt.ControllerIters > 0 {
		est += 12
	}
	_ = mults // dedicated blocks occupy no slices
	return int(est), time.Since(start)
}
