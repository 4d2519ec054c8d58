// Package exp regenerates the paper's evaluation: Table 1 (Xilinx IP vs
// ROCCC-generated hardware), the DCT throughput comparison of §5, the
// compile-time area estimation claim of §2 [13], and the structural
// figures (Fig. 3-7). Its sweeps (diff.go) check every execution path
// bit-identical to the serial interp reference.
package exp

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/ip"
	"roccc/internal/synth"
)

// Row is one Table 1 line: IP clock/area, ROCCC clock/area, and the
// ratios the paper reports (%Clock = ROCCC/IP clock, %Area = ROCCC/IP
// area).
type Row struct {
	Example    string
	IPClock    float64
	IPArea     int
	RocccClock float64
	RocccArea  int
	PctClock   float64
	PctArea    float64
}

// PaperRow holds the original publication's numbers for side-by-side
// reporting in FormatTable1.
type PaperRow struct {
	IPClock, RocccClock float64
	IPArea, RocccArea   int
	PctClock, PctArea   float64
}

// PaperTable1 is Table 1 as printed in the paper.
var PaperTable1 = map[string]PaperRow{
	"bit_correlator": {212, 144, 9, 19, 0.679, 2.11},
	"mul_acc":        {238, 238, 18, 59, 1.00, 3.28},
	"udiv":           {216, 272, 144, 495, 1.26, 3.44},
	"square_root":    {167, 220, 585, 1199, 1.32, 2.05},
	"cos":            {170, 170, 150, 150, 1.00, 1.00},
	"arbitrary_lut":  {170, 170, 549, 549, 1.00, 1.00},
	"fir":            {185, 194, 270, 293, 1.05, 1.09},
	"dct":            {181, 133, 412, 724, 0.735, 1.76},
	"wavelet":        {104, 101, 1464, 2415, 0.971, 1.65},
}

// SynthesizeKernel compiles a bench kernel and synthesizes it (with
// smart buffers and controller for the streaming rows). core.Compile
// places the latches against synth.OpDelay(d, false) on full ROMs. A
// row whose delay model differs from that one — LUT-style multipliers,
// or ROMs that Kernel.Compile marks half-wave after pipelining — is
// re-pipelined against its own model, so latch placement and area use
// the same technology model.
func SynthesizeKernel(k bench.Kernel) (*core.Result, *synth.Report, error) {
	res, err := k.Compile()
	if err != nil {
		return nil, nil, err
	}
	if k.LUTMultStyle || len(k.HalfWaveRoms) > 0 {
		if err := dp.Pipeline(res.Datapath, dp.PipelineConfig{
			Period: k.Options.PeriodNs,
			Delay:  synth.OpDelay(res.Datapath, k.LUTMultStyle),
		}); err != nil {
			return nil, nil, err
		}
	}
	opt, err := synth.KernelOptions(res.Kernel, k.BusElems)
	if err != nil {
		return nil, nil, err
	}
	opt.LUTMultipliers = k.LUTMultStyle
	rep := synth.Synthesize(res.Datapath, opt)
	rep.Name = k.Name + "(ROCCC)"
	return res, rep, nil
}

// Table1 regenerates the paper's Table 1 with the reproduction's
// synthesis model on both sides. The rows are independent full
// compile+synthesize pipelines, so they shard across GOMAXPROCS
// goroutines (each row compiles its own bench.Kernel — nothing is
// shared between rows); row order stays the paper's regardless of
// completion order.
func Table1() ([]Row, error) {
	kernels := bench.All()
	cores := ip.All()
	if len(kernels) != len(cores) {
		return nil, fmt.Errorf("exp: kernel/baseline count mismatch")
	}
	rows := make([]Row, len(kernels))
	errs := make([]error, len(kernels))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	wg.Add(len(kernels))
	for i := range kernels {
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			k, c := kernels[i], cores[i]
			if c.Name != k.Name {
				errs[i] = fmt.Errorf("exp: row %d: kernel %s vs core %s", i, k.Name, c.Name)
				return
			}
			_, rep, err := SynthesizeKernel(k)
			if err != nil {
				errs[i] = fmt.Errorf("exp: %s: %v", k.Name, err)
				return
			}
			row := Row{
				Example:    k.Name,
				IPClock:    c.Report.ClockMHz,
				IPArea:     c.Report.Slices,
				RocccClock: rep.ClockMHz,
				RocccArea:  rep.Slices,
			}
			row.PctClock = row.RocccClock / row.IPClock
			row.PctArea = float64(row.RocccArea) / float64(row.IPArea)
			rows[i] = row
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// FormatTable1 renders rows in the paper's layout, with the published
// values alongside.
func FormatTable1(rows []Row) string {
	var b strings.Builder
	b.WriteString("Table 1: hardware performance, Xilinx IP vs ROCCC-generated VHDL\n")
	b.WriteString("(reproduction: both sides synthesized with the Virtex-II xc2v2000-5 model)\n\n")
	fmt.Fprintf(&b, "%-15s %21s %21s %8s %8s\n", "", "Xilinx IP", "ROCCC", "", "")
	fmt.Fprintf(&b, "%-15s %10s %10s %10s %10s %8s %8s\n",
		"Example", "Clock(MHz)", "Area(sl)", "Clock(MHz)", "Area(sl)", "%Clock", "%Area")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %10.0f %10d %10.0f %10d %8.3f %8.2f\n",
			r.Example, r.IPClock, r.IPArea, r.RocccClock, r.RocccArea, r.PctClock, r.PctArea)
		if p, ok := PaperTable1[r.Example]; ok {
			fmt.Fprintf(&b, "%-15s %10.0f %10d %10.0f %10d %8.3f %8.2f\n",
				"  (paper)", p.IPClock, p.IPArea, p.RocccClock, p.RocccArea, p.PctClock, p.PctArea)
		}
	}
	gmClock, gmArea := GeoMeans(rows)
	fmt.Fprintf(&b, "\ngeometric mean: %%Clock %.3f, %%Area %.2f (paper: ~1.0 and 2x-3x)\n", gmClock, gmArea)
	return b.String()
}

// GeoMeans returns the geometric means of the clock and area ratios over
// the non-LUT rows (the LUT rows are 1.00 by construction, as in the
// paper).
func GeoMeans(rows []Row) (clock, area float64) {
	clock, area = 1, 1
	n := 0
	for _, r := range rows {
		if r.Example == "cos" || r.Example == "arbitrary_lut" {
			continue
		}
		clock *= r.PctClock
		area *= r.PctArea
		n++
	}
	if n == 0 {
		return 1, 1
	}
	inv := 1.0 / float64(n)
	return pow(clock, inv), pow(area, inv)
}

func pow(x, p float64) float64 {
	if x <= 0 {
		return 0
	}
	// math.Pow without importing math twice; keep explicit.
	return exp2(p * log2(x))
}

// ThroughputResult is the §5 DCT comparison.
type ThroughputResult struct {
	IPClockMHz        float64
	RocccClockMHz     float64
	IPOutsPerCycle    float64
	RocccOutsPerCycle float64
	// Msamples/s = clock × outputs/cycle.
	IPMsps    float64
	RocccMsps float64
	Speedup   float64
}

// DCTThroughput reproduces the §5 observation: the ROCCC DCT runs at a
// lower clock (0.735x in the paper) but produces eight outputs per cycle
// against the IP's one, so its overall throughput is higher.
func DCTThroughput() (*ThroughputResult, error) {
	k := bench.DCT()
	_, rep, err := SynthesizeKernel(k)
	if err != nil {
		return nil, err
	}
	c := ip.DCT()
	t := &ThroughputResult{
		IPClockMHz:        c.Report.ClockMHz,
		RocccClockMHz:     rep.ClockMHz,
		IPOutsPerCycle:    c.OutputsPerCycle,
		RocccOutsPerCycle: k.OutputsPerCycle,
	}
	t.IPMsps = t.IPClockMHz * t.IPOutsPerCycle
	t.RocccMsps = t.RocccClockMHz * t.RocccOutsPerCycle
	t.Speedup = t.RocccMsps / t.IPMsps
	return t, nil
}

// EstimationRow is one kernel's compile-time area estimation result.
type EstimationRow struct {
	Kernel    string
	Estimate  int
	Synthesis int
	ErrorPct  float64
	Elapsed   time.Duration
}

// AreaEstimation reproduces the §2 claim from [13]: compile-time area
// estimation "in less than one millisecond and within 5% accuracy".
func AreaEstimation() ([]EstimationRow, error) {
	var rows []EstimationRow
	for _, k := range bench.All() {
		res, rep, err := SynthesizeKernel(k)
		if err != nil {
			return nil, err
		}
		opt, err := synth.KernelOptions(res.Kernel, k.BusElems)
		if err != nil {
			return nil, err
		}
		opt.LUTMultipliers = k.LUTMultStyle
		// Best of several runs: the estimator's cost is what matters, not
		// scheduler noise on the first call.
		est, elapsed := synth.Estimate(res.Datapath, opt)
		for i := 0; i < 4; i++ {
			e2, t2 := synth.Estimate(res.Datapath, opt)
			est = e2
			if t2 < elapsed {
				elapsed = t2
			}
		}
		errPct := 100 * float64(est-rep.Slices) / float64(rep.Slices)
		rows = append(rows, EstimationRow{
			Kernel: k.Name, Estimate: est, Synthesis: rep.Slices,
			ErrorPct: errPct, Elapsed: elapsed,
		})
	}
	return rows, nil
}

// FormatEstimation renders the estimation accuracy table.
func FormatEstimation(rows []EstimationRow) string {
	var b strings.Builder
	b.WriteString("Compile-time area estimation vs detailed synthesis ([13], §2)\n\n")
	fmt.Fprintf(&b, "%-15s %10s %10s %8s %12s\n", "Kernel", "Estimate", "Synthesis", "Err(%)", "Time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %10d %10d %+8.1f %12s\n",
			r.Kernel, r.Estimate, r.Synthesis, r.ErrorPct, r.Elapsed)
	}
	return b.String()
}
