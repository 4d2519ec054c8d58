package exp

import (
	"math/rand"
	"strings"
	"testing"

	"roccc/internal/dp"
)

// TestTable1Shape verifies the reproduction preserves the paper's
// qualitative results: ROCCC circuits cost 1.3x-4x the IP area on the
// computational kernels, exactly 1.00 on the LUT rows, and run at a
// comparable clock (within ~35%).
func TestTable1Shape(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, r := range rows {
		switch r.Example {
		case "cos", "arbitrary_lut":
			if r.PctArea != 1.0 || r.PctClock < 0.9 || r.PctClock > 1.1 {
				t.Errorf("%s: ratios %.3f/%.2f, want 1.00/1.00 (ROCCC instantiates the same IP)",
					r.Example, r.PctClock, r.PctArea)
			}
		default:
			if r.PctArea < 1.0 || r.PctArea > 4.5 {
				t.Errorf("%s: area ratio %.2f outside the paper's 1x-4x band", r.Example, r.PctArea)
			}
			if r.PctClock < 0.5 || r.PctClock > 1.5 {
				t.Errorf("%s: clock ratio %.3f not comparable", r.Example, r.PctClock)
			}
		}
	}
	gmClock, gmArea := GeoMeans(rows)
	if gmArea < 1.5 || gmArea > 3.5 {
		t.Errorf("geomean area ratio %.2f, paper reports ~2x-3x", gmArea)
	}
	if gmClock < 0.7 || gmClock > 1.3 {
		t.Errorf("geomean clock ratio %.3f, paper reports comparable clock", gmClock)
	}
}

func TestTable1Format(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable1(rows)
	for _, want := range []string{"bit_correlator", "wavelet", "%Clock", "%Area", "(paper)", "geometric mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

// TestDCTThroughputShape reproduces §5: lower or comparable clock but 8x
// outputs per cycle gives the ROCCC DCT the higher overall throughput.
func TestDCTThroughputShape(t *testing.T) {
	res, err := DCTThroughput()
	if err != nil {
		t.Fatal(err)
	}
	if res.RocccOutsPerCycle != 8 || res.IPOutsPerCycle != 1 {
		t.Errorf("outputs per cycle: roccc %.0f ip %.0f, want 8 and 1",
			res.RocccOutsPerCycle, res.IPOutsPerCycle)
	}
	if res.Speedup <= 1 {
		t.Errorf("throughput speedup %.2f, want > 1 (paper: higher overall throughput)", res.Speedup)
	}
}

// TestAreaEstimationClaim reproduces the §2 claim: estimation runs well
// under a millisecond per kernel; accuracy is reported per kernel and
// the suite-level mean absolute error should be within ~15% (the paper's
// calibrated estimator reached 5% on its own benchmark set).
func TestAreaEstimationClaim(t *testing.T) {
	rows, err := AreaEstimation()
	if err != nil {
		t.Fatal(err)
	}
	sumAbs := 0.0
	for _, r := range rows {
		if r.Elapsed.Microseconds() > 1000 {
			t.Errorf("%s: estimation took %s, want < 1ms", r.Kernel, r.Elapsed)
		}
		abs := r.ErrorPct
		if abs < 0 {
			abs = -abs
		}
		sumAbs += abs
		if abs > 60 {
			t.Errorf("%s: estimation error %.1f%%", r.Kernel, r.ErrorPct)
		}
	}
	if mean := sumAbs / float64(len(rows)); mean > 25 {
		t.Errorf("mean absolute estimation error %.1f%%, want <= 25%%", mean)
	}
}

func TestFig3(t *testing.T) {
	f, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fir_dp", "int32 A0", "A[i+4]->A4", "17 iterations"} {
		if !strings.Contains(f.Text, want) {
			t.Errorf("Fig3 missing %q in:\n%s", want, f.Text)
		}
	}
}

func TestFig4(t *testing.T) {
	f, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ROCCC_load_prev(sum)", "ROCCC_store2next(sum", "init 0"} {
		if !strings.Contains(f.Text, want) {
			t.Errorf("Fig4 missing %q in:\n%s", want, f.Text)
		}
	}
}

func TestFig6(t *testing.T) {
	f, d, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.NodesOfKind(dp.MuxNode)) != 1 || len(d.NodesOfKind(dp.PipeNode)) != 1 {
		t.Errorf("Fig6 structure: %s", d.Summary())
	}
	if !strings.Contains(f.Text, "mux") || !strings.Contains(f.Text, "pipe") {
		t.Error("Fig6 text missing hard nodes")
	}
}

func TestFig7(t *testing.T) {
	f, d, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Feedbacks) != 1 {
		t.Fatalf("feedbacks = %d", len(d.Feedbacks))
	}
	if !strings.Contains(f.Text, "feedback latch sum") {
		t.Errorf("Fig7 text:\n%s", f.Text)
	}
}

func TestSoftNodePropertyIfElse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	vectors := make([][]int64, 100)
	for i := range vectors {
		vectors[i] = []int64{rng.Int63n(1 << 15), rng.Int63n(1 << 15)}
	}
	n, err := SoftNodeProperty(Fig5Source, "if_else", vectors)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("checked %d vectors", n)
	}
}

// TestSpeedupClaim reproduces the §1 motivation: the streaming kernels
// run 10x-100x faster on the FPGA system than on the embedded-CPU model.
func TestSpeedupClaim(t *testing.T) {
	rows, err := Speedups()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup < 5 || r.Speedup > 400 {
			t.Errorf("%s: speedup %.1fx outside the plausible band", r.Kernel, r.Speedup)
		}
	}
	out := FormatSpeedups(rows)
	if !strings.Contains(out, "speedup") {
		t.Error("missing table header")
	}
}

// TestCSEAblation: symmetry sharing must reduce operator count and area.
func TestCSEAblation(t *testing.T) {
	r, err := CSEAblation()
	if err != nil {
		t.Fatal(err)
	}
	if r.WithOps >= r.WithoutOps {
		t.Errorf("ops: with=%d without=%d", r.WithOps, r.WithoutOps)
	}
	if r.WithSlices >= r.WithoutSlices {
		t.Errorf("slices: with=%d without=%d", r.WithSlices, r.WithoutSlices)
	}
}

// TestPeriodSweep: tighter targets must never reduce the stage count,
// and the loosest target collapses to a single stage.
func TestPeriodSweep(t *testing.T) {
	pts, err := PeriodSweep([]float64{2, 3, 5, 8, 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Stages > pts[i-1].Stages {
			t.Errorf("stages increased with a looser target: %+v -> %+v", pts[i-1], pts[i])
		}
	}
	last := pts[len(pts)-1]
	if last.Stages != 1 {
		t.Errorf("1000ns target yields %d stages, want 1", last.Stages)
	}
	if pts[0].ClockMHz < last.ClockMHz {
		t.Errorf("tight target clock %.0f below loose %.0f", pts[0].ClockMHz, last.ClockMHz)
	}
}

// TestUnrollSweep: throughput scales with the unroll factor.
func TestUnrollSweep(t *testing.T) {
	pts, err := UnrollSweep([]int64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 2, 4} {
		if pts[i].OutsPerCyc != want {
			t.Errorf("factor %d: %d outputs/cycle", want, pts[i].OutsPerCyc)
		}
	}
	if pts[2].MspsTotal <= pts[0].MspsTotal {
		t.Error("4x unroll did not raise throughput")
	}
	if pts[2].Slices <= pts[0].Slices {
		t.Error("4x unroll did not cost area")
	}
}

func TestFormatAblations(t *testing.T) {
	out, err := FormatAblations()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Ablation 1", "Ablation 2", "Ablation 3", "Msamples/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}
