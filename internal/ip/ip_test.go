package ip

import "testing"

func TestAllCoresHaveReports(t *testing.T) {
	for _, c := range All() {
		if c.Report.Slices <= 0 {
			t.Errorf("%s: %d slices", c.Name, c.Report.Slices)
		}
		if c.Report.ClockMHz <= 0 || c.Report.ClockMHz > 300 {
			t.Errorf("%s: clock %.0f MHz", c.Name, c.Report.ClockMHz)
		}
		if c.OutputsPerCycle <= 0 {
			t.Errorf("%s: throughput %.1f", c.Name, c.OutputsPerCycle)
		}
	}
}

func TestAreaOrdering(t *testing.T) {
	// Structural sanity: the cos core (quarter-wave ROM) must be smaller
	// than the arbitrary LUT with identical ports.
	if CosLUT().Report.Slices >= ArbitraryLUT().Report.Slices {
		t.Errorf("cos %d >= arbitrary %d slices", CosLUT().Report.Slices, ArbitraryLUT().Report.Slices)
	}
	// The wavelet engine is the largest baseline.
	w := Wavelet().Report.Slices
	for _, c := range All() {
		if c.Name != "wavelet" && c.Report.Slices > w {
			t.Errorf("%s (%d) larger than wavelet (%d)", c.Name, c.Report.Slices, w)
		}
	}
	// bit_correlator is the smallest.
	b := BitCorrelator().Report.Slices
	for _, c := range All() {
		if c.Name != "bit_correlator" && c.Report.Slices < b {
			t.Errorf("%s (%d) smaller than bit_correlator (%d)", c.Name, c.Report.Slices, b)
		}
	}
}
