// Package bench defines the nine Table 1 kernels of the DATE'05 paper as
// C sources for the ROCCC reproduction, with the compile options each
// row used (full unrolling for the bit-level kernels, partial unrolling
// to match the memory bus for FIR, LUT-style multipliers for FIR/DCT),
// and reads the checked-in C corpus into kernels of the same shape.
package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"roccc/internal/core"
)

// Kernel is one Table 1 row's ROCCC-side definition.
type Kernel struct {
	Name    string
	Source  string
	Func    string
	Options core.Options
	// BusElems for the system/synthesis model (elements per cycle).
	BusElems int
	// Scalars for system simulation.
	Scalars map[string]int64
	// OutputsPerCycle the generated circuit sustains once streaming.
	OutputsPerCycle float64
	// HalfWaveRoms lists ROM names that instantiate the half-wave
	// sine/cosine IP trick (§5).
	HalfWaveRoms []string
	// LUTMultStyle applies the ISE "multiplier style LUT" option (§5:
	// "we set the synthesis option 'multiplier style' as 'LUT' for the
	// ROCCC-generated DCT and FIR").
	LUTMultStyle bool
}

// BitCorrelator counts the bits of an 8-bit input equal to a constant
// mask (Table 1 row 1). The loop over bits is fully unrolled.
func BitCorrelator() Kernel {
	src := `
void bit_correlator(uint8 x, uint4* count) {
	int i;
	uint4 c;
	c = 0;
	for (i = 0; i < 8; i++) {
		c = c + (((x >> i) & 1) == ((182 >> i) & 1));
	}
	*count = c;
}
`
	return Kernel{
		Name: "bit_correlator", Source: src, Func: "bit_correlator",
		Options:         core.Options{Optimize: true, UnrollAll: true, PeriodNs: 5},
		BusElems:        1,
		OutputsPerCycle: 1,
	}
}

// MulAcc is the 12-bit multiplier-accumulator with an nd (new data)
// control input, expressed with an if statement as §5 describes.
func MulAcc() Kernel {
	src := `
int25 acc;
void mul_acc(int12 a, int12 b, uint1 nd) {
	int i;
	acc = 0;
	for (i = 0; i < 1024; i++) {
		if (nd) { acc = acc + a * b; }
	}
}
`
	return Kernel{
		Name: "mul_acc", Source: src, Func: "mul_acc",
		Options:         core.Options{Optimize: true, PeriodNs: 5},
		BusElems:        1,
		Scalars:         map[string]int64{"a": 3, "b": 4, "nd": 1},
		OutputsPerCycle: 1,
	}
}

// UDiv is the 8-bit unsigned divider: a fully-unrolled restoring
// shift-subtract array.
func UDiv() Kernel {
	src := `
void udiv(uint8 num, uint8 den, uint8* quo) {
	int i;
	uint17 r;
	uint17 d;
	uint8 q;
	r = num;
	d = (uint17)den << 8;
	q = 0;
	for (i = 0; i < 8; i++) {
		r = r << 1;
		q = q << 1;
		if (r >= d) {
			r = r - d;
			q = q | 1;
		}
	}
	*quo = q;
}
`
	return Kernel{
		Name: "udiv", Source: src, Func: "udiv",
		Options:         core.Options{Optimize: true, UnrollAll: true, PeriodNs: 2.6},
		BusElems:        1,
		OutputsPerCycle: 1,
	}
}

// SquareRoot computes a 24-bit integer square root by the restoring
// bit-pair method, fully unrolled.
func SquareRoot() Kernel {
	src := `
void square_root(uint24 x, uint12* root) {
	int i;
	uint24 rem;
	uint24 r;
	rem = x;
	r = 0;
	for (i = 0; i < 12; i++) {
		if (rem >= r + (1 << (22 - 2*i))) {
			rem = rem - (r + (1 << (22 - 2*i)));
			r = (r >> 1) + (1 << (22 - 2*i));
		} else {
			r = r >> 1;
		}
	}
	*root = (uint12)r;
}
`
	return Kernel{
		Name: "square_root", Source: src, Func: "square_root",
		Options:         core.Options{Optimize: true, UnrollAll: true, PeriodNs: 3.4},
		BusElems:        1,
		OutputsPerCycle: 1,
	}
}

// cosTable renders the 1024-entry, 16-bit cosine table the cos kernel
// looks up (the content of the Xilinx sine/cosine IP).
func cosTable() string {
	var b strings.Builder
	b.WriteString("const int16 costab[1024] = {")
	for i := 0; i < 1024; i++ {
		v := int(math.Round(32767 * math.Cos(2*math.Pi*float64(i)/1024)))
		if i%16 == 0 {
			b.WriteString("\n\t")
		}
		fmt.Fprintf(&b, "%d", v)
		if i != 1023 {
			b.WriteString(", ")
		}
	}
	b.WriteString("};\n")
	return b.String()
}

// Cos is the 10-bit-in / 16-bit-out cosine lookup. ROCCC instantiates
// the existing half-wave IP component, so the row matches the IP
// exactly (§5).
func Cos() Kernel {
	src := cosTable() + `
void cos_lut(uint10 theta, int16* y) {
	*y = costab[theta];
}
`
	return Kernel{
		Name: "cos", Source: src, Func: "cos_lut",
		Options:         core.Options{Optimize: true, PeriodNs: 7},
		BusElems:        1,
		OutputsPerCycle: 1,
		HalfWaveRoms:    []string{"costab"},
	}
}

// ArbitraryLUT is a full 1024x16 ROM with the same ports as Cos; both
// sides instantiate the same ROM IP, so the row is 1.00/1.00 in Table 1.
func ArbitraryLUT() Kernel {
	var b strings.Builder
	b.WriteString("const int16 pdf[1024] = {")
	for i := 0; i < 1024; i++ {
		// An arbitrary (probability-distribution-like) content.
		v := (i*i*37 + i*911 + 13) % 32768
		if i%16 == 0 {
			b.WriteString("\n\t")
		}
		fmt.Fprintf(&b, "%d", v)
		if i != 1023 {
			b.WriteString(", ")
		}
	}
	b.WriteString("};\n")
	src := b.String() + `
void arb_lut(uint10 addr, int16* y) {
	*y = pdf[addr];
}
`
	return Kernel{
		Name: "arbitrary_lut", Source: src, Func: "arb_lut",
		Options:         core.Options{Optimize: true, PeriodNs: 7},
		BusElems:        1,
		OutputsPerCycle: 1,
	}
}

// FIR is the paper's pair of 5-tap 8-bit constant-coefficient filters on
// a 16-bit bus: the innermost loop is unrolled by two so the data path
// consumes two elements (one bus word) per cycle.
func FIR() Kernel {
	src := `
int8 A[64];
int16 C[60];
void fir() {
	int i;
	for (i = 0; i < 60; i = i + 1) {
		C[i] = (int16)((3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4]) >> 3);
	}
}
`
	return Kernel{
		Name: "fir", Source: src, Func: "fir",
		Options:         core.Options{Optimize: true, UnrollFactor: 2, PeriodNs: 5},
		BusElems:        2,
		OutputsPerCycle: 2,
		LUTMultStyle:    true,
	}
}

// dctConsts are cos((2n+1)kπ/16) scaled by 2048.
var dctConsts = [8]int{2048, 2009, 1892, 1703, 1448, 1138, 784, 400}

// DCT is the 1-D 8-point discrete cosine transform: 8-bit inputs,
// 19-bit outputs, eight results per clock (stride-8 windows), constant
// multipliers in LUT style, and the even/odd butterfly symmetry that CSE
// exploits ("Both ROCCC DCT and Xilinx IP DCT explore the symmetry
// within the cosine coefficients").
func DCT() Kernel {
	c := dctConsts
	src := fmt.Sprintf(`
int8 X[64];
int19 Y[64];
void dct() {
	int i;
	for (i = 0; i < 64; i = i + 8) {
		int s07; int s16; int s25; int s34;
		int d07; int d16; int d25; int d34;
		int e0; int e1; int o0; int o1;
		s07 = X[i] + X[i+7];
		s16 = X[i+1] + X[i+6];
		s25 = X[i+2] + X[i+5];
		s34 = X[i+3] + X[i+4];
		d07 = X[i] - X[i+7];
		d16 = X[i+1] - X[i+6];
		d25 = X[i+2] - X[i+5];
		d34 = X[i+3] - X[i+4];
		e0 = s07 + s34;
		e1 = s16 + s25;
		o0 = s07 - s34;
		o1 = s16 - s25;
		Y[i]   = (int19)((%d*(e0 + e1)) >> 4);
		Y[i+4] = (int19)((%d*(e0 - e1)) >> 4);
		Y[i+2] = (int19)((%d*o0 + %d*o1) >> 4);
		Y[i+6] = (int19)((%d*o0 - %d*o1) >> 4);
		Y[i+1] = (int19)((%d*d07 + %d*d16 + %d*d25 + %d*d34) >> 4);
		Y[i+3] = (int19)((%d*d07 - %d*d16 - %d*d25 - %d*d34) >> 4);
		Y[i+5] = (int19)((%d*d07 - %d*d16 + %d*d25 + %d*d34) >> 4);
		Y[i+7] = (int19)((%d*d07 - %d*d16 + %d*d25 - %d*d34) >> 4);
	}
}
`,
		c[4], c[4], c[2], c[6], c[6], c[2],
		c[1], c[3], c[5], c[7],
		c[3], c[7], c[1], c[5],
		c[5], c[1], c[7], c[3],
		c[7], c[5], c[3], c[1])
	return Kernel{
		Name: "dct", Source: src, Func: "dct",
		Options:         core.Options{Optimize: true, PeriodNs: 6},
		BusElems:        8,
		OutputsPerCycle: 8,
	}
}

// Wavelet is the 2-D (5,3) wavelet engine: a 5x5 window sliding by two
// in both dimensions over a 32x32 image, producing the LL/LH/HL/HH
// subband samples — "the standard lossless JPEG2000 compression
// transform", including address generator, smart buffer and data path.
func Wavelet() Kernel {
	// Vertical then horizontal application of low = [-1 2 6 2 -1]/8 and
	// high = [-1 2 -1]/2 (the (5,3) analysis pair).
	var b strings.Builder
	b.WriteString(`
int8 img[32][32];
int16 LL[14][14];
int16 LH[14][14];
int16 HL[14][14];
int16 HH[14][14];
void wavelet() {
	int i; int j;
	for (i = 0; i < 14; i++) {
		for (j = 0; j < 14; j++) {
`)
	// Vertical low (v0..v4) and high (w0..w4) intermediates per column.
	for k := 0; k < 5; k++ {
		fmt.Fprintf(&b, "\t\t\tint v%d; int w%d;\n", k, k)
	}
	for k := 0; k < 5; k++ {
		fmt.Fprintf(&b,
			"\t\t\tv%d = -img[2*i][2*j+%d] + 2*img[2*i+1][2*j+%d] + 6*img[2*i+2][2*j+%d] + 2*img[2*i+3][2*j+%d] - img[2*i+4][2*j+%d];\n",
			k, k, k, k, k, k)
		fmt.Fprintf(&b,
			"\t\t\tw%d = -img[2*i+1][2*j+%d] + 2*img[2*i+2][2*j+%d] - img[2*i+3][2*j+%d];\n",
			k, k, k, k)
	}
	b.WriteString(`
			LL[i][j] = (int16)((-v0 + 2*v1 + 6*v2 + 2*v3 - v4) >> 6);
			LH[i][j] = (int16)((-v1 + 2*v2 - v3) >> 4);
			HL[i][j] = (int16)((-w0 + 2*w1 + 6*w2 + 2*w3 - w4) >> 6);
			HH[i][j] = (int16)((-w1 + 2*w2 - w3) >> 4);
		}
	}
}
`)
	return Kernel{
		Name: "wavelet", Source: b.String(), Func: "wavelet",
		Options:         core.Options{Optimize: true, PeriodNs: 9},
		BusElems:        4,
		OutputsPerCycle: 4,
	}
}

// All returns the nine Table 1 kernels in the paper's row order.
func All() []Kernel {
	return []Kernel{
		BitCorrelator(), MulAcc(), UDiv(), SquareRoot(),
		Cos(), ArbitraryLUT(), FIR(), DCT(), Wavelet(),
	}
}

// Divider is the planted-fault kernel: an elementwise divide whose
// drain bubbles would fault without poison semantics, and whose zero
// divisor on a valid iteration must abort at the reference's cycle. It
// is no Table 1 row, so All leaves it out; the sweep matrix
// (exp.SweepSpecs) and the load scenario (load.BuildScenario) add it
// and plant the zeros, finding it by its name.
func Divider() Kernel {
	src := `
int A[24];
int B[24];
int Q[24];
void divide() {
	int i;
	for (i = 0; i < 24; i++) {
		Q[i] = A[i] / B[i];
	}
}
`
	return Kernel{
		Name: "divide_fault", Source: src, Func: "divide",
		Options:  core.DefaultOptions(),
		BusElems: 1,
	}
}

// CorpusDir is the checked-in fuzz corpus, relative to the repository
// root. Every tool that reads it (rocccvet, rocccbench, rocccserve,
// rocccload) reads it from its working directory, so they agree when
// run from one directory.
const CorpusDir = "ci/corpus"

// Corpus reads every .c kernel in dir, in sorted file order, as a
// kernel named corpus_<file> with function k, the default options and
// a one-element bus. It compiles nothing. An empty or missing dir
// yields no kernels and no error.
func Corpus(dir string) ([]Kernel, error) {
	if dir == "" {
		return nil, nil
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.c"))
	if err != nil || len(files) == 0 {
		return nil, err
	}
	sort.Strings(files)
	ks := make([]Kernel, 0, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("bench: corpus: %w", err)
		}
		ks = append(ks, Kernel{
			Name:     "corpus_" + filepath.Base(f),
			Source:   string(src),
			Func:     "k",
			Options:  core.DefaultOptions(),
			BusElems: 1,
		})
	}
	return ks, nil
}

// Compile compiles the kernel with its row options and marks half-wave
// ROM instantiations.
func (k Kernel) Compile() (*core.Result, error) {
	res, err := core.CompileSource(k.Source, k.Func, k.Options)
	if err != nil {
		return nil, err
	}
	for _, name := range k.HalfWaveRoms {
		for _, r := range res.Kernel.Roms {
			if r.Name == name {
				r.Half = true
			}
		}
	}
	return res, nil
}
