package bench

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"roccc/internal/cc"
	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
)

func TestAllKernelsCompile(t *testing.T) {
	for _, k := range All() {
		res, err := k.Compile()
		if err != nil {
			t.Errorf("%s: %v", k.Name, err)
			continue
		}
		if res.Datapath.NumOps() == 0 {
			t.Errorf("%s: empty data path", k.Name)
		}
	}
}

// simCombinational runs a combinational kernel's data path on a batch of
// input vectors.
func simCombinational(t *testing.T, res *core.Result, iters [][]int64) [][]int64 {
	t.Helper()
	sim := dp.NewSim(res.Datapath)
	outs, err := sim.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestBitCorrelatorExhaustive(t *testing.T) {
	k := BitCorrelator()
	res, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var iters [][]int64
	for x := int64(0); x < 256; x++ {
		iters = append(iters, []int64{x})
	}
	outs := simCombinational(t, res, iters)
	for x := int64(0); x < 256; x++ {
		want := int64(0)
		for i := 0; i < 8; i++ {
			if (x>>uint(i))&1 == (182>>uint(i))&1 {
				want++
			}
		}
		want &= 15 // uint4 output port
		if outs[x][0] != want {
			t.Fatalf("bit_correlator(%d) = %d, want %d", x, outs[x][0], want)
		}
	}
}

func TestUDivExhaustive(t *testing.T) {
	k := UDiv()
	res, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var iters [][]int64
	var want []int64
	for num := int64(0); num < 256; num += 3 {
		for den := int64(1); den < 256; den += 7 {
			iters = append(iters, []int64{num, den})
			want = append(want, num/den)
		}
	}
	outs := simCombinational(t, res, iters)
	for i := range iters {
		if outs[i][0] != want[i] {
			t.Fatalf("udiv(%d,%d) = %d, want %d", iters[i][0], iters[i][1], outs[i][0], want[i])
		}
	}
}

func TestSquareRoot(t *testing.T) {
	k := SquareRoot()
	res, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var iters [][]int64
	for i := 0; i < 500; i++ {
		iters = append(iters, []int64{rng.Int63n(1 << 24)})
	}
	iters = append(iters, []int64{0}, []int64{1}, []int64{(1 << 24) - 1}, []int64{4194304})
	outs := simCombinational(t, res, iters)
	for i, in := range iters {
		want := int64(math.Sqrt(float64(in[0])))
		// Guard against float rounding at the boundary.
		for want*want > in[0] {
			want--
		}
		for (want+1)*(want+1) <= in[0] {
			want++
		}
		if outs[i][0] != want {
			t.Fatalf("sqrt(%d) = %d, want %d", in[0], outs[i][0], want)
		}
	}
}

func TestMulAccKernel(t *testing.T) {
	k := MulAcc()
	res, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sim := dp.NewSim(res.Datapath)
	iters := [][]int64{
		{100, 200, 1}, {50, 50, 1}, {999, 999, 0}, {-30, 40, 1},
	}
	if _, err := sim.Run(iters); err != nil {
		t.Fatal(err)
	}
	want := int64(100*200 + 50*50 - 30*40)
	got, _ := sim.FeedbackByName(res.Datapath.Feedbacks[0].State.Name)
	if got != want {
		t.Fatalf("acc = %d, want %d", got, want)
	}
}

func TestCosLUT(t *testing.T) {
	k := Cos()
	res, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kernel.Roms) != 1 || !res.Kernel.Roms[0].Half {
		t.Fatal("cos ROM not marked half-wave")
	}
	var iters [][]int64
	for i := int64(0); i < 1024; i += 13 {
		iters = append(iters, []int64{i})
	}
	outs := simCombinational(t, res, iters)
	for i, in := range iters {
		want := int64(math.Round(32767 * math.Cos(2*math.Pi*float64(in[0])/1024)))
		if outs[i][0] != want {
			t.Fatalf("cos[%d] = %d, want %d", in[0], outs[i][0], want)
		}
	}
}

func TestArbitraryLUT(t *testing.T) {
	k := ArbitraryLUT()
	res, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var iters [][]int64
	for i := int64(0); i < 1024; i += 11 {
		iters = append(iters, []int64{i})
	}
	outs := simCombinational(t, res, iters)
	for i, in := range iters {
		x := in[0]
		want := cc.IntType{Bits: 16, Signed: true}.Wrap((x*x*37 + x*911 + 13) % 32768)
		if outs[i][0] != want {
			t.Fatalf("lut[%d] = %d, want %d", x, outs[i][0], want)
		}
	}
}

// runSystemKernel streams a looped kernel through the full Fig. 2 system
// and compares every output BRAM against the C interpreter.
func runSystemKernel(t *testing.T, k Kernel, inputs map[string][]int64, outputs []string) {
	t.Helper()
	res, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := netlist.NewSystem(res.Kernel, res.Datapath, netlist.Config{
		BusElems: k.BusElems,
		Scalars:  k.Scalars,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, vals := range inputs {
		if err := sys.LoadInput(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// Reference: C interpreter.
	file, err := cc.Parse(k.Source)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cc.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	ip := cc.NewInterp(info)
	for name, vals := range inputs {
		ip.SetArray(name, vals)
	}
	var args []int64
	if _, _, err := ip.Call(k.Func, args...); err != nil {
		t.Fatal(err)
	}
	for _, name := range outputs {
		got, err := sys.Output(name)
		if err != nil {
			t.Fatal(err)
		}
		want := ip.Arrays[name]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %s[%d] = %d, want %d", k.Name, name, i, got[i], want[i])
			}
		}
	}
}

func TestFIRSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	in := make([]int64, 64)
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	runSystemKernel(t, FIR(), map[string][]int64{"A": in}, []string{"C"})
}

func TestDCTSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := make([]int64, 64)
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	runSystemKernel(t, DCT(), map[string][]int64{"X": in}, []string{"Y"})
}

func TestWaveletSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	in := make([]int64, 32*32)
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	runSystemKernel(t, Wavelet(), map[string][]int64{"img": in},
		[]string{"LL", "LH", "HL", "HH"})
}

func TestDCTExploitsSymmetry(t *testing.T) {
	// The DCT data path must share butterfly terms: fewer multipliers
	// than the 64 a naive 8x8 matrix would need.
	res, err := DCT().Compile()
	if err != nil {
		t.Fatal(err)
	}
	muls := 0
	for _, op := range res.Datapath.Ops {
		if op.Instr.Op.String() == "mul" {
			muls++
		}
	}
	if muls > 24 {
		t.Errorf("DCT uses %d multipliers; symmetry should keep it <= 24", muls)
	}
}

// TestCorpus pins the corpus reader every tool shares: kernels named
// corpus_<file> in sorted file order, function k, the default options
// and a one-element bus; no .c file or no directory gives no kernels
// and no error.
func TestCorpus(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"b.c":        "int A[4]; int B[4]; void k() { int i; for (i = 0; i < 4; i++) { B[i] = A[i]; } }",
		"a.c":        "int X[4]; int Y[4]; void k() { int i; for (i = 0; i < 4; i++) { Y[i] = X[i] + 1; } }",
		"README.md":  "not a kernel",
		"c.c.orig":   "not a kernel either",
		"skipped.cc": "nor this",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ks, err := Corpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, k := range ks {
		names = append(names, k.Name)
		src := files[strings.TrimPrefix(k.Name, "corpus_")]
		if k.Source != src || k.Func != "k" || k.Options != core.DefaultOptions() || k.BusElems != 1 || k.Scalars != nil {
			t.Errorf("%s: got %+v", k.Name, k)
		}
		if _, err := k.Compile(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
	if want := []string{"corpus_a.c", "corpus_b.c"}; !slices.Equal(names, want) {
		t.Errorf("kernels %v, want %v", names, want)
	}

	for _, dir := range []string{"", t.TempDir(), filepath.Join(dir, "missing")} {
		if ks, err := Corpus(dir); ks != nil || err != nil {
			t.Errorf("Corpus(%q) = %d kernels, %v; want none and no error", dir, len(ks), err)
		}
	}
}
