package smartbuf

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"roccc/internal/hir"
)

// fir5 returns the FIR window config: 5-wide window, stride 1, on a
// 21-element array, 17 windows (the paper's Fig. 3).
func fir5(bus int) Config {
	return Config{
		Extent:    []int{5},
		MinOff:    []int{0},
		Stride:    []int{1},
		ArrayDims: []int{21},
		Origin:    []int{0},
		Windows:   []int{17},
		ElemBits:  8,
		BusElems:  bus,
		Taps:      [][]int64{{0}, {1}, {2}, {3}, {4}},
	}
}

func TestFIRWindows(t *testing.T) {
	b, err := New(fir5(1))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, 21)
	for i := range data {
		data[i] = int64(i * 3)
	}
	var got [][]int64
	i := 0
	for !b.Done() {
		if !b.WindowReady() {
			if i >= len(data) {
				t.Fatal("ran out of data before windows finished")
			}
			if err := b.Push(data[i : i+1]); err != nil {
				t.Fatal(err)
			}
			i++
			continue
		}
		w, err := b.PopWindow()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, w)
	}
	if len(got) != 17 {
		t.Fatalf("windows = %d, want 17", len(got))
	}
	for wi, w := range got {
		for ti := 0; ti < 5; ti++ {
			if w[ti] != data[wi+ti] {
				t.Errorf("window %d tap %d = %d, want %d", wi, ti, w[ti], data[wi+ti])
			}
		}
	}
	// The reuse property: 21 elements fetched for 17×5 = 85 tap reads.
	if b.Fetched() != 21 {
		t.Errorf("fetched = %d, want 21 (every element exactly once)", b.Fetched())
	}
}

func TestStride8Disjoint(t *testing.T) {
	// DCT-style: 8-wide disjoint windows over 64 elements.
	cfg := Config{
		Extent:    []int{8},
		MinOff:    []int{0},
		Stride:    []int{8},
		ArrayDims: []int{64},
		Origin:    []int{0},
		Windows:   []int{8},
		ElemBits:  8,
		BusElems:  8,
		Taps:      [][]int64{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}},
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, 64)
	for i := range data {
		data[i] = int64(i)
	}
	var wins [][]int64
	pos := 0
	for !b.Done() {
		if b.WindowReady() {
			w, err := b.PopWindow()
			if err != nil {
				t.Fatal(err)
			}
			wins = append(wins, w)
			continue
		}
		end := pos + 8
		if err := b.Push(data[pos:end]); err != nil {
			t.Fatal(err)
		}
		pos = end
	}
	if len(wins) != 8 {
		t.Fatalf("windows = %d, want 8", len(wins))
	}
	for wi, w := range wins {
		for ti := range w {
			if w[ti] != int64(wi*8+ti) {
				t.Errorf("window %d tap %d = %d", wi, ti, w[ti])
			}
		}
	}
}

func Test2DWindow(t *testing.T) {
	// 3x3 stencil over an 8x8 image, unit strides: 6x6 windows.
	cfg := Config{
		Extent:    []int{3, 3},
		MinOff:    []int{-1, -1},
		Stride:    []int{1, 1},
		ArrayDims: []int{8, 8},
		Origin:    []int{0, 0},
		Windows:   []int{6, 6},
		ElemBits:  8,
		BusElems:  1,
		Taps: [][]int64{
			{-1, -1}, {-1, 0}, {-1, 1},
			{0, -1}, {0, 0}, {0, 1},
			{1, -1}, {1, 0}, {1, 1},
		},
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, 64)
	for i := range data {
		data[i] = int64(i)
	}
	var wins [][]int64
	pos := 0
	for !b.Done() {
		if b.WindowReady() {
			w, err := b.PopWindow()
			if err != nil {
				t.Fatal(err)
			}
			wins = append(wins, w)
			continue
		}
		if pos >= len(data) {
			t.Fatal("data exhausted")
		}
		if err := b.Push(data[pos : pos+1]); err != nil {
			t.Fatal(err)
		}
		pos++
	}
	if len(wins) != 36 {
		t.Fatalf("windows = %d, want 36", len(wins))
	}
	// Window (r,c) origin is at (r,c); taps relative to (r+1,c+1).
	wi := 0
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			w := wins[wi]
			wi++
			ti := 0
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					want := int64((r+1+dr)*8 + (c + 1 + dc))
					if w[ti] != want {
						t.Errorf("window (%d,%d) tap (%d,%d) = %d, want %d", r, c, dr, dc, w[ti], want)
					}
					ti++
				}
			}
		}
	}
	if b.Fetched() != 64 {
		t.Errorf("fetched = %d, want 64", b.Fetched())
	}
}

func TestStorageBits(t *testing.T) {
	if got := fir5(1).StorageBits(); got != 40 {
		t.Errorf("1-D storage = %d bits, want 40", got)
	}
	cfg2 := Config{
		Extent: []int{3, 3}, MinOff: []int{0, 0}, Stride: []int{1, 1},
		ArrayDims: []int{16, 16}, Origin: []int{0, 0}, Windows: []int{14, 14},
		ElemBits: 8, BusElems: 1,
		Taps: [][]int64{{0, 0}},
	}
	// (3-1)*16 + 3 = 35 elements * 8 bits.
	if got := cfg2.StorageBits(); got != 35*8 {
		t.Errorf("2-D storage = %d bits, want %d", got, 35*8)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := fir5(1)
	bad.Windows = []int{18} // 0+17*1+5 = 22 > 21
	if _, err := New(bad); err == nil {
		t.Error("overrun not caught")
	}
	bad2 := fir5(1)
	bad2.Stride = []int{0}
	if _, err := New(bad2); err == nil {
		t.Error("zero stride not caught")
	}
	bad3 := fir5(0)
	if _, err := New(bad3); err == nil {
		t.Error("zero bus not caught")
	}
}

func TestConfigFor(t *testing.T) {
	// Build the FIR kernel and derive the config from its window.
	src := `
int A[21];
int C[17];
void fir() {
	int i;
	for (i = 0; i < 17; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`
	k := kernelOf(t, src, "fir")
	cfg, err := ConfigFor(k.Reads[0], &k.Nest, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Extent[0] != 5 || cfg.Stride[0] != 1 || cfg.Windows[0] != 17 || cfg.Origin[0] != 0 {
		t.Errorf("cfg = %+v", cfg)
	}
	if len(cfg.Taps) != 5 {
		t.Errorf("taps = %d", len(cfg.Taps))
	}
}

// Property: for random 1-D window shapes, streaming any data through the
// buffer reproduces exactly the windows that direct array slicing gives,
// with each element fetched once.
func TestWindowEquivalenceQuick(t *testing.T) {
	f := func(seed int64, extent8, stride8, wins8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		extent := int(extent8%6) + 1
		stride := int(stride8%4) + 1
		wins := int(wins8%10) + 1
		n := (wins-1)*stride + extent
		taps := make([][]int64, extent)
		for i := range taps {
			taps[i] = []int64{int64(i)}
		}
		cfg := Config{
			Extent: []int{extent}, MinOff: []int{0}, Stride: []int{stride},
			ArrayDims: []int{n}, Origin: []int{0}, Windows: []int{wins},
			ElemBits: 16, BusElems: 1, Taps: taps,
		}
		b, err := New(cfg)
		if err != nil {
			return false
		}
		data := make([]int64, n)
		for i := range data {
			data[i] = rng.Int63n(1000)
		}
		pos := 0
		var got [][]int64
		for !b.Done() {
			if b.WindowReady() {
				w, err := b.PopWindow()
				if err != nil {
					return false
				}
				got = append(got, w)
				continue
			}
			if pos >= n {
				return false
			}
			if b.Push(data[pos:pos+1]) != nil {
				return false
			}
			pos++
		}
		if len(got) != wins || b.Fetched() > n {
			return false
		}
		for wi, w := range got {
			for ti := 0; ti < extent; ti++ {
				if w[ti] != data[wi*stride+ti] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPopWindowIntoAndReset pins the allocation-free window export used
// by the netlist cycle loop: PopWindowInto fills a caller buffer of
// exactly Taps() elements (and rejects any other size), and Reset
// rewinds the buffer for an identical second pass over fresh data.
func TestPopWindowIntoAndReset(t *testing.T) {
	b, err := New(fir5(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PopWindowInto(make([]int64, 3)); err == nil {
		t.Error("undersized window buffer not rejected")
	}
	run := func(scale int64) [][]int64 {
		data := make([]int64, 21)
		for i := range data {
			data[i] = int64(i) * scale
		}
		win := make([]int64, b.Taps())
		var got [][]int64
		pos := 0
		for !b.Done() {
			if b.WindowReady() {
				if err := b.PopWindowInto(win); err != nil {
					t.Fatal(err)
				}
				cp := make([]int64, len(win))
				copy(cp, win)
				got = append(got, cp)
				continue
			}
			if err := b.Push(data[pos : pos+1]); err != nil {
				t.Fatal(err)
			}
			pos++
		}
		return got
	}
	first := run(3)
	if len(first) != 17 {
		t.Fatalf("windows = %d, want 17", len(first))
	}
	if b.Fetched() != 21 {
		t.Fatalf("fetched = %d, want 21 (each element once)", b.Fetched())
	}
	b.Reset()
	if b.Fetched() != 0 || b.Done() {
		t.Fatal("Reset did not rewind the buffer")
	}
	second := run(7)
	if len(second) != 17 {
		t.Fatalf("windows after Reset = %d, want 17", len(second))
	}
	for wi := range second {
		for ti := range second[wi] {
			want := int64(wi+ti) * 7
			if second[wi][ti] != want {
				t.Fatalf("window %d tap %d after Reset = %d, want %d", wi, ti, second[wi][ti], want)
			}
		}
	}
}

func kernelOf(t *testing.T, src, fn string) *hir.Kernel {
	t.Helper()
	p, f, err := hir.BuildFunc(src, fn)
	if err != nil {
		t.Fatal(err)
	}
	k, err := hir.ExtractKernel(p, f)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestKernelConfigs pins the one derivation: configurations are derived
// once per (kernel, bus) and shared, a kernel that does not stream gets
// none, and a rejected window's error is cached with them.
func TestKernelConfigs(t *testing.T) {
	k := kernelOf(t, `
int A[8][8];
int B[8][8];
void blur() {
	int i, j;
	for (i = 0; i < 7; i = i + 1)
		for (j = 0; j < 7; j = j + 1)
			B[i][j] = A[i][j] + A[i][j+1] + A[i+1][j] + A[i+1][j+1];
}
`, "blur")
	bus2, err := KernelConfigs(k, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bus2) != len(k.Reads) || len(bus2) == 0 {
		t.Fatalf("%d configs for %d read windows", len(bus2), len(k.Reads))
	}
	want, err := ConfigFor(k.Reads[0], &k.Nest, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bus2[0], want) {
		t.Errorf("KernelConfigs(k, 2)[0] = %+v, ConfigFor gives %+v", bus2[0], want)
	}
	again, err := KernelConfigs(k, 2)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &bus2[0] || &again[0].Taps[0] != &bus2[0].Taps[0] {
		t.Error("a second call at bus 2 derived the configurations again")
	}
	bus4, err := KernelConfigs(k, 4)
	if err != nil {
		t.Fatal(err)
	}
	if &bus4[0] == &bus2[0] || &bus4[0].Taps[0] == &bus2[0].Taps[0] || bus4[0].BusElems != 4 {
		t.Errorf("bus 4 shares bus 2's configurations (BusElems %d)", bus4[0].BusElems)
	}

	comb := kernelOf(t, `void add(int a, int b, int* o) { *o = a + b; }`, "add")
	if cfgs, err := KernelConfigs(comb, 1); cfgs != nil || err != nil {
		t.Errorf("combinational kernel: KernelConfigs = %v, %v; want nil, nil", cfgs, err)
	}

	// The window walks A by column while the nest walks it by row.
	bad := kernelOf(t, `
int A[8][8];
int B[8][8];
void transpose() {
	int i, j;
	for (i = 0; i < 8; i = i + 1)
		for (j = 0; j < 8; j = j + 1)
			B[i][j] = A[j][i];
}
`, "transpose")
	if _, want := ConfigFor(bad.Reads[0], &bad.Nest, 1); want == nil {
		t.Fatal("ConfigFor accepted a transposed window")
	}
	cfgs, first := KernelConfigs(bad, 1)
	if cfgs != nil || first == nil {
		t.Fatalf("transposed window: KernelConfigs = %v, %v; want nil and an error", cfgs, first)
	}
	for i := 0; i < 2; i++ {
		if _, err := KernelConfigs(bad, 1); err != first {
			t.Errorf("call %d: error %v, first call's was %v", i+2, err, first)
		}
	}
}
