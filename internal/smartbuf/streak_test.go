package smartbuf

import (
	"math/rand"
	"testing"
)

// streak_test.go drives buffers exactly as the system's memory stage
// drives them (one bus word pushed per cycle while CanAccept, push
// before pop) over random geometries, and checks the accessors the
// static memory schedule reads against what each pop returns.

// randomGeometry builds a valid random 1-D or 2-D window configuration.
func randomGeometry(rng *rand.Rand) Config {
	if rng.Intn(2) == 0 {
		s := 1 + rng.Intn(4)
		e := 1 + rng.Intn(5)
		w := 1 + rng.Intn(20)
		o := rng.Intn(3)
		taps := make([][]int64, e)
		for i := range taps {
			taps[i] = []int64{int64(i)}
		}
		return Config{
			Extent:    []int{e},
			MinOff:    []int{0},
			Stride:    []int{s},
			ArrayDims: []int{o + (w-1)*s + e + rng.Intn(4)},
			Origin:    []int{o},
			Windows:   []int{w},
			ElemBits:  16,
			BusElems:  1 + rng.Intn(4),
			Taps:      taps,
		}
	}
	e0, e1 := 1+rng.Intn(3), 1+rng.Intn(3)
	s0, s1 := 1+rng.Intn(2), 1+rng.Intn(3)
	w0, w1 := 1+rng.Intn(4), 1+rng.Intn(6)
	var taps [][]int64
	for r := 0; r < e0; r++ {
		for c := 0; c < e1; c++ {
			taps = append(taps, []int64{int64(r), int64(c)})
		}
	}
	return Config{
		Extent:    []int{e0, e1},
		MinOff:    []int{0, 0},
		Stride:    []int{s0, s1},
		ArrayDims: []int{(w0-1)*s0 + e0 + rng.Intn(2), (w1-1)*s1 + e1 + rng.Intn(3)},
		Origin:    []int{0, 0},
		Windows:   []int{w0, w1},
		ElemBits:  16,
		BusElems:  1 + rng.Intn(4),
		Taps:      taps,
	}
}

// windowOrigin is the streaming index of window w's origin, counting
// windows in row-major order, derived from the configuration alone.
func windowOrigin(cfg Config, w int) int {
	if len(cfg.Extent) == 1 {
		return cfg.Origin[0] + w*cfg.Stride[0]
	}
	r := cfg.Origin[0] + w/cfg.Windows[1]*cfg.Stride[0]
	c := cfg.Origin[1] + w%cfg.Windows[1]*cfg.Stride[1]
	return r*cfg.ArrayDims[1] + c
}

// tapOffset is tap t flattened to a streaming-index offset from its
// window's origin, derived from the configuration alone.
func tapOffset(cfg Config, t int) int {
	tap := cfg.Taps[t]
	if len(cfg.Extent) == 1 {
		return int(tap[0]) - cfg.MinOff[0]
	}
	return (int(tap[0])-cfg.MinOff[0])*cfg.ArrayDims[1] + int(tap[1]) - cfg.MinOff[1]
}

// TestStreakPredictorsAgainstOracle checks NextOrigin and TapOffsets,
// the two accessors the static memory schedule reads, on every pop of
// 300 random 1-D and 2-D geometries at bus widths 1–4. Read before the
// pop, they must equal the window's origin and tap offsets as the
// configuration defines them, and tap t of the popped window must be
// the streamed element at NextOrigin() + TapOffsets()[t]. Every run
// must finish, fetching each element at most once.
func TestStreakPredictorsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	for trial := 0; trial < 300; trial++ {
		cfg := randomGeometry(rng)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: invalid geometry: %v\n%+v", trial, err, cfg)
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := 1
		for _, d := range cfg.ArrayDims {
			total *= d
		}
		data := make([]int64, total)
		for i := range data {
			data[i] = rng.Int63n(1 << 20)
		}
		pos := 0
		push := func() {
			if pos >= total || !b.CanAccept() {
				return
			}
			n := cfg.BusElems
			if pos+n > total {
				n = total - pos
			}
			if err := b.Push(data[pos : pos+n]); err != nil {
				t.Fatal(err)
			}
			pos += n
		}
		if offs := b.TapOffsets(); len(offs) != len(cfg.Taps) {
			t.Fatalf("trial %d: %d tap offsets for %d taps", trial, len(offs), len(cfg.Taps))
		}
		out := make([]int64, len(cfg.Taps))
		pops := 0
		for cycle := 0; !b.Done(); cycle++ {
			if cycle > 8*total+64 {
				t.Fatalf("trial %d: runaway oracle\n%+v", trial, cfg)
			}
			push()
			if !b.WindowReady() {
				continue
			}
			origin, offs := b.NextOrigin(), b.TapOffsets()
			if want := windowOrigin(cfg, pops); origin != want {
				t.Fatalf("trial %d window %d: NextOrigin() = %d, want %d\n%+v", trial, pops, origin, want, cfg)
			}
			for tap, off := range offs {
				if want := tapOffset(cfg, tap); off != want {
					t.Fatalf("trial %d window %d: TapOffsets()[%d] = %d, want %d\n%+v", trial, pops, tap, off, want, cfg)
				}
			}
			if err := b.PopWindowInto(out); err != nil {
				t.Fatal(err)
			}
			for tap, off := range offs {
				if i := origin + off; i < 0 || i >= total || out[tap] != data[i] {
					t.Fatalf("trial %d window %d tap %d: popped %d, want element %d+%d of the stream\n%+v",
						trial, pops, tap, out[tap], origin, off, cfg)
				}
			}
			pops++
		}
		if pops != cfg.WindowsTotal() {
			t.Fatalf("trial %d: %d windows popped, want %d", trial, pops, cfg.WindowsTotal())
		}
		if b.Fetched() > total {
			t.Fatalf("trial %d: fetched %d of %d elements", trial, b.Fetched(), total)
		}
	}
}

// TestPopWindowRouted pins the routed pop against PopWindowInto plus a
// hand-applied routing table, including a dropped (-1) tap.
func TestPopWindowRouted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cfg := randomGeometry(rng)
		b1, _ := New(cfg)
		b2, _ := New(cfg)
		total := 1
		for _, d := range cfg.ArrayDims {
			total *= d
		}
		data := make([]int64, total)
		for i := range data {
			data[i] = rng.Int63n(1 << 20)
		}
		route := make([]int32, len(cfg.Taps))
		width := len(cfg.Taps) + 2
		perm := rng.Perm(width)
		for i := range route {
			route[i] = int32(perm[i])
		}
		drop := -1
		if len(route) > 1 {
			drop = rng.Intn(len(route))
			route[drop] = -1
		}
		pos := 0
		win := make([]int64, len(cfg.Taps))
		routed := make([]int64, width)
		for !b1.Done() {
			if pos < total && b1.CanAccept() {
				n := cfg.BusElems
				if pos+n > total {
					n = total - pos
				}
				b1.Push(data[pos : pos+n])
				b2.Push(data[pos : pos+n])
				pos += n
			}
			if !b1.WindowReady() {
				continue
			}
			if err := b1.PopWindowInto(win); err != nil {
				t.Fatal(err)
			}
			for i := range routed {
				routed[i] = -999
			}
			if err := b2.PopWindowRouted(routed, route); err != nil {
				t.Fatal(err)
			}
			for i, d := range route {
				if i == drop {
					continue
				}
				if routed[d] != win[i] {
					t.Fatalf("trial %d: routed[%d] = %d, want tap %d = %d", trial, d, routed[d], i, win[i])
				}
			}
			if drop >= 0 {
				used := map[int32]bool{}
				for i, d := range route {
					if i != drop {
						used[d] = true
					}
				}
				for i := range routed {
					if !used[int32(i)] && routed[i] != -999 {
						t.Fatalf("trial %d: dropped tap wrote slot %d", trial, i)
					}
				}
			}
		}
	}
}

func TestPopWindowRoutedBadTable(t *testing.T) {
	b, err := New(fir5(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PopWindowRouted(make([]int64, 5), make([]int32, 3)); err == nil {
		t.Fatal("short routing table not rejected")
	}
}
