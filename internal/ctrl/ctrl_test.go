package ctrl

import (
	"testing"

	"roccc/internal/hir"
)

func TestReadGenSequential(t *testing.T) {
	g := NewReadGen(10, 3)
	var got []int
	for !g.Done() {
		got = append(got, g.Next()...)
	}
	if len(got) != 10 {
		t.Fatalf("issued %d addresses, want 10", len(got))
	}
	for i, a := range got {
		if a != i {
			t.Errorf("address %d = %d", i, a)
		}
	}
	if g.Next() != nil {
		t.Error("Next after done must return nil")
	}
	g.Reset()
	if g.Done() {
		t.Error("reset generator reports done")
	}
}

func TestReadGenBusBatches(t *testing.T) {
	g := NewReadGen(8, 4)
	if n := len(g.Next()); n != 4 {
		t.Errorf("first batch = %d", n)
	}
	if n := len(g.Next()); n != 4 {
		t.Errorf("second batch = %d", n)
	}
	if !g.Done() {
		t.Error("not done after 8 addresses")
	}
}

func nest1D(iv *hir.Var, from, to, step int64) *hir.LoopNest {
	return &hir.LoopNest{
		Vars: []*hir.Var{iv},
		From: []int64{from},
		To:   []int64{to},
		Step: []int64{step},
	}
}

func TestWriteGen1D(t *testing.T) {
	iv := &hir.Var{Name: "i", Kind: hir.VarLoop}
	arr := &hir.Array{Name: "C", Dims: []int{20}}
	acc := &hir.WriteAccess{
		Arr:  arr,
		Dims: []hir.WindowDim{{Var: iv, Scale: 1}},
		Elems: []hir.WindowElem{
			{Offsets: []int64{0}, Elem: &hir.Var{Name: "t0"}},
		},
	}
	g, err := NewWriteGen(acc, nest1D(iv, 0, 17, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ {
		addrs := g.Next()
		if len(addrs) != 1 || addrs[0] != i {
			t.Fatalf("iteration %d: addrs = %v", i, addrs)
		}
	}
	if !g.Done() || g.Next() != nil {
		t.Error("generator not exhausted after the nest")
	}
}

func TestWriteGenStride8(t *testing.T) {
	iv := &hir.Var{Name: "i", Kind: hir.VarLoop}
	arr := &hir.Array{Name: "Y", Dims: []int{64}}
	elems := make([]hir.WindowElem, 8)
	for k := range elems {
		elems[k] = hir.WindowElem{Offsets: []int64{int64(k)}, Elem: &hir.Var{Name: "t"}}
	}
	acc := &hir.WriteAccess{Arr: arr, Dims: []hir.WindowDim{{Var: iv, Scale: 1}}, Elems: elems}
	g, err := NewWriteGen(acc, nest1D(iv, 0, 64, 8))
	if err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 8; blk++ {
		addrs := g.Next()
		for k, a := range addrs {
			if a != blk*8+k {
				t.Fatalf("block %d elem %d: addr %d", blk, k, a)
			}
		}
	}
	if !g.Done() {
		t.Error("not done")
	}
}

func TestWriteGen2D(t *testing.T) {
	i := &hir.Var{Name: "i", Kind: hir.VarLoop}
	j := &hir.Var{Name: "j", Kind: hir.VarLoop}
	nest := &hir.LoopNest{
		Vars: []*hir.Var{i, j},
		From: []int64{0, 0},
		To:   []int64{3, 4},
		Step: []int64{1, 1},
	}
	arr := &hir.Array{Name: "out", Dims: []int{3, 4}}
	acc := &hir.WriteAccess{
		Arr:  arr,
		Dims: []hir.WindowDim{{Var: i, Scale: 1}, {Var: j, Scale: 1}},
		Elems: []hir.WindowElem{
			{Offsets: []int64{0, 0}, Elem: &hir.Var{Name: "t"}},
		},
	}
	g, err := NewWriteGen(acc, nest)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for !g.Done() {
		addrs := g.Next()
		if addrs == nil {
			break
		}
		if addrs[0] != want {
			t.Fatalf("addr = %d, want %d (row-major order)", addrs[0], want)
		}
		want++
	}
	if want != 12 {
		t.Errorf("iterations = %d, want 12", want)
	}
}

func TestWriteGenScaled(t *testing.T) {
	// wavelet-style: out[i][j] with stride-2 scale on a nest over 14x14.
	i := &hir.Var{Name: "i", Kind: hir.VarLoop}
	arr := &hir.Array{Name: "LL", Dims: []int{14}}
	acc := &hir.WriteAccess{
		Arr:   arr,
		Dims:  []hir.WindowDim{{Var: i, Scale: 1}},
		Elems: []hir.WindowElem{{Offsets: []int64{0}, Elem: &hir.Var{Name: "t"}}},
	}
	g, err := NewWriteGen(acc, nest1D(i, 0, 14, 1))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for !g.Done() {
		if g.Next() == nil {
			break
		}
		n++
	}
	if n != 14 {
		t.Errorf("n = %d", n)
	}
}

func TestWriteGenRejectsUnknownVar(t *testing.T) {
	iv := &hir.Var{Name: "i", Kind: hir.VarLoop}
	other := &hir.Var{Name: "x"}
	arr := &hir.Array{Name: "C", Dims: []int{8}}
	acc := &hir.WriteAccess{
		Arr:   arr,
		Dims:  []hir.WindowDim{{Var: other, Scale: 1}},
		Elems: []hir.WindowElem{{Offsets: []int64{0}, Elem: &hir.Var{Name: "t"}}},
	}
	if _, err := NewWriteGen(acc, nest1D(iv, 0, 8, 1)); err == nil {
		t.Error("unknown index variable not rejected")
	}
}

func TestControllerFSM(t *testing.T) {
	c := NewController(3, 2)
	if c.StateNow() != Idle {
		t.Error("controller must start idle")
	}
	// Window not ready: fill, no feed.
	if c.Tick(false) {
		t.Error("fed without a ready window")
	}
	if c.StateNow() != Fill {
		t.Errorf("state = %s, want fill", c.StateNow())
	}
	// Feed three iterations.
	for i := 0; i < 3; i++ {
		if !c.Tick(true) {
			t.Fatalf("iteration %d not fed", i)
		}
	}
	if c.Fed() != 3 {
		t.Errorf("fed = %d", c.Fed())
	}
	// No more feeds.
	if c.Tick(true) {
		t.Error("fed beyond the iteration count")
	}
	if c.StateNow() != Drain {
		t.Errorf("state = %s, want drain", c.StateNow())
	}
	for i := 0; i < 3; i++ {
		c.Collect()
	}
	if !c.Finished() {
		t.Errorf("state = %s, want done", c.StateNow())
	}
}

func TestControllerStateStrings(t *testing.T) {
	for _, s := range []State{Idle, Fill, Stream, Drain, DoneSt} {
		if s.String() == "?" {
			t.Errorf("state %d has no name", s)
		}
	}
}

// TestGeneratorResetAndNextInto pins the reuse surface the netlist
// cycle loop depends on: NextInto fills caller buffers without
// allocating, and Reset rewinds both generator kinds and the controller
// for an identical second run.
func TestGeneratorResetAndNextInto(t *testing.T) {
	rg := NewReadGen(7, 3)
	buf := make([]int, 3)
	var got []int
	for {
		batch := rg.NextInto(buf)
		if batch == nil {
			break
		}
		got = append(got, batch...)
	}
	if len(got) != 7 {
		t.Fatalf("issued %d addresses, want 7", len(got))
	}

	iv := &hir.Var{Name: "i", Kind: hir.VarLoop}
	arr := &hir.Array{Name: "C", Dims: []int{8}}
	acc := &hir.WriteAccess{
		Arr:   arr,
		Dims:  []hir.WindowDim{{Var: iv, Scale: 1}},
		Elems: []hir.WindowElem{{Offsets: []int64{0}, Elem: &hir.Var{Name: "t"}}},
	}
	wg, err := NewWriteGen(acc, nest1D(iv, 0, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	collect := func() []int {
		dst := make([]int, 1)
		var addrs []int
		for {
			a := wg.NextInto(dst)
			if a == nil {
				break
			}
			addrs = append(addrs, a[0])
		}
		return addrs
	}
	first := collect()
	if len(first) != 8 || !wg.Done() {
		t.Fatalf("first pass: %v", first)
	}
	wg.Reset()
	if wg.Done() {
		t.Fatal("Reset generator reports done")
	}
	second := collect()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("address %d after Reset = %d, want %d", i, second[i], first[i])
		}
	}

	c := NewController(2, 1)
	c.Tick(true)
	c.Tick(true)
	c.Collect()
	c.Collect()
	if !c.Finished() {
		t.Fatal("controller not finished")
	}
	c.Reset()
	if c.StateNow() != Idle || c.Fed() != 0 || c.Collected() != 0 || c.Finished() {
		t.Fatal("controller Reset did not return to idle")
	}
}

// TestTickFeedN pins Tick's feed-to-Drain edge: from 0, 1 and 5 of 8
// iterations already fed, every feed before the last leaves the FSM
// streaming, the last one moves it to Drain, and a draining FSM refuses
// further feeds, ready window or not, without admitting any.
func TestTickFeedN(t *testing.T) {
	const total = 8
	for _, pre := range []int{0, 1, 5} {
		c := NewController(total, 2)
		for i := 0; i < pre; i++ {
			c.Tick(true)
		}
		if c.Fed() != pre {
			t.Fatalf("pre=%d: fed %d", pre, c.Fed())
		}
		for c.Fed() < total {
			if !c.Tick(true) {
				t.Fatalf("pre=%d: Tick refused feed %d of %d", pre, c.Fed()+1, total)
			}
			want := Stream
			if c.Fed() == total {
				want = Drain
			}
			if c.StateNow() != want {
				t.Fatalf("pre=%d: state %s after feed %d, want %s", pre, c.StateNow(), c.Fed(), want)
			}
		}
		for _, ready := range []bool{true, false} {
			if c.Tick(ready) {
				t.Fatalf("pre=%d: a draining FSM fed (window ready %v)", pre, ready)
			}
			if c.Fed() != total || c.StateNow() != Drain {
				t.Fatalf("pre=%d: refused feed left fed %d, state %s", pre, c.Fed(), c.StateNow())
			}
		}
	}
}

// TestReadGenNextRange pins the ranged form against NextInto: the same
// consecutive addresses, the same exhaustion point.
func TestReadGenNextRange(t *testing.T) {
	a := NewReadGen(10, 4)
	b := NewReadGen(10, 4)
	buf := make([]int, 4)
	for {
		addrs := a.NextInto(buf)
		start, n := b.NextRange()
		if (addrs == nil) != (n == 0) {
			t.Fatalf("exhaustion mismatch: addrs=%v n=%d", addrs, n)
		}
		if addrs == nil {
			break
		}
		if len(addrs) != n || addrs[0] != start {
			t.Fatalf("NextInto %v vs NextRange (%d,%d)", addrs, start, n)
		}
	}
	if !b.Done() {
		t.Error("ranged generator not done")
	}
}

// TestWriteGenFastPathParity drives the compiled depth-1 fast path and
// a shadow generator forced through the generic loop over the same
// access pattern; every address batch must match.
func TestWriteGenFastPathParity(t *testing.T) {
	i := &hir.Var{Name: "i", Kind: hir.VarLoop}
	arr := &hir.Array{Name: "C", Dims: []int{40}}
	acc := &hir.WriteAccess{
		Arr:  arr,
		Dims: []hir.WindowDim{{Var: i, Scale: 2}},
		Elems: []hir.WindowElem{
			{Offsets: []int64{0}, Elem: &hir.Var{Name: "t0"}},
			{Offsets: []int64{1}, Elem: &hir.Var{Name: "t1"}},
		},
	}
	nest := nest1D(i, 1, 37, 2)
	fast, err := NewWriteGen(acc, nest)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.fast {
		t.Fatal("depth-1 single-dim access did not compile the fast path")
	}
	slow, err := NewWriteGen(acc, nest)
	if err != nil {
		t.Fatal(err)
	}
	slow.fast = false
	fb, sb := make([]int, 2), make([]int, 2)
	for step := 0; ; step++ {
		fa := fast.NextInto(fb)
		sa := slow.NextInto(sb)
		if (fa == nil) != (sa == nil) {
			t.Fatalf("step %d: exhaustion mismatch", step)
		}
		if fa == nil {
			break
		}
		for ei := range fa {
			if fa[ei] != sa[ei] {
				t.Fatalf("step %d elem %d: fast %d, generic %d", step, ei, fa[ei], sa[ei])
			}
		}
	}
	if fast.Done() != slow.Done() {
		t.Error("done mismatch")
	}
}
