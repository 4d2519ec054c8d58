// Package smartbuf implements the paper's smart buffer (§4.1, [18]):
// a compiler-generated input buffer that exploits sliding-window data
// reuse. "ROCCC ... uses the knowledge of memory access pattern from the
// input code ... to automatically generate an intelligent buffer, based
// on the bus size, window size, data size and sliding-window stride.
// This buffer unit is able to reuse live input data, clean unused data
// and export the present valid input data set to the data path."
//
// Every array element is fetched from memory exactly once; consecutive
// windows share all but stride-many elements per dimension.
package smartbuf

import (
	"fmt"
	"math/bits"
)

// Config describes one array's window access pattern, produced by scalar
// replacement (hir.Window) plus the physical parameters.
type Config struct {
	// Extent is the window size per indexed dimension (1 or 2 dims).
	Extent []int
	// MinOff is the smallest window offset per dimension (window taps
	// are addressed relative to it).
	MinOff []int
	// Stride is the window advance per iteration in the innermost
	// dimension (loop step × index scale) and per row for 2-D.
	Stride []int
	// ArrayDims are the full array bounds (elements per dimension).
	ArrayDims []int
	// Origin is the first window's top-left corner in array coordinates
	// (loop lower bound × scale + MinOff).
	Origin []int
	// Windows is the number of windows per dimension (the loop nest
	// trip counts).
	Windows []int
	// ElemBits is the data size in bits.
	ElemBits int
	// BusElems is how many elements arrive from memory per cycle
	// (bus size / data size).
	BusElems int
	// Taps are the window offsets (relative coordinates, row-major
	// order as produced by the front end) exported to the data path.
	Taps [][]int64
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	if len(c.Extent) == 0 || len(c.Extent) > 2 {
		return fmt.Errorf("smartbuf: %d-dimensional windows are not supported", len(c.Extent))
	}
	if len(c.Extent) != len(c.ArrayDims) || len(c.Extent) != len(c.Stride) ||
		len(c.Extent) != len(c.MinOff) || len(c.Extent) != len(c.Origin) ||
		len(c.Extent) != len(c.Windows) {
		return fmt.Errorf("smartbuf: dimension mismatch")
	}
	for d, e := range c.Extent {
		if e <= 0 || e > c.ArrayDims[d] {
			return fmt.Errorf("smartbuf: window extent %d exceeds array dimension %d", e, c.ArrayDims[d])
		}
		if c.Stride[d] <= 0 {
			return fmt.Errorf("smartbuf: non-positive stride")
		}
		if c.Windows[d] <= 0 {
			return fmt.Errorf("smartbuf: non-positive window count")
		}
		if c.Origin[d] < 0 {
			return fmt.Errorf("smartbuf: negative window origin (index underflow at the loop lower bound)")
		}
		last := c.Origin[d] + (c.Windows[d]-1)*c.Stride[d] + e
		if last > c.ArrayDims[d] {
			return fmt.Errorf("smartbuf: window sweep overruns array dimension %d (%d > %d)", d, last, c.ArrayDims[d])
		}
	}
	if c.ElemBits <= 0 || c.ElemBits > 64 {
		return fmt.Errorf("smartbuf: bad element size %d", c.ElemBits)
	}
	if c.BusElems <= 0 {
		return fmt.Errorf("smartbuf: bad bus width")
	}
	if len(c.Taps) == 0 {
		return fmt.Errorf("smartbuf: no window taps")
	}
	return nil
}

// StorageBits returns the register storage the buffer occupies: a 1-D
// window keeps the window extent; a 2-D window keeps (rows-1) line
// buffers plus one partial row — the structure a (5,3) wavelet engine
// uses (§5).
func (c Config) StorageBits() int {
	switch len(c.Extent) {
	case 1:
		return c.Extent[0] * c.ElemBits
	default:
		cols := c.ArrayDims[1]
		return ((c.Extent[0]-1)*cols + c.Extent[1]) * c.ElemBits
	}
}

// Buffer is a cycle-level behavioural model of the smart buffer. Push
// delivers up to BusElems elements per cycle in row-major streaming
// order; PopWindow yields consecutive windows as their last element
// arrives.
type Buffer struct {
	cfg Config
	// ring holds the most recent elements in streaming order. It is
	// allocated at the next power of two above the logical capacity so
	// streaming indices resolve with a mask instead of a modulo; cap is
	// the logical capacity — the storage the synthesized buffer actually
	// has (StorageBits) plus bus slack — and stays the eviction horizon
	// and CanAccept bound, so the physical slack never changes
	// backpressure timing.
	ring []int64
	mask int
	cap  int
	// tapOff[i] is Taps[i] flattened to a streaming-index offset from
	// the window origin, so the pop loop adds one int per tap instead of
	// chasing per-tap coordinate slices.
	tapOff []int
	count  int // total elements pushed
	// win is the next window's origin in array coordinates; popped is
	// the per-dimension count of windows already produced.
	win    []int
	popped []int
}

// New builds a buffer; the config must validate.
func New(cfg Config) (*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cap := cfg.capacity()
	b := &Buffer{
		cfg:    cfg,
		ring:   make([]int64, 1<<bits.Len(uint(cap-1))),
		cap:    cap,
		win:    make([]int, len(cfg.Extent)),
		popped: make([]int, len(cfg.Extent)),
	}
	b.mask = len(b.ring) - 1
	copy(b.win, cfg.Origin)
	b.tapOff = make([]int, len(cfg.Taps))
	for i, tap := range cfg.Taps {
		if len(cfg.Extent) == 1 {
			b.tapOff[i] = int(tap[0]) - cfg.MinOff[0]
		} else {
			b.tapOff[i] = (int(tap[0])-cfg.MinOff[0])*cfg.ArrayDims[1] + int(tap[1]) - cfg.MinOff[1]
		}
	}
	return b, nil
}

// capacity is the number of live elements the buffer must retain.
func (c Config) capacity() int {
	if len(c.Extent) == 1 {
		// Extra slack for bus-granular arrival.
		return c.Extent[0] + c.BusElems
	}
	return (c.Extent[0]-1)*c.ArrayDims[1] + c.Extent[1] + c.BusElems
}

// Fetched returns how many elements have been pushed (for the
// fetch-once property): every pushed element is a fetch, so the push
// count is the fetch count.
func (b *Buffer) Fetched() int { return b.count }

// minNeededIndex is a lower bound on the oldest element index the next
// window still references.
func (b *Buffer) minNeededIndex() int {
	if b.done() {
		return b.count
	}
	return b.NextOrigin()
}

// NextOrigin returns the streaming index of the next window's origin,
// its top-left element: tap t of that window is the element at
// NextOrigin()+TapOffsets()[t].
func (b *Buffer) NextOrigin() int {
	if len(b.cfg.Extent) == 1 {
		return b.win[0]
	}
	return b.win[0]*b.cfg.ArrayDims[1] + b.win[1]
}

// TapOffsets returns the window taps flattened to streaming-index
// offsets from the window origin, in cfg.Taps order. The slice is the
// buffer's own: callers must not modify it.
func (b *Buffer) TapOffsets() []int { return b.tapOff }

// CanAccept reports whether a full bus word can be pushed without
// evicting data the next window still needs — the buffer's backpressure
// signal to the read address generator.
//
//roccc:hotpath
func (b *Buffer) CanAccept() bool {
	return b.count+b.cfg.BusElems-b.minNeededIndex() <= b.cap
}

// Push delivers the next elems (<= BusElems) in streaming order.
//
//roccc:hotpath
func (b *Buffer) Push(elems []int64) error {
	if len(elems) > b.cfg.BusElems {
		return fmt.Errorf("smartbuf: push of %d elements exceeds bus width %d", len(elems), b.cfg.BusElems)
	}
	for _, v := range elems {
		b.ring[b.count&b.mask] = v
		b.count++
	}
	return nil
}

// at reads the element with streaming index i (global element order).
func (b *Buffer) at(i int) (int64, error) {
	if i >= b.count {
		return 0, fmt.Errorf("smartbuf: element %d not yet arrived (count %d)", i, b.count)
	}
	if b.count-i > b.cap {
		return 0, fmt.Errorf("smartbuf: element %d already evicted (reuse distance exceeded)", i)
	}
	return b.ring[i&b.mask], nil
}

// WindowReady reports whether the next window's last element has
// arrived.
//
//roccc:hotpath
func (b *Buffer) WindowReady() bool {
	need := b.lastIndexOfWindow() + 1
	return need <= b.count && !b.done()
}

func (b *Buffer) done() bool {
	return b.popped[0] >= b.cfg.Windows[0]
}

// Done reports whether every window has been produced.
func (b *Buffer) Done() bool { return b.done() }

// lastIndexOfWindow returns the streaming index of the bottom-right
// element of the next window.
func (b *Buffer) lastIndexOfWindow() int {
	switch len(b.cfg.Extent) {
	case 1:
		return b.win[0] + b.cfg.Extent[0] - 1
	default:
		r := b.win[0] + b.cfg.Extent[0] - 1
		c := b.win[1] + b.cfg.Extent[1] - 1
		return r*b.cfg.ArrayDims[1] + c
	}
}

// PopWindow exports the current window's taps (in cfg.Taps order) and
// slides the window by the stride: innermost dimension first, wrapping
// to the next row-strip for 2-D patterns.
func (b *Buffer) PopWindow() ([]int64, error) {
	out := make([]int64, len(b.cfg.Taps))
	if err := b.PopWindowInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// PopWindowInto is PopWindow writing into a caller-provided buffer of
// exactly len(cfg.Taps) elements, so a cycle loop popping one window per
// clock does not allocate.
//
// The tap reads skip at()'s per-element checks: WindowReady guarantees
// every tap has arrived (all taps lie at or before the window's last
// element), and no tap can be evicted — taps lie at or after the window
// origin, and the push-side CanAccept invariant keeps
// count <= cap + origin at all times.
//
//roccc:hotpath
func (b *Buffer) PopWindowInto(out []int64) error {
	if len(out) != len(b.cfg.Taps) {
		return fmt.Errorf("smartbuf: window buffer holds %d elements, want %d taps", len(out), len(b.cfg.Taps))
	}
	if !b.WindowReady() {
		return fmt.Errorf("smartbuf: window not ready")
	}
	ring, mask := b.ring, b.mask
	base := b.NextOrigin()
	for i, off := range b.tapOff {
		out[i] = ring[(base+off)&mask]
	}
	b.slide()
	return nil
}

// slide advances the window by the stride: innermost dimension first,
// wrapping to the next row strip for 2-D patterns.
//
//roccc:hotpath
func (b *Buffer) slide() {
	last := len(b.cfg.Extent) - 1
	b.popped[last]++
	b.win[last] += b.cfg.Stride[last]
	if last == 1 && b.popped[1] >= b.cfg.Windows[1] {
		b.popped[1] = 0
		b.win[1] = b.cfg.Origin[1]
		b.popped[0]++
		b.win[0] += b.cfg.Stride[0]
	}
}

// PopWindowRouted is PopWindowInto with the tap→destination routing
// fused in: tap t lands at out[route[t]], taps routed negative are
// dropped. Cycle loops that would otherwise pop into a scratch window
// and re-copy through a routing table (the netlist feed stage) save the
// intermediate buffer entirely.
//
//roccc:hotpath
func (b *Buffer) PopWindowRouted(out []int64, route []int32) error {
	if len(route) != len(b.tapOff) {
		return fmt.Errorf("smartbuf: routing table holds %d entries, want %d taps", len(route), len(b.tapOff))
	}
	if !b.WindowReady() {
		return fmt.Errorf("smartbuf: window not ready")
	}
	ring, mask := b.ring, b.mask
	base := b.NextOrigin()
	for i, off := range b.tapOff {
		if d := route[i]; d >= 0 {
			out[d] = ring[(base+off)&mask]
		}
	}
	b.slide()
	return nil
}

// Taps returns the number of window taps a popped window exports — the
// required length of a PopWindowInto destination buffer.
func (b *Buffer) Taps() int { return len(b.cfg.Taps) }

// stripRemaining is how many windows are left in the innermost sweep
// dimension before the window walk wraps to the next row strip (for 1-D
// patterns, before the walk ends). Within a strip the window's last
// element advances by exactly the innermost stride per pop; at the strip
// boundary it jumps by whole array rows, so streak reasoning stops there.
func (b *Buffer) stripRemaining() int {
	last := len(b.cfg.Extent) - 1
	return b.cfg.Windows[last] - b.popped[last]
}

// WindowsBuffered reports how many consecutive windows, starting with
// the next one, are already fully resident — poppable now, with no
// further Push required. It is O(1): within a row strip the window's
// last streaming index advances by the innermost stride per pop, so the
// resident count is a division, capped at the strip boundary (the first
// window of the next strip needs whole new array rows). The count is a
// guaranteed-feed lower bound regardless of how memory-stage pushes
// interleave: resident data is never evicted while a window still
// references it (CanAccept backpressure).
func (b *Buffer) WindowsBuffered() int {
	if !b.WindowReady() {
		return 0
	}
	stride := b.cfg.Stride[len(b.cfg.Extent)-1]
	k := (b.count-1-b.lastIndexOfWindow())/stride + 1
	if strip := b.stripRemaining(); k > strip {
		k = strip
	}
	return k
}

// StallStreak returns, for a buffer whose next window is NOT ready, the
// exact number of consecutive cycles the window stays unready under the
// serial memory-stage schedule (one bus word per cycle): the cycles a
// stalled system spends filling. It is O(1): the missing element count
// divided by the bus width. Backpressure cannot block a fill — pushes
// are admitted exactly until the pending window's last element arrives
// (capacity() is the window span plus one bus word) — and a validated
// window sweep never needs elements past the array, so the generator
// cannot run dry first. Returns 0 if the window is already ready (or
// all windows are done: the caller's controller is draining then).
func (b *Buffer) StallStreak() int {
	if b.done() {
		return 0
	}
	missing := b.lastIndexOfWindow() + 1 - b.count
	if missing <= 0 {
		return 0
	}
	return (missing + b.cfg.BusElems - 1) / b.cfg.BusElems
}

// FeedStreak returns a safe lower bound on the number of consecutive
// cycles, starting now, for which WindowReady holds every cycle under
// the serial memory-stage schedule — at most one bus word pushed per
// cycle while CanAccept allows it (push before pop, as the system cycle
// orders them), one window popped per cycle — capped at max. The caller
// must have run the current cycle's push already: the bound counts this
// cycle's window as streak position zero.
//
// The bound is O(1). Within a row strip the requirement (the window's
// last streaming index) grows by the innermost stride S per cycle while
// the supply grows by up to BusElems B per cycle, so:
//
//   - S <= B: supply never falls behind. If a push is ever blocked by
//     backpressure, the buffer is holding a full window span plus a bus
//     word (capacity() is exactly that), which already contains the
//     cycle's window — blocked implies ready. The streak runs to the end
//     of the strip.
//   - S > B: consumption outruns the bus. Backpressure cannot re-arm
//     mid-streak (the gap between supply and the window origin only
//     widens), so if the next push is unblocked the supply is exactly
//     count + i*B and the streak length is the largest k with
//     lastIndex + i*S < count + i*B for all i < k. If the next push IS
//     blocked, fall back to the windows already resident — always safe.
//
// Cycles beyond the array's last element need no supply at all: the
// validated window sweep never references past the array, so the
// min(T, ...) clamp on supply can only relax the bound.
func (b *Buffer) FeedStreak(max int) int {
	if max <= 0 || !b.WindowReady() {
		return 0
	}
	stride := b.cfg.Stride[len(b.cfg.Extent)-1]
	k := b.stripRemaining()
	if stride > b.cfg.BusElems {
		if !b.CanAccept() {
			k = b.WindowsBuffered()
		} else if supply := (b.count - 1 - b.lastIndexOfWindow()) / (stride - b.cfg.BusElems); supply+1 < k {
			k = supply + 1
		}
	}
	if k > max {
		k = max
	}
	return k
}

// Reset empties the buffer and rewinds the window walk to the first
// window, without allocating, so one buffer can be reused across runs.
func (b *Buffer) Reset() {
	b.count = 0
	copy(b.win, b.cfg.Origin)
	for i := range b.popped {
		b.popped[i] = 0
	}
}

// WindowsTotal returns how many windows the configuration produces.
func (c Config) WindowsTotal() int {
	n := 1
	for d := range c.Extent {
		n *= c.Windows[d]
	}
	return n
}
