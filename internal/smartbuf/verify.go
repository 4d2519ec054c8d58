package smartbuf

// verify.go is the smart-buffer slice of the static invariant verifier
// (internal/dpverify, cmd/rocccvet). The buffer's logical capacity must
// be EXACTLY the window span plus one bus word. It is the bound of
// CanAccept, the backpressure the serial memory stage
// (netlist.System.memoryStage) checks before every fetch: with span+B a
// blocked push implies the pending window is fully resident, and no
// fetch runs further ahead than that. A smaller capacity delays or
// blocks fetches the pending window needs; a larger one fetches ahead.
// Either moves the cycles on which windows become ready, and with them
// every System.Cycles() and the static memory schedule derived from
// that loop. This pass re-derives the capacity from the configuration
// geometry and checks it against what New actually allocated.

import "fmt"

// VerifyBuffer statically checks a constructed buffer against the
// capacity contract and its derived storage layout. It returns one
// error string per violated invariant, each prefixed with a stable
// invariant slug; an empty slice means the buffer is sound.
func VerifyBuffer(b *Buffer) []string {
	var vs []string
	c := b.cfg
	if err := c.Validate(); err != nil {
		vs = append(vs, fmt.Sprintf("buffer/config: %v", err))
		return vs
	}
	// Independent span re-derivation: the pending window's last
	// streaming index minus its first, plus one — the live range a
	// window pins — then one bus word of arrival slack. For 1-D windows
	// that is Extent+B; for 2-D the window spans Extent[0]-1 whole array
	// rows plus Extent[1] elements of the last row.
	span := 0
	switch len(c.Extent) {
	case 1:
		span = c.Extent[0]
	case 2:
		span = (c.Extent[0]-1)*c.ArrayDims[1] + c.Extent[1]
	default:
		vs = append(vs, fmt.Sprintf("buffer/config: %d-dimensional window survived Validate", len(c.Extent)))
		return vs
	}
	want := span + c.BusElems
	if b.cap != want {
		vs = append(vs, fmt.Sprintf(
			"buffer/capacity: logical capacity %d, want window span %d + bus word %d = %d (the serial memory stage's CanAccept backpressure, and so every System cycle count and the static schedule, assume exactly span+B)",
			b.cap, span, c.BusElems, want))
	}
	// The physical ring must be a power of two no smaller than the
	// logical capacity (indices resolve by mask), and the mask must
	// match it.
	if n := len(b.ring); n < b.cap || n&(n-1) != 0 {
		vs = append(vs, fmt.Sprintf("buffer/capacity: physical ring of %d elements cannot hold logical capacity %d as a power-of-two store", n, b.cap))
	} else if b.mask != n-1 {
		vs = append(vs, fmt.Sprintf("buffer/capacity: ring mask %#x does not match ring size %d", b.mask, n))
	}
	// Every tap offset must address inside the window span: a tap
	// outside it could read an evicted (or not-yet-arrived) element even
	// when WindowReady holds.
	if len(b.tapOff) != len(c.Taps) {
		vs = append(vs, fmt.Sprintf("buffer/taps: %d flattened tap offsets for %d taps", len(b.tapOff), len(c.Taps)))
	}
	for i, off := range b.tapOff {
		if off < 0 || off >= span {
			vs = append(vs, fmt.Sprintf("buffer/taps: tap %d flattens to offset %d outside the window span %d", i, off, span))
		}
	}
	return vs
}

// Capacity returns the buffer's logical capacity (the eviction horizon
// and CanAccept bound) — exposed for the static verifier and tests.
func (b *Buffer) Capacity() int { return b.cap }
