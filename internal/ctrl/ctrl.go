// Package ctrl implements the paper's controllers (§4.1): "The
// controllers include address generators, which export a series of
// memory addresses according to the memory access pattern, and a
// higher-level controller, which controls the address generators. They
// are all implemented as pre-existing parameterized FSMs in a VHDL
// library." This package is the behavioural model of those parameterized
// FSMs; package vhdl emits their HDL counterparts.
package ctrl

import (
	"fmt"

	"roccc/internal/hir"
)

// ReadGen streams the element addresses of an input array region in
// row-major order, up to BusElems addresses per cycle — the read-side
// address generator feeding BRAM fetches into the smart buffer.
type ReadGen struct {
	Total    int // elements to stream
	BusElems int
	pos      int
}

// NewReadGen builds a read address generator over total elements.
func NewReadGen(total, busElems int) *ReadGen {
	return &ReadGen{Total: total, BusElems: busElems}
}

// Next returns the next batch of addresses (nil once exhausted).
func (g *ReadGen) Next() []int {
	return g.NextInto(make([]int, g.BusElems))
}

// NextInto is Next writing into a caller-provided buffer of at least
// BusElems capacity (so a cycle loop does not allocate); it returns the
// filled prefix of dst, or nil once exhausted.
//
//roccc:hotpath
func (g *ReadGen) NextInto(dst []int) []int {
	if g.pos >= g.Total {
		return nil
	}
	n := g.BusElems
	if g.pos+n > g.Total {
		n = g.Total - g.pos
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = g.pos + i
	}
	g.pos += n
	return dst
}

// NextRange is NextInto for consecutive streaming: it returns the start
// address and length of the next bus word (length 0 once exhausted), so
// the memory stage can fetch a BRAM range with one bounds check instead
// of an address-array round trip.
//
//roccc:hotpath
func (g *ReadGen) NextRange() (start, n int) {
	if g.pos >= g.Total {
		return 0, 0
	}
	start = g.pos
	n = g.BusElems
	if start+n > g.Total {
		n = g.Total - start
	}
	g.pos += n
	return start, n
}

// Done reports whether all addresses have been issued.
func (g *ReadGen) Done() bool { return g.pos >= g.Total }

// Reset restarts the sequence.
func (g *ReadGen) Reset() { g.pos = 0 }

// WriteGen produces, per kernel iteration, the flattened store addresses
// for one output array — the write-side address generator placing
// data-path results into the output BRAM.
type WriteGen struct {
	acc  *hir.WriteAccess
	nest *hir.LoopNest
	// levels[d] is the nest level of write dimension d, resolved once at
	// construction instead of by scanning nest.Vars on every address.
	levels []int
	// from/step/trips are the nest bounds copied dense at construction,
	// so the per-iteration address loop reads slices instead of calling
	// back into the loop-nest accessors.
	from, step, trips []int64
	// iteration counters per nest level (outermost first).
	iter []int64
	done bool
	dims []int
	// Compiled fast path for depth-1 single-dimension accesses (the
	// common streaming shape): addr(ei) = fastBase[ei] + iter*fastDelta.
	fast      bool
	fastDelta int64
	fastBase  []int64
}

// NewWriteGen builds a write address generator from the front end's
// write access pattern and loop nest.
func NewWriteGen(acc *hir.WriteAccess, nest *hir.LoopNest) (*WriteGen, error) {
	levels := make([]int, len(acc.Dims))
	for d, dim := range acc.Dims {
		if dim.Var == nil {
			return nil, fmt.Errorf("ctrl: write dimension %d of %s is constant", d, acc.Arr.Name)
		}
		levels[d] = -1
		for l, v := range nest.Vars {
			if v == dim.Var {
				levels[d] = l
			}
		}
		if levels[d] < 0 {
			return nil, fmt.Errorf("ctrl: write index of %s uses non-nest variable %s", acc.Arr.Name, dim.Var.Name)
		}
	}
	g := &WriteGen{
		acc:    acc,
		nest:   nest,
		levels: levels,
		iter:   make([]int64, nest.Depth()),
		dims:   acc.Arr.Dims,
	}
	for l := 0; l < nest.Depth(); l++ {
		g.from = append(g.from, nest.From[l])
		g.step = append(g.step, nest.Step[l])
		g.trips = append(g.trips, nest.Trips(l))
	}
	if nest.Depth() == 1 && len(acc.Dims) == 1 {
		g.fast = true
		g.fastDelta = g.step[0] * acc.Dims[0].Scale
		for _, elem := range acc.Elems {
			g.fastBase = append(g.fastBase, g.from[0]*acc.Dims[0].Scale+elem.Offsets[0])
		}
	}
	return g, nil
}

// Next returns the flattened addresses for the current iteration, one
// per write element (in acc.Elems order), then advances the iteration.
// It returns nil when the nest is exhausted.
func (g *WriteGen) Next() []int {
	return g.NextInto(make([]int, len(g.acc.Elems)))
}

// NextInto is Next writing into a caller-provided buffer of at least
// len(acc.Elems) capacity (so a cycle loop does not allocate); it
// returns the filled prefix of dst, or nil when the nest is exhausted.
//
//roccc:hotpath
func (g *WriteGen) NextInto(dst []int) []int {
	if g.done {
		return nil
	}
	if g.fast {
		addrs := dst[:len(g.fastBase)]
		it := g.iter[0]
		for ei, base := range g.fastBase {
			addrs[ei] = int(base + it*g.fastDelta)
		}
		if g.iter[0] = it + 1; g.iter[0] >= g.trips[0] {
			g.done = true
		}
		return addrs
	}
	addrs := dst[:len(g.acc.Elems)]
	for ei, elem := range g.acc.Elems {
		flat := 0
		for d, dim := range g.acc.Dims {
			level := g.levels[d]
			iv := g.from[level] + g.iter[level]*g.step[level]
			coord := int(iv*dim.Scale + elem.Offsets[d])
			if d == 0 && len(g.acc.Dims) == 2 {
				flat = coord * g.dims[1]
			} else {
				flat += coord
			}
		}
		addrs[ei] = flat
	}
	// Advance odometer, innermost fastest.
	for l := len(g.iter) - 1; l >= 0; l-- {
		g.iter[l]++
		if g.iter[l] < g.trips[l] {
			return addrs
		}
		g.iter[l] = 0
	}
	g.done = true
	return addrs
}

// Done reports whether the iteration space is exhausted.
func (g *WriteGen) Done() bool { return g.done }

// Reset rewinds the generator to the first iteration.
func (g *WriteGen) Reset() {
	for l := range g.iter {
		g.iter[l] = 0
	}
	g.done = false
}

// State enumerates the higher-level controller's FSM states.
type State int

// Controller FSM states: the execution model of Fig. 2.
const (
	Idle   State = iota // waiting for start
	Fill                // priming the smart buffer
	Stream              // one iteration per cycle through the data path
	Drain               // flushing the pipeline
	DoneSt              // all outputs written
)

func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Fill:
		return "fill"
	case Stream:
		return "stream"
	case Drain:
		return "drain"
	case DoneSt:
		return "done"
	}
	return "?"
}

// Controller is the higher-level FSM that sequences the address
// generators, smart buffer and data path.
type Controller struct {
	TotalIters int // loop nest iterations to execute
	Latency    int // data-path latency in cycles

	state State
	fed   int // iterations fed to the data path
	done  int // iterations whose outputs have been collected
}

// NewController builds the top-level sequencer.
func NewController(totalIters, latency int) *Controller {
	return &Controller{TotalIters: totalIters, Latency: latency, state: Idle}
}

// StateNow returns the current FSM state.
func (c *Controller) StateNow() State { return c.state }

// Fed returns the number of iterations issued to the data path.
func (c *Controller) Fed() int { return c.fed }

// Collected returns the number of completed iterations.
func (c *Controller) Collected() int { return c.done }

// Tick advances the FSM one clock. windowReady tells whether the smart
// buffer can export a window this cycle. It returns true when the data
// path should accept a real iteration this cycle; otherwise the cycle
// is a pipeline bubble. Output collection timing is owned by the
// cycle-accurate system model (package netlist), which calls Collect for
// every harvested iteration.
//
//roccc:hotpath
func (c *Controller) Tick(windowReady bool) (feed bool) {
	switch c.state {
	case Idle:
		c.state = Fill
		fallthrough
	case Fill, Stream:
		if windowReady && c.fed < c.TotalIters {
			feed = true
			c.fed++
			c.state = Stream
		}
		if c.fed >= c.TotalIters {
			c.state = Drain
		}
	case Drain, DoneSt:
	}
	return feed
}

// TickFeedN admits n consecutive guaranteed feed cycles in one
// transition — exactly n Tick(true) calls that all feed, for callers
// that have proven the whole streak. It returns false (admitting
// nothing) if n is not positive or the FSM could not feed n more
// iterations.
func (c *Controller) TickFeedN(n int) bool {
	if n <= 0 {
		return false
	}
	switch c.state {
	case Idle, Fill, Stream:
		if c.fed+n > c.TotalIters {
			return false
		}
		c.fed += n
		c.state = Stream
		if c.fed >= c.TotalIters {
			c.state = Drain
		}
		return true
	}
	return false
}

// Collect records one completed iteration; when all iterations have
// completed the FSM reaches its final state.
//
//roccc:hotpath
func (c *Controller) Collect() {
	c.done++
	if c.done >= c.TotalIters && (c.state == Drain || c.fed >= c.TotalIters) {
		c.state = DoneSt
	}
}

// Finished reports whether every iteration has been fed and collected.
func (c *Controller) Finished() bool { return c.state == DoneSt }

// Reset returns the FSM to Idle with no iterations fed or collected.
func (c *Controller) Reset() {
	c.state = Idle
	c.fed = 0
	c.done = 0
}
