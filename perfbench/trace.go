package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// keepSpans is how many raw spans a traced run keeps for the dump; past
// that, spans are only aggregated. It is kept small because the compile
// loop is bound by garbage collection over a small live heap: a few MB
// of kept spans would halve the GC rate and speed the traced run up.
const keepSpans = 10000

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (nothing inside the program is traced).
// Spans of one operation share id; parent indexes the span that caused
// this one within the same buffer (-1 for a root).
type span struct {
	name       string
	id         uint64
	parent     int32
	start, end int64 // ns since the trace epoch
}

// traceLog is what a traced run keeps: per-layer aggregates and the
// first keepSpans spans.
type traceLog struct {
	epoch time.Time
	mu    sync.Mutex
	stats map[string]layerStat
	kept  []span
}

// tracer buffers the spans of the operations in flight on one caller.
// flush, called once an operation's root span has ended, folds them into
// the log. It is safe for concurrent use: serve records from the caller
// and from the server goroutine running the caller's stream.
type tracer struct {
	log     *traceLog
	mu      sync.Mutex
	spans   []span
	scratch [][2]int64
}

func newTracer() *tracer {
	return &tracer{log: &traceLog{epoch: time.Now(), stats: map[string]layerStat{}}}
}

// fork returns a tracer with its own buffer feeding the same log.
func (t *tracer) fork() *tracer { return &tracer{log: t.log} }

func (t *tracer) now() int64 { return int64(time.Since(t.log.epoch)) }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, id uint64, parent int32) int32 {
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start, end: -1})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].end = end
	t.mu.Unlock()
}

// add records a span whose interval the caller measured.
func (t *tracer) add(name string, id uint64, parent int32, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start, end: end})
	t.mu.Unlock()
}

// flush aggregates the buffered spans into the log and empties the
// buffer. Every span's children must be in the buffer already.
func (t *tracer) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.log
	l.mu.Lock()
	t.scratch = addSelfTimes(l.stats, t.spans, t.scratch)
	if room := keepSpans - len(l.kept); room > 0 {
		base := int32(len(l.kept))
		for _, s := range t.spans[:min(room, len(t.spans))] {
			if s.parent >= 0 {
				s.parent += base
			}
			l.kept = append(l.kept, s)
		}
	}
	l.mu.Unlock()
	t.spans = t.spans[:0]
}

// layerStat aggregates every span of one name.
type layerStat struct {
	calls       int
	total, self time.Duration
}

func (s layerStat) meanUs() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(s.calls) / 1e3
}

func (s layerStat) selfUs() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.self) / float64(s.calls) / 1e3
}

// addSelfTimes adds each span's duration and self time to stats by
// name. A span's self time is its duration minus the part of its
// interval its children cover (the union of their intervals, clipped to
// the parent's). Children follow their parent in spans; a span that was
// opened but never closed (its call failed) is skipped. scratch is
// reused across calls and returned.
func addSelfTimes(stats map[string]layerStat, spans []span, scratch [][2]int64) [][2]int64 {
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		scratch = scratch[:0]
		for _, c := range spans[i+1:] {
			if c.parent == int32(i) && c.end >= c.start {
				scratch = append(scratch, [2]int64{c.start, c.end})
			}
		}
		dur := s.end - s.start
		st := stats[s.name]
		st.calls++
		st.total += time.Duration(dur)
		st.self += time.Duration(dur - coveredNs(s.start, s.end, scratch))
		stats[s.name] = st
	}
	return scratch
}

// coveredNs is the length of the union of ivs clipped to [lo, hi].
func coveredNs(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var covered int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			covered += e - s
			cur = e
		}
	}
	return covered
}

// dump writes the kept spans, one per line, to path (tab-separated:
// index, name, id, parent, start ns, end ns).
func (l *traceLog) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tname\tid\tparent\tstart_ns\tend_ns")
	for i, s := range l.kept {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.id, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
