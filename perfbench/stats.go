package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"sync"
	"time"
)

// histSubBits sets the latency histogram's resolution: 2^histSubBits
// buckets per power of two, so a bucket is at most 1/128 of its values
// wide. The histogram has a fixed size, which keeps the benchmark's own
// memory out of peak_rss_mb however many requests a run completes.
const histSubBits = 7

// histogram is a log-linear histogram of nanosecond durations: exact
// below 2^(histSubBits+1) ns, 1/128 relative resolution above.
type histogram struct {
	n      int64
	counts [1<<(histSubBits+1) + (63-histSubBits)<<histSubBits]int64
}

// histBucket maps v >= 2^(s+1) (s = histSubBits) to its top s+1 bits
// m = v>>shift and the shift, and smaller values to themselves.
func histBucket(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 1<<(histSubBits+1) {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	m := int(v >> shift)
	return 1<<(histSubBits+1) + (shift-1)<<histSubBits + m - 1<<histSubBits
}

// histLow is the smallest value in bucket i, histWidth its width.
func histLow(i int) int64 {
	if i < 1<<(histSubBits+1) {
		return int64(i)
	}
	j := i - 1<<(histSubBits+1)
	m := int64(j&(1<<histSubBits-1)) + 1<<histSubBits
	return m << (j>>histSubBits + 1)
}

func histWidth(i int) int64 {
	if i < 1<<(histSubBits+1) {
		return 1
	}
	return 1 << ((i-1<<(histSubBits+1))>>histSubBits + 1)
}

func (h *histogram) record(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

// kernelTimes keeps one latency histogram per kernel.
type kernelTimes []histogram

// summarize returns each kernel's median time in ms, and the 50th and
// 99th percentiles of those medians over the kernel set.
func (kt kernelTimes) summarize() (meds []float64, p50, p99 float64, n int64) {
	for i := range kt {
		meds = append(meds, kt[i].quantileMs(0.50))
		n += kt[i].n
	}
	over := append([]float64(nil), meds...)
	return meds, quantile(over, 0.50), quantile(over, 0.99), n
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileMs is the nearest-rank q-quantile in milliseconds (0 when
// empty): the ceil(q·n)-th smallest sample, placed within its bucket by
// its rank among the bucket's samples, so the estimate moves smoothly
// with the data instead of in bucket-sized steps.
func (h *histogram) quantileMs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(1, int64(math.Ceil(q*float64(h.n))))
	var seen int64
	for i, c := range h.counts {
		if seen+c >= rank {
			within := (float64(rank-seen) - 0.5) / float64(c)
			return (float64(histLow(i)) + within*float64(histWidth(i))) / 1e6
		}
		seen += c
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of xs: the smallest
// sample with at least ceil(q·n) samples at or below it. It reorders xs
// in place (quickselect, linear time), so the multi-million-sample serve
// latency sets are never fully sorted. xs must be non-empty and
// 0 < q <= 1.
func quantile(xs []float64, q float64) float64 {
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	k = max(0, min(k, len(xs)-1))
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot keeps already-ordered input linear.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		p := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// geomean is the geometric mean of positive values, computed in log
// space so long products cannot overflow.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// rssSampler samples the Go runtime's resident memory (everything it
// has mapped minus what it has released to the OS) every rssEvery from
// start to finish, over the measured window. The process's own
// ru_maxrss is no use here: it also counts the benchmark's reference
// computations, and as the maximum of thousands of GC cycles it moves by
// a fifth from run to run.
type rssSampler struct {
	halt    chan struct{}
	once    sync.Once
	done    chan struct{}
	samples []float64
}

const rssEvery = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{halt: make(chan struct{}), done: make(chan struct{})}
	ms := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	read := func() {
		metrics.Read(ms)
		s.samples = append(s.samples, float64(ms[0].Value.Uint64()-ms[1].Value.Uint64())/(1<<20))
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			read()
			select {
			case <-s.halt:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and waits for the sampler; it may be called again.
func (s *rssSampler) stop() {
	s.once.Do(func() { close(s.halt) })
	<-s.done
}

// finish stops sampling and returns the 99th percentile of the samples
// in MB: the peak the process holds, not one GC cycle's overshoot.
func (s *rssSampler) finish() float64 {
	s.stop()
	return quantile(s.samples, 0.99)
}

// stallProbe spins one goroutine on the monotonic clock for d and
// returns the summed length of every gap between consecutive reads over
// 50 µs: time the host took the CPU away (VM deschedules, interrupts),
// which slows every workload without being the program's fault.
func stallProbe(d time.Duration) (stalled, spun time.Duration) {
	const gap = 50 * time.Microsecond
	start := time.Now()
	last := start
	for {
		now := time.Now()
		if g := now.Sub(last); g > gap {
			stalled += g
		}
		last = now
		if spun = now.Sub(start); spun >= d {
			return stalled, spun
		}
	}
}
