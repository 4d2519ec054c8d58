// Package load is the open-loop load harness for a rocccserve fleet:
// a pacing clock fires requests at fixed Poisson arrival rates
// regardless of how fast responses come back, so queueing collapse
// shows up as tail latency instead of being absorbed by a closed
// loop's self-throttling. Latency is measured from each
// request's *scheduled* arrival time — late dispatch is coordinated-
// omission debt, counted, never hidden. A step-doubling-then-bisect
// controller finds the knee: the highest rate where p99 stays under
// the SLO with a clean error budget, with load-sheds (serve.BusyError)
// classified as backpressure rather than failure.
package load

import "math/bits"

// The latency histogram is fixed-bucket log-linear (HDR-style): values
// below histLinear land in exact unit buckets; above, each power-of-two
// octave splits into histSub sub-buckets, bounding relative error at
// 1/histSub. Everything is a flat array — recording is branch-light,
// allocation-free and mergeable across workers by element-wise add.
const (
	histSubBits = 4                // 16 sub-buckets per octave
	histSub     = 1 << histSubBits // sub-buckets per octave
	histLinear  = histSub * 2      // values < 32 are exact

	// Octaves span bit-lengths histSubBits+2 .. 64.
	histBuckets = histLinear + (64-histSubBits-1)*histSub
)

// Hist is a fixed-bucket log-linear latency histogram. Units are the
// caller's (the harness records nanoseconds). The zero value is ready;
// Record is not safe for concurrent use — give each worker its own and
// Merge them.
type Hist struct {
	counts [histBuckets]uint64
	count  uint64
	sum    uint64
	max    int64
}

// Record adds one sample (negatives clamp to zero). This is the
// per-request hot path of every load worker.
//
//roccc:hotpath
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
	uv := uint64(v)
	var idx int
	if uv < histLinear {
		idx = int(uv)
	} else {
		n := bits.Len64(uv)
		idx = histLinear + (n-histSubBits-2)*histSub + int(uv>>(n-histSubBits-1)) - histSub
	}
	h.counts[idx]++
}

// Merge folds o into h (element-wise; associative and commutative, so
// per-worker histograms combine in any order).
func (h *Hist) Merge(o *Hist) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Mean returns the exact sample mean (the sum is tracked outside the
// buckets, so the mean has no quantization error).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest recorded sample, exactly.
func (h *Hist) Max() int64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// upper edge of the bucket holding the rank-⌈q·n⌉ sample. The bound is
// conservative (never understates a tail) and within 1/histSub relative
// error of the true order statistic.
func (h *Hist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			return bucketBound(i)
		}
	}
	return h.max
}

// bucketBound returns the largest value that lands in bucket idx.
func bucketBound(idx int) int64 {
	if idx < histLinear {
		return int64(idx)
	}
	octave := (idx - histLinear) / histSub
	sub := (idx-histLinear)%histSub + histSub
	shift := uint(octave + 1)
	return int64(sub+1)<<shift - 1
}
