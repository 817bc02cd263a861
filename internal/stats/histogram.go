package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram geometry: a log-linear (HDR-style) bucket layout over
// non-negative int64 values. Values below subCount land in exact
// one-per-value buckets; above that, every power of two is split into
// subHalf equal-width buckets, so the relative quantization error is
// bounded by ErrorBound everywhere. The layout is a compile-time
// constant, which is what makes histograms mergeable: every Histogram
// shares the same buckets, so Merge is a plain counter add.
const (
	subBits  = 6
	subCount = 1 << subBits // linear region: values [0, 64) are exact
	subHalf  = subCount / 2 // buckets per octave above the linear region

	// numBuckets covers the full non-negative int64 range: the linear
	// region plus subHalf buckets for each of the remaining octaves.
	numBuckets = subCount + (63-subBits)*subHalf
)

// ErrorBound is the worst-case relative quantization error of a
// recorded value: a bucket in octave k spans 2^k values starting at
// 2^(k+subBits-1), so width/value <= 2^(1-subBits).
const ErrorBound = 1.0 / (1 << (subBits - 1))

// Histogram is an HDR-style log-bucketed latency histogram. The
// record path is allocation-free and safe for concurrent use (one
// atomic add per Record, plus bounded CAS loops maintaining min/max);
// readers may run concurrently with writers and see a consistent
// snapshot only once recording has quiesced: many goroutines record,
// one reporter reads after the run drains.
//
// Values are int64 (nanoseconds, by convention); negative values are
// clamped to zero rather than dropped, so Count always equals the
// number of Record calls.
type Histogram struct {
	counts [numBuckets]uint64 // accessed atomically
	count  atomic.Uint64
	sum    atomic.Uint64
	min    atomic.Int64 // math.MaxInt64 until the first Record
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a non-negative value to its bucket. Pure bit
// arithmetic — no bounds in need of allocation or branching beyond
// the linear-region test.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	k := uint(bits.Len64(u)) - subBits
	return subCount + int(k-1)*subHalf + int(u>>k) - subHalf
}

// bucketUpper returns the largest value that maps to bucket idx — the
// representative reported by Quantile (quantiles err on the
// conservative side, never under-reporting a latency).
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	r := idx - subCount
	k := uint(r/subHalf) + 1
	sub := uint64(r%subHalf) + subHalf
	return int64((sub+1)<<k - 1)
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	atomic.AddUint64(&h.counts[bucketIndex(v)], 1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the arithmetic mean of recorded values (exact, not
// bucketed), or 0 on an empty histogram.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Min returns the smallest recorded value (exact), or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest recorded value (exact), or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Quantile returns the value at quantile q in [0, 1]: the smallest
// bucket representative below which at least q of the recorded mass
// lies. The result is clamped to [Min, Max], so Quantile(0) == Min
// and Quantile(1) == Max exactly; interior quantiles carry the bucket
// quantization error (<= ErrorBound, relative). Empty histograms
// return 0.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target > total {
		target = total
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += atomic.LoadUint64(&h.counts[i])
		if cum >= target {
			v := bucketUpper(i)
			if mx := h.max.Load(); v > mx {
				v = mx
			}
			if mn := h.min.Load(); v < mn {
				v = mn
			}
			return v
		}
	}
	return h.Max()
}

// Merge folds o's observations into h. Safe against concurrent
// Record on either side in the same senses Record is; both histograms
// share the fixed bucket geometry, so merging is associative and
// commutative over counts.
func (h *Histogram) Merge(o *Histogram) {
	for i := 0; i < numBuckets; i++ {
		if n := atomic.LoadUint64(&o.counts[i]); n > 0 {
			atomic.AddUint64(&h.counts[i], n)
		}
	}
	n := o.count.Load()
	if n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(o.sum.Load())
	for {
		v, cur := o.min.Load(), h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		v, cur := o.max.Load(), h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}
