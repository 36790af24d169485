// Package hist provides a concurrent log-linear latency histogram (HDR
// style) and percentile extraction for the tail-latency experiments
// (paper Figs. 1, 8, 9; Tables 3, 5).
//
// Values are bucketed with ~3% relative precision: 32 linear buckets per
// power of two. Recording is a single atomic increment, safe from any
// number of goroutines.
package hist

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

const (
	subBits    = 5
	subBuckets = 1 << subBits // 32
	magnitudes = 48           // covers > 3 days in nanoseconds
	numBuckets = magnitudes * subBuckets
)

// H is a histogram of non-negative int64 values (typically nanoseconds).
// The zero value is ready to use.
type H struct {
	counts [numBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	msb := bits.Len64(v) - 1
	shift := msb - subBits
	idx := (msb-subBits+1)<<subBits | int((v>>shift)&(subBuckets-1))
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	mag := i>>subBits - 1
	sub := uint64(i & (subBuckets - 1))
	return (subBuckets + sub) << uint(mag)
}

// Record adds one observation.
func (h *H) Record(v int64) {
	v = max(v, 0)
	h.counts[bucketOf(uint64(v))].Add(1)
	h.total.Add(1)
	h.sum.Add(uint64(v))
	for {
		cur := h.max.Load()
		if uint64(v) <= cur || h.max.CompareAndSwap(cur, uint64(v)) {
			break
		}
	}
}

// RecordSince records the elapsed time since start.
func (h *H) RecordSince(start time.Time) { h.Record(time.Since(start).Nanoseconds()) }

// Count returns the number of observations.
func (h *H) Count() uint64 { return h.total.Load() }

// Mean returns the mean observation, or 0 when empty.
func (h *H) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest recorded value.
func (h *H) Max() uint64 { return h.max.Load() }

// Percentile returns the value at quantile p (0 < p <= 100), as the lower
// bound of the containing bucket (so reported tails are conservative).
func (h *H) Percentile(p float64) uint64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen uint64
	for i := 0; i < numBuckets; i++ {
		seen += h.counts[i].Load()
		if seen > rank {
			return bucketLow(i)
		}
	}
	return h.max.Load()
}

// Reset clears the histogram.
func (h *H) Reset() {
	for i := 0; i < numBuckets; i++ {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Summary is a snapshot of the standard percentiles.
type Summary struct {
	Count                        uint64
	MeanNs                       float64
	P50, P90, P99, P999, P9999Ns uint64
	MaxNs                        uint64
}

// Summarize extracts the standard percentile set.
func (h *H) Summarize() Summary {
	return Summary{
		Count:   h.Count(),
		MeanNs:  h.Mean(),
		P50:     h.Percentile(50),
		P90:     h.Percentile(90),
		P99:     h.Percentile(99),
		P999:    h.Percentile(99.9),
		P9999Ns: h.Percentile(99.99),
		MaxNs:   h.Max(),
	}
}

// String renders a Summary in microseconds.
func (s Summary) String() string {
	us := func(v uint64) float64 { return float64(v) / 1000 }
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus p999=%.1fus p9999=%.1fus max=%.1fus",
		s.Count, s.MeanNs/1000, us(s.P50), us(s.P90), us(s.P99), us(s.P999), us(s.P9999Ns), us(s.MaxNs))
}

// Series is a time series of per-interval samples (throughput, bandwidth).
type Series struct {
	Interval time.Duration
	Values   []float64
}

// Min returns the smallest sample (the worst-case SLO value), or 0.
func (s Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	vals := append([]float64(nil), s.Values...)
	sort.Float64s(vals)
	return vals[0]
}

// Max returns the largest sample, or 0.
func (s Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values {
		m = max(m, v)
	}
	return m
}

// Mean returns the average sample, or 0.
func (s Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}
