package hist

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 31, 32, 33, 100, 1000, 1 << 20, 1<<40 + 12345} {
		b := bucketOf(v)
		lo := bucketLow(b)
		if lo > v {
			t.Fatalf("bucketLow(%d)=%d exceeds value %d", b, lo, v)
		}
		// Relative error bounded by one sub-bucket (~3.2%).
		if v >= 32 && float64(v-lo)/float64(v) > 0.04 {
			t.Fatalf("value %d mapped to bucket low %d (error %.2f%%)", v, lo, 100*float64(v-lo)/float64(v))
		}
	}
}

func TestPercentilesExactSmall(t *testing.T) {
	var h H
	for i := 1; i <= 10; i++ {
		h.Record(int64(i))
	}
	if p := h.Percentile(50); p != 5 && p != 6 {
		t.Fatalf("p50 = %d", p)
	}
	if p := h.Percentile(100); p != 10 {
		t.Fatalf("p100 = %d", p)
	}
	if h.Count() != 10 || h.Mean() != 5.5 || h.Max() != 10 {
		t.Fatalf("count=%d mean=%f max=%d", h.Count(), h.Mean(), h.Max())
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h H
	if h.Percentile(99) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestNegativeClamped(t *testing.T) {
	var h H
	h.Record(-5)
	if h.Percentile(100) != 0 {
		t.Fatal("negative value not clamped")
	}
}

func TestPercentileAccuracyLarge(t *testing.T) {
	var h H
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 100000)
	for i := range vals {
		vals[i] = int64(rng.ExpFloat64() * 10000)
		h.Record(vals[i])
	}
	// Compare against exact p99.
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	exact := sorted[len(sorted)*99/100]
	got := int64(h.Percentile(99))
	if got > exact || float64(exact-got)/float64(exact) > 0.05 {
		t.Fatalf("p99: got %d, exact %d", got, exact)
	}
}

func TestReset(t *testing.T) {
	var h H
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Percentile(100) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestConcurrentRecord(t *testing.T) {
	var h H
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Record(int64(g*1000 + i%100))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestSummary(t *testing.T) {
	var h H
	for i := int64(1); i <= 10000; i++ {
		h.Record(i)
	}
	s := h.Summarize()
	if s.Count != 10000 || s.P50 == 0 || s.P9999Ns < s.P999 || s.P999 < s.P99 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty string rendering")
	}
}

func TestSeriesStats(t *testing.T) {
	s := Series{Values: []float64{5, 1, 3}}
	if s.Min() != 1 || s.Max() != 5 || s.Mean() != 3 {
		t.Fatalf("series stats: %f %f %f", s.Min(), s.Max(), s.Mean())
	}
	var empty Series
	if empty.Min() != 0 || empty.Max() != 0 || empty.Mean() != 0 {
		t.Fatal("empty series stats not zero")
	}
}

// Property: percentile is monotone in p and bounded by max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		var h H
		for _, v := range vals {
			h.Record(int64(v))
		}
		last := uint64(0)
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 99.9, 100} {
			cur := h.Percentile(p)
			if cur < last {
				return false
			}
			last = cur
		}
		return last <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
