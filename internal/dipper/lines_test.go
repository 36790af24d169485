package dipper

import (
	"sync"
	"testing"

	"dstore/internal/pmem"
)

// TestLineSetEnterFromSeveralGoroutines: overlapping stores entered from
// several goroutines, each line many times, leave exactly the lines they
// touched marked — a parallel replay may share one set.
func TestLineSetEnterFromSeveralGoroutines(t *testing.T) {
	const lines = 1000
	s := newLineSet(lines * pmem.LineSize)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				// Lines g, g+8, g+16, … and the line after each: stores of 2
				// bytes straddling a line boundary.
				for l := uint64(g); l+1 < lines; l += 8 {
					s.Enter((l+1)*pmem.LineSize-1, 2)
				}
			}
		}()
	}
	wg.Wait()
	want := make([]bool, lines)
	for g := uint64(0); g < 4; g++ {
		for l := g; l+1 < lines; l += 8 {
			want[l], want[l+1] = true, true
		}
	}
	got := make([]bool, lines)
	runs(s, nil, 0, func(off, n uint64) {
		for l := off / pmem.LineSize; l < (off+n)/pmem.LineSize; l++ {
			got[l] = true
		}
	})
	for l := range want {
		if got[l] != want[l] {
			t.Fatalf("line %d marked %v, want %v", l, got[l], want[l])
		}
	}
}
