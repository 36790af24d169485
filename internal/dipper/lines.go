package dipper

import (
	"math/bits"
	"sync/atomic"

	"dstore/internal/pmem"
)

// lineSet is a bitmap over an arena's cache lines. As a space.Barrier on a
// checkpoint's target arena it marks every line a store touches; marking is
// atomic, so a Replay may store from several goroutines.
type lineSet []atomic.Uint64

func newLineSet(arenaBytes uint64) lineSet {
	return make(lineSet, (arenaBytes/pmem.LineSize+63)/64)
}

// Enter marks the lines of [off, off+n). A replay stores to the same lines
// over and over, so a line already marked costs a load, not a read-modify-write.
func (s lineSet) Enter(off, n uint64) {
	for l := off / pmem.LineSize; l*pmem.LineSize < off+n; l++ {
		if w, bit := &s[l/64], uint64(1)<<(l%64); w.Load()&bit == 0 {
			w.Or(bit)
		}
	}
}

func (s lineSet) Exit() {}

// flushGap is the widest run of clean lines one flush spans rather than
// split in two: a flush costs 150 ns plus 10 ns a line
// (pmem.DefaultLatencies), so 14 clean lines cost less than a second flush.
const flushGap = 14

// runs calls fn(off, n) for each byte range of lines marked in a or b (b may
// be nil), in ascending order, joining two runs that at most gap unmarked
// lines separate.
func runs(a, b lineSet, gap uint64, fn func(off, n uint64)) {
	var first, end uint64 // the open run is lines [first, end); end 0: none
	for i := range a {
		w := a[i].Load()
		if b != nil {
			w |= b[i].Load()
		}
		for w != 0 {
			l := uint64(i)*64 + uint64(bits.TrailingZeros64(w))
			w &= w - 1
			if end == 0 || l > end+gap {
				if end != 0 {
					fn(first*pmem.LineSize, (end-first)*pmem.LineSize)
				}
				first = l
			}
			end = l + 1
		}
	}
	if end != 0 {
		fn(first*pmem.LineSize, (end-first)*pmem.LineSize)
	}
}
