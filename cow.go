package dstore

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"dstore/internal/space"
)

// cowSpace implements the copy-on-write checkpoint scheme of NOVA/Pronto,
// which the paper implements inside DStore for comparison (§4.5, Fig. 1/9):
//
//	"When a checkpoint is triggered, all volatile pages in the frontend are
//	 marked as read only. ... When a client tries to modify a read-only
//	 page, a page fault is triggered and a handler copies the page to PMEM.
//	 Clients can assist in this copying process, but must wait until the
//	 page is copied before making any modification to it."
//
// cowSpace is the frontend DRAM arena's store barrier: while a checkpoint
// is active, every store into a protected page first copies that page to a
// PMEM scratch window (charging real simulated PMEM write+flush latency) —
// the client wait that produces CoW's tail latency. A background sweeper
// copies the remaining pages so the checkpoint completes, mirroring the
// page-at-a-time flushing that underuses PMEM bandwidth (paper §5.3).
//
// Persistence correctness in CoW mode is still provided by the DIPPER log +
// replay machinery; cowSpace reproduces the *client-visible cost* of CoW
// checkpoints on the same consistent substrate (see DESIGN.md §4).
type cowSpace struct {
	inner    *space.Arena
	scratch  *space.PMEM
	pageSize uint64
	active   atomic.Bool
	// mu makes freeze atomic with respect to in-flight stores, the role
	// page-table manipulation plays for real CoW: the barrier holds it
	// shared for the touch+store pair, freeze takes it exclusively while
	// arming the protection bitmap.
	mu      sync.RWMutex
	bits    []atomic.Uint64 // 1 bit per page: protected (not yet claimed)
	copying []atomic.Uint64 // 1 bit per page: copy in flight; writers wait

	pagesCopied atomic.Uint64
	faultCopies atomic.Uint64
}

// newCowSpace returns the CoW barrier, installed on inner.
func newCowSpace(inner *space.Arena, scratch *space.PMEM, pageSize uint64) *cowSpace {
	pages := (inner.Size() + pageSize - 1) / pageSize
	c := &cowSpace{
		inner:    inner,
		scratch:  scratch,
		pageSize: pageSize,
		bits:     make([]atomic.Uint64, (pages+63)/64),
		copying:  make([]atomic.Uint64, (pages+63)/64),
	}
	inner.SetBarrier(c)
	return c
}

// freeze protects the first `used` bytes of the arena; subsequent stores
// fault until their page is copied.
func (c *cowSpace) freeze(used uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pages := (used + c.pageSize - 1) / c.pageSize
	for w := range c.bits {
		c.bits[w].Store(0)
	}
	full := pages / 64
	for w := uint64(0); w < full; w++ {
		c.bits[w].Store(^uint64(0))
	}
	if rem := pages % 64; rem > 0 {
		c.bits[full].Store((uint64(1) << rem) - 1)
	}
	c.active.Store(true)
}

// claim takes exclusive ownership of page p's copy. The copying bit is the
// claim latch (only one goroutine can CAS it 0→1); the protected bit may
// only be cleared by the latch holder, so a page transitions
// protected → (latched, protected) → (latched, copied) → copied
// and writers can always tell an in-flight copy from a finished one.
// Returns false if the page is already claimed or copied.
func (c *cowSpace) claim(p uint64) bool {
	w, bit := p/64, uint64(1)<<(p%64)
	for {
		if c.bits[w].Load()&bit == 0 {
			return false // already copied (or never protected)
		}
		cw := c.copying[w].Load()
		if cw&bit != 0 {
			return false // another goroutine is copying it right now
		}
		if c.copying[w].CompareAndSwap(cw, cw|bit) {
			// Re-verify under the latch: a full claim/copy/release by
			// another goroutine may have completed between our protected-
			// bit check and the CAS, in which case the page is already
			// copied and we must stand down.
			if c.bits[w].Load()&bit == 0 {
				c.copying[w].And(^bit)
				return false
			}
			return true
		}
	}
}

// release publishes the finished copy: clear protected (we are the only one
// allowed to), then drop the latch.
func (c *cowSpace) release(p uint64) {
	w, bit := p/64, uint64(1)<<(p%64)
	c.bits[w].And(^bit)
	c.copying[w].And(^bit)
}

// settled reports whether page p needs no wait: not protected and no copy in
// flight.
func (c *cowSpace) settled(p uint64) bool {
	w, bit := p/64, uint64(1)<<(p%64)
	return c.copying[w].Load()&bit == 0 && c.bits[w].Load()&bit == 0
}

// sweep copies every still-protected page and deactivates protection; run in
// the background by the checkpoint, clients may beat it to individual pages.
func (c *cowSpace) sweep() {
	for w := range c.bits {
		for {
			bitsW := c.bits[w].Load()
			if bitsW == 0 {
				break
			}
			p := uint64(w)*64 + uint64(bits.TrailingZeros64(bitsW)) // lowest set bit
			if c.claim(p) {
				c.copyPage(p)
				c.release(p)
			}
		}
	}
	c.active.Store(false)
}

// copyPage copies one arena page into the PMEM scratch window and persists
// it, charging the caller the full device cost.
func (c *cowSpace) copyPage(page uint64) {
	off := page * c.pageSize
	n := c.pageSize
	if off >= c.inner.Size() {
		return
	}
	if off+n > c.inner.Size() {
		n = c.inner.Size() - off
	}
	c.scratch.Write(off, c.inner.Slice(off, n))
	c.scratch.Persist(off, n)
	c.pagesCopied.Add(1)
}

// touch is the fault handler: called before any store into [off, off+n).
func (c *cowSpace) touch(off, n uint64) {
	if !c.active.Load() || n == 0 {
		return
	}
	first := off / c.pageSize
	last := (off + n - 1) / c.pageSize
	for p := first; p <= last; p++ {
		for !c.settled(p) {
			if c.claim(p) {
				// This client performs — and waits for — the copy.
				c.copyPage(p)
				c.release(p)
				c.faultCopies.Add(1)
				break
			}
			// Someone else is mid-copy; the paper's clients "must wait
			// until the page is copied before making any modification".
			runtime.Gosched()
		}
	}
}

// Enter is the arena's store barrier: the store to [off, off+n) runs under
// mu held shared, after its pages are copied.
func (c *cowSpace) Enter(off, n uint64) {
	c.mu.RLock()
	c.touch(off, n)
}

// Exit ends the store Enter admitted.
func (c *cowSpace) Exit() { c.mu.RUnlock() }
