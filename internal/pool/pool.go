// Package pool implements the circular free pools of DStore (paper §4.2:
// "The metadata and block pools are circular buffers containing free blocks
// and metadata pages").
//
// A Pool is volatile: the frontend keeps one for SSD blocks and one for
// metadata slots on the Go heap, fills them at Format, and rebuilds them
// from the metadata zone once at Open and at a standby's Promote. Nothing
// persists them and no replay touches them, because every log record names
// the slot and blocks its operation took. Pops and pushes stay strictly FIFO
// for the reuse order alone: a freed id goes to the back of the queue, so
// the oldest free id is handed out next.
package pool

import (
	"errors"
	"fmt"
)

// ErrEmpty is returned by Get when no free entries remain.
var ErrEmpty = errors.New("pool: empty")

// ErrFull is returned by Put when the buffer is at capacity.
var ErrFull = errors.New("pool: full")

// Pool is a fixed-capacity circular buffer of u64 entries. It is not
// internally synchronized: DStore guards its pools with the Fig. 4 pool
// lock.
type Pool struct {
	ids         []uint64 // the ring; its length is the capacity
	head, count uint64
}

// New returns a pool with the given capacity, pre-filled with entries
// 0..prefill-1 (the initially-free block or slot ids).
func New(capacity, prefill uint64) (*Pool, error) {
	if prefill > capacity {
		return nil, fmt.Errorf("pool: prefill %d > capacity %d", prefill, capacity)
	}
	p := &Pool{ids: make([]uint64, capacity), count: prefill}
	for i := range p.ids[:prefill] {
		p.ids[i] = uint64(i)
	}
	return p, nil
}

// Free returns the number of free entries currently pooled.
func (p *Pool) Free() uint64 { return p.count }

// Get pops the oldest free entry (FIFO).
func (p *Pool) Get() (uint64, error) {
	if p.count == 0 {
		return 0, ErrEmpty
	}
	v := p.ids[p.head]
	p.head = (p.head + 1) % uint64(len(p.ids))
	p.count--
	return v, nil
}

// ResetTo replaces the pool's contents with ids (in order). Open and Promote
// use it to rebuild the free sets from the metadata zone.
func (p *Pool) ResetTo(ids []uint64) error {
	if len(ids) > len(p.ids) {
		return fmt.Errorf("pool: %d ids exceed capacity %d", len(ids), len(p.ids))
	}
	p.head, p.count = 0, uint64(copy(p.ids, ids))
	return nil
}

// Put pushes a freed entry at the tail (FIFO).
func (p *Pool) Put(v uint64) error {
	capacity := uint64(len(p.ids))
	if p.count == capacity {
		return ErrFull
	}
	p.ids[(p.head+p.count)%capacity] = v
	p.count++
	return nil
}
