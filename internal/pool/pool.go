// Package pool implements the circular free pools of DStore (paper §4.2:
// "The metadata and block pools are circular buffers containing free blocks
// and metadata pages").
//
// A Pool lives inside an allocator-managed Space, so it is cloned with the
// arena and the same code runs on the DRAM frontend and the PMEM shadow.
// Pops and pushes are strictly FIFO, which is what makes replay
// deterministic: because DStore performs every pool mutation inside the same
// critical section that appends the operation's log record (Fig. 4 steps
// ①–⑤), replaying records in LSN order re-issues identical pool operations
// and therefore assigns identical SSD blocks and metadata slots.
package pool

import (
	"errors"
	"fmt"

	"dstore/internal/alloc"
	"dstore/internal/space"
)

const (
	hdrCap   = 0
	hdrHead  = 8
	hdrCount = 16
	hdrSize  = 24
)

// ErrEmpty is returned by Get when no free entries remain.
var ErrEmpty = errors.New("pool: empty")

// ErrFull is returned by Put when the buffer is at capacity.
var ErrFull = errors.New("pool: full")

// Pool is a fixed-capacity circular buffer of u64 entries in an arena.
// It is not internally synchronized: DStore guards its pools with the
// Fig. 4 pool lock.
type Pool struct {
	sp   space.Space
	base uint64
}

// New allocates a pool with the given capacity, pre-filled with entries
// 0..prefill-1 (the initially-free block or slot ids). It returns the pool
// and its arena offset.
func New(al *alloc.Allocator, capacity, prefill uint64) (*Pool, uint64, error) {
	if prefill > capacity {
		return nil, 0, fmt.Errorf("pool: prefill %d > capacity %d", prefill, capacity)
	}
	base, err := al.Alloc(hdrSize + 8*capacity)
	if err != nil {
		return nil, 0, err
	}
	sp := al.Space()
	sp.PutU64(base+hdrCap, capacity)
	sp.PutU64(base+hdrHead, 0)
	sp.PutU64(base+hdrCount, prefill)
	for i := uint64(0); i < prefill; i++ {
		sp.PutU64(base+hdrSize+8*i, i)
	}
	return &Pool{sp: sp, base: base}, base, nil
}

// Open attaches to an existing pool at base.
func Open(al *alloc.Allocator, base uint64) *Pool {
	return &Pool{sp: al.Space(), base: base}
}

// Free returns the number of free entries currently pooled.
func (p *Pool) Free() uint64 { return p.sp.GetU64(p.base + hdrCount) }

// Get pops the oldest free entry (FIFO).
func (p *Pool) Get() (uint64, error) {
	count := p.sp.GetU64(p.base + hdrCount)
	if count == 0 {
		return 0, ErrEmpty
	}
	capacity := p.sp.GetU64(p.base + hdrCap)
	head := p.sp.GetU64(p.base + hdrHead)
	v := p.sp.GetU64(p.base + hdrSize + 8*head)
	p.sp.PutU64(p.base+hdrHead, (head+1)%capacity)
	p.sp.PutU64(p.base+hdrCount, count-1)
	return v, nil
}

// ResetTo replaces the pool's contents with ids (in order). Used when
// recovery or checkpoint replay rebuilds the free sets from the metadata
// zone: with allocation ids recorded in log records, replay does not
// re-execute pool operations, it reconstitutes the free set afterwards.
func (p *Pool) ResetTo(ids []uint64) error {
	capacity := p.sp.GetU64(p.base + hdrCap)
	if uint64(len(ids)) > capacity {
		return fmt.Errorf("pool: %d ids exceed capacity %d", len(ids), capacity)
	}
	p.sp.PutU64(p.base+hdrHead, 0)
	p.sp.PutU64(p.base+hdrCount, uint64(len(ids)))
	for i, v := range ids {
		p.sp.PutU64(p.base+hdrSize+8*uint64(i), v)
	}
	return nil
}

// Put pushes a freed entry at the tail (FIFO).
func (p *Pool) Put(v uint64) error {
	capacity := p.sp.GetU64(p.base + hdrCap)
	count := p.sp.GetU64(p.base + hdrCount)
	if count == capacity {
		return ErrFull
	}
	head := p.sp.GetU64(p.base + hdrHead)
	p.sp.PutU64(p.base+hdrSize+8*((head+count)%capacity), v)
	p.sp.PutU64(p.base+hdrCount, count+1)
	return nil
}
