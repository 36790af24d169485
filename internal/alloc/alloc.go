// Package alloc implements the slab memory allocator used for both the DRAM
// system space and the PMEM checkpoint space (paper §3.3, §4.2).
//
// The paper delegates three jobs to the allocator:
//
//  1. the same allocator design manages DRAM and PMEM, so the volatile space
//     can be reconstructed from the persistent space by copying;
//  2. it can iterate over all allocated memory and flush it to PMEM
//     (durability at the end of a checkpoint);
//  3. it can create a copy of its own state (shadow updates / atomicity and
//     avoiding persistent leaks).
//
// This implementation achieves all three by storing the allocator state
// *inside* the Arena it manages, at fixed offsets, with every internal
// pointer relative: cloning an arena is a single range copy of its used
// prefix ([0, bump)), and flushing everything allocated is a single range
// flush of the same prefix. It is a slab allocator with power-of-two size
// classes, exactly as described in §4.2 ("a simple slab-based memory
// allocator ... slabs in different size classes that are a power of two"),
// kept to the four the B+ tree uses (64–512 B). The metadata zone, fixed in
// size and never freed, takes no class: Reserve carves it at its exact size.
//
// A small array of user "roots" in the header plays the role of PMDK's root
// object: the store records the offsets of its top-level structures (B+ tree
// header, metadata zone) there, so they survive cloning and recovery.
package alloc

import (
	"errors"
	"fmt"
	"sync"

	"dstore/internal/space"
)

// ErrCorrupt is the typed error wrapped by operations that decode
// inconsistent allocator state from the arena (bad block headers, free-list
// entries outside the heap, a bump pointer outside the arena). Arena content
// is media-derived — it survives crashes and device faults — so corruption
// is a runtime condition, not a programming error.
var ErrCorrupt = errors.New("alloc: arena corrupt")

// ErrOutOfRange is the typed error wrapped when a caller-supplied offset
// falls outside the arena heap.
var ErrOutOfRange = errors.New("alloc: offset out of range")

const (
	// Magic seals a formatted arena header.
	Magic = 0xD1BBE5_0000_0002

	// MinClass is the smallest block size (one cache line).
	MinClass = 64
	// NumClasses covers block sizes 64 B .. 512 B.
	NumClasses = 4
	// NumRoots is the number of user root slots.
	NumRoots = 2

	blockMagic = 0xA110C000 // upper bits of a block header word

	offMagic     = 0
	offSize      = 8
	offBump      = 16
	offRoots     = 24
	offFreeHeads = offRoots + 8*NumRoots
	// HeaderSize is the formatted header length, cache-line rounded.
	HeaderSize = (offFreeHeads + 8*NumClasses + 63) / 64 * 64
)

// Allocator manages allocations inside an Arena. The zero value is not usable;
// obtain one with Format or Open. Allocator is safe for concurrent use.
type Allocator struct {
	mu sync.Mutex
	sp *space.Arena
}

// classSize returns the block size of class c.
func classSize(c int) uint64 { return MinClass << uint(c) }

// classFor returns the smallest class whose block fits a payload of n bytes
// (plus the 8-byte block header), or -1 if none does.
func classFor(n uint64) int {
	need := n + 8
	for c := 0; c < NumClasses; c++ {
		if classSize(c) >= need {
			return c
		}
	}
	return -1
}

// Format initializes a fresh arena in sp and returns its allocator. Arena
// sizes are configuration, not media state, so an unusably small space is a
// programmer error and panics.
//
//dstore:invariant
func Format(sp *space.Arena) *Allocator {
	if sp.Size() < HeaderSize+MinClass {
		panic("alloc: space too small to format")
	}
	sp.Zero(0, HeaderSize)
	sp.PutU64(offSize, sp.Size())
	sp.PutU64(offBump, HeaderSize)
	sp.PutU64(offMagic, Magic)
	return &Allocator{sp: sp}
}

// Open attaches to an already-formatted arena (e.g. after recovery copied a
// PMEM shadow into a DRAM space). It fails if the header is not sealed.
func Open(sp *space.Arena) (*Allocator, error) {
	if sp.GetU64(offMagic) != Magic {
		return nil, fmt.Errorf("alloc: bad arena magic %#x", sp.GetU64(offMagic))
	}
	if got := sp.GetU64(offSize); got != sp.Size() {
		return nil, fmt.Errorf("alloc: arena formatted for size %d, space has %d", got, sp.Size())
	}
	if bump := sp.GetU64(offBump); bump < HeaderSize || bump > sp.Size() {
		return nil, fmt.Errorf("%w: bump pointer %d outside [%d,%d]", ErrCorrupt, bump, HeaderSize, sp.Size())
	}
	return &Allocator{sp: sp}, nil
}

// Space returns the managed Arena.
func (a *Allocator) Space() *space.Arena { return a.sp }

// Alloc returns the offset of a zeroed block able to hold size bytes, or an
// error if size needs more than the 512-byte class or the arena is exhausted.
// Offset 0 is never returned (it is the nil relative pointer).
func (a *Allocator) Alloc(size uint64) (_ uint64, err error) {
	c := classFor(size)
	if c < 0 {
		return 0, fmt.Errorf("alloc: size %d exceeds max class", size)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	bs := classSize(c)
	headOff := uint64(offFreeHeads + 8*c)
	block := a.sp.GetU64(headOff)
	if block != 0 {
		// The free-list head is media-derived: validate it lies inside the
		// heap before dereferencing its next pointer, so a corrupt arena
		// surfaces as a typed error rather than an out-of-range access.
		if block < HeaderSize || block+bs > a.sp.Size() {
			return 0, fmt.Errorf("%w: class-%d free list head %d outside heap [%d,%d)", ErrCorrupt, c, block, HeaderSize, a.sp.Size())
		}
		next := a.sp.GetU64(block + 8)
		a.sp.PutU64(headOff, next)
	} else if block, err = a.bump(bs); err != nil {
		return 0, err
	}
	a.sp.PutU64(block, uint64(blockMagic)<<32|uint64(c))
	a.sp.Zero(block+8, bs-8)
	return block + 8, nil
}

// Reserve carves a permanent, zeroed region of n bytes, rounded up to a line,
// at the bump pointer and returns its line-aligned offset, or fails and moves
// nothing. The region has no block header, so Free of it returns ErrCorrupt.
func (a *Allocator) Reserve(n uint64) (uint64, error) {
	n = (n + 63) &^ 63
	a.mu.Lock()
	defer a.mu.Unlock()
	off, err := a.bump(n)
	if err == nil {
		a.sp.Zero(off, n) // a clone destination keeps old bytes past its prefix
	}
	return off, err
}

// bump takes n fresh bytes from the end of the used prefix; a.mu is held.
func (a *Allocator) bump(n uint64) (uint64, error) {
	off := a.sp.GetU64(offBump)
	if n > a.sp.Size()-off {
		return 0, fmt.Errorf("alloc: arena exhausted (bump %d + %d > %d)", off, n, a.sp.Size())
	}
	a.sp.PutU64(offBump, off+n)
	return off, nil
}

// Free returns the block holding payload offset off to its size-class free
// list. Offsets flow through logged records and replay, so a bad or
// already-freed offset — double frees included, caught by the cleared
// header — is reported as a typed ErrOutOfRange/ErrCorrupt error rather
// than a panic.
func (a *Allocator) Free(off uint64) error {
	if off < HeaderSize+8 || off+8 > a.sp.Size() {
		return fmt.Errorf("%w: Free(%d) outside heap", ErrOutOfRange, off)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	block := off - 8
	hdr := a.sp.GetU64(block)
	if hdr>>32 != blockMagic {
		return fmt.Errorf("%w: Free(%d): bad block header %#x", ErrCorrupt, off, hdr)
	}
	c := int(hdr & 0xff)
	if c < 0 || c >= NumClasses {
		return fmt.Errorf("%w: Free(%d): bad class %d", ErrCorrupt, off, c)
	}
	headOff := uint64(offFreeHeads + 8*c)
	a.sp.PutU64(block, 0) // clear header so double frees are caught
	a.sp.PutU64(block+8, a.sp.GetU64(headOff))
	a.sp.PutU64(headOff, block)
	return nil
}

// SetRoot stores a user root pointer. Root indices are compile-time
// constants in the store, so a bad index is a programmer error.
//
//dstore:invariant
func (a *Allocator) SetRoot(i int, v uint64) {
	if i < 0 || i >= NumRoots {
		panic("alloc: root index out of range")
	}
	a.sp.PutU64(uint64(offRoots+8*i), v)
}

// Root loads a user root pointer; see SetRoot for why a bad index panics.
//
//dstore:invariant
func (a *Allocator) Root(i int) uint64 {
	if i < 0 || i >= NumRoots {
		panic("alloc: root index out of range")
	}
	return a.sp.GetU64(uint64(offRoots + 8*i))
}

// Used returns the arena's used prefix length (header, reserved regions and
// all slabs ever allocated). Cloning or flushing [0, Used()) captures the
// entire arena state, allocator included.
func (a *Allocator) Used() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sp.GetU64(offBump)
}

// FlushAll persists the entire used prefix of the arena — the paper's
// "iterate over all allocated memory regions and flush them to PMEM",
// executed at the end of a checkpoint. A no-op on DRAM spaces.
func (a *Allocator) FlushAll() {
	used := a.Used()
	a.sp.Persist(0, used)
}

// CloneTo copies the arena (allocator state and all blocks) into dst, which
// must be at least Used() bytes. This implements the paper's "create a copy
// of the allocator state" — shadow-copy creation at checkpoint time and the
// PMEM→DRAM rebuild at recovery are both CloneTo calls.
func (a *Allocator) CloneTo(dst *space.Arena) (*Allocator, error) {
	a.mu.Lock()
	used := a.sp.GetU64(offBump)
	if dst.Size() < used {
		a.mu.Unlock()
		return nil, fmt.Errorf("alloc: clone destination too small (%d < %d)", dst.Size(), used)
	}
	space.Copy(dst, 0, a.sp, 0, used)
	a.mu.Unlock()
	// The destination header records the source's formatted size; fix it up
	// to the destination's actual capacity so Open and bump checks agree.
	dst.PutU64(offSize, dst.Size())
	return &Allocator{sp: dst}, nil
}
