// Package space provides a uniform, offset-addressed memory abstraction over
// DRAM and simulated PMEM.
//
// DIPPER's central trick (paper §3.3, §3.5) is that the volatile frontend
// structures and their persistent shadow copies are *the same code operating
// on different memory*: all pointers are relative (offsets from a base), so a
// structure can be copied between DRAM and PMEM wholesale and operated on in
// either place. Arena is that base: data-structure code (B-tree, pools,
// metadata zone, allocator) is written against *Arena and runs unmodified on
//
//   - DRAM: a plain byte slice whose persistence operations are no-ops, and
//   - PMEM: a window of a pmem.Device, whose stores go through the device so
//     Flush/Fence drive the cache-line persistence model.
//
// An arena may carry a Barrier that runs around every store (never around a
// read); DStore's copy-on-write checkpoint mode uses it as its page-fault
// handler.
//
// Offset 0 inside an Arena is the structure's base address; 0 doubles as the
// nil relative pointer (no valid allocation starts at offset 0 because the
// allocator header lives there).
package space

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dstore/internal/pmem"
)

// ErrOutOfRange is the typed error returned by NewPMEM for bad window
// geometry and by the fallible Check* operations for accesses outside a
// window. Geometry that reaches NewPMEM may be media-derived (the root
// object's shadow-generation and active-log fields select windows at
// recovery), so a bad range is a runtime condition there.
var ErrOutOfRange = errors.New("space: out of range")

// Barrier brackets every store into an arena: Enter(off, n) runs before the
// store to [off, off+n) and Exit after it. Reads never call it.
type Barrier interface {
	Enter(off, n uint64)
	Exit()
}

// Arena is a flat, offset-addressed memory region: DRAM, or a window of a
// pmem.Device. Concurrent access to disjoint ranges is allowed; concurrent
// access to overlapping ranges requires caller synchronization (as with real
// memory).
type Arena struct {
	buf     []byte       // the region; for a window, a view of the device image
	dev     *pmem.Device // nil for DRAM
	base    uint64       // the window's offset within dev
	barrier Barrier      // nil unless SetBarrier was called
}

// NewDRAM allocates a volatile arena of the given size, pre-faulted so
// first-touch page faults do not pollute latency measurements.
func NewDRAM(size uint64) *Arena {
	a := &Arena{buf: make([]byte, size)}
	for i := uint64(0); i < size; i += 4096 {
		a.buf[i] = 0
	}
	return a
}

// SetBarrier installs b around every later store. Call it before the arena
// is shared.
func (a *Arena) SetBarrier(b Barrier) { a.barrier = b }

// Size returns the region size in bytes.
func (a *Arena) Size() uint64 { return uint64(len(a.buf)) }

// check guards every access. Arena accessors are infallible by design (the
// arena structures run the same code on DRAM and PMEM and defer durability
// to the checkpoint's flush), so media-derived offsets must be validated
// by their decoders before use; an out-of-range access here is a
// programming error in the store. The fallible Check* operations of a PMEM
// window return ErrOutOfRange instead.
//
//dstore:invariant
func (a *Arena) check(off, n uint64) {
	if off+n > uint64(len(a.buf)) || off+n < off {
		panic(fmt.Sprintf("space: access [%d,%d) out of range (size %d)", off, off+n, len(a.buf)))
	}
}

// Slice returns a read-only view of [off, off+n). Callers must not mutate
// through it; use Write/Put* so the persistence model observes every store.
// A window's view lies in the device's image, which lives outside the Go
// heap (see pmem.Device.Bytes): it is valid only while the device is
// reachable, so a result that outlives the window's owner must be a copy.
func (a *Arena) Slice(off, n uint64) []byte { a.check(off, n); return a.buf[off : off+n : off+n] }

// Write copies p into the region at off. Through a bare *Arena the store is
// volatile until the structure's checkpoint flushes it, by design;
// persist-order tracks the same call made on a *PMEM log window by its
// receiver.
//
//dstore:volatile
func (a *Arena) Write(off uint64, p []byte) {
	n := uint64(len(p))
	a.check(off, n)
	if a.barrier != nil {
		a.barrier.Enter(off, n)
	}
	if a.dev != nil {
		a.dev.WriteAt(a.base+off, p)
	} else {
		copy(a.buf[off:], p)
	}
	if a.barrier != nil {
		a.barrier.Exit()
	}
}

// zeroPage is the source Zero copies from: a device write only reads it, so
// one shared page serves every caller and no call clears a buffer of its own.
var zeroPage [4096]byte

// Zero clears [off, off+n).
//
//dstore:volatile
func (a *Arena) Zero(off, n uint64) {
	a.check(off, n)
	if a.barrier != nil {
		a.barrier.Enter(off, n)
	}
	if a.dev == nil {
		clear(a.buf[off : off+n])
	} else {
		for n > 0 {
			c := min(n, uint64(len(zeroPage)))
			a.dev.WriteAt(a.base+off, zeroPage[:c])
			off += c
			n -= c
		}
	}
	if a.barrier != nil {
		a.barrier.Exit()
	}
}

// PutU64 stores a little-endian u64 (atomic at 8-byte alignment).
func (a *Arena) PutU64(off uint64, v uint64) {
	if a.dev == nil && a.barrier == nil {
		a.check(off, 8)
		binary.LittleEndian.PutUint64(a.buf[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	a.Write(off, b[:])
}

// PutU32 stores a little-endian u32.
func (a *Arena) PutU32(off uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	a.Write(off, b[:])
}

// PutU16 stores a little-endian u16.
func (a *Arena) PutU16(off uint64, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	a.Write(off, b[:])
}

// PutU8 stores a byte.
func (a *Arena) PutU8(off uint64, v uint8) { a.Write(off, []byte{v}) }

// GetU64 loads a little-endian u64. On a window it counts as an 8-byte
// device read.
func (a *Arena) GetU64(off uint64) uint64 {
	a.check(off, 8)
	if a.dev != nil {
		return a.dev.GetU64(a.base + off)
	}
	return binary.LittleEndian.Uint64(a.buf[off:])
}

// GetU32 loads a little-endian u32.
func (a *Arena) GetU32(off uint64) uint32 { return binary.LittleEndian.Uint32(a.Slice(off, 4)) }

// GetU16 loads a little-endian u16.
func (a *Arena) GetU16(off uint64) uint16 { return binary.LittleEndian.Uint16(a.Slice(off, 2)) }

// GetU8 loads a byte.
func (a *Arena) GetU8(off uint64) uint8 { a.check(off, 1); return a.buf[off] }

// Flush initiates persistence of [off, off+n) (no-op on DRAM).
func (a *Arena) Flush(off, n uint64) {
	if a.dev == nil || n == 0 {
		return
	}
	a.check(off, n)
	a.dev.Flush(a.base+off, n)
}

// Fence completes all initiated flushes (no-op on DRAM).
func (a *Arena) Fence() {
	if a.dev != nil {
		a.dev.Fence()
	}
}

// Persist is Flush followed by Fence.
func (a *Arena) Persist(off, n uint64) {
	a.Flush(off, n)
	a.Fence()
}

// PMEM is a persistent arena: a window [base, base+size) of a pmem.Device.
// Multiple non-overlapping windows of one device host the paper's PMEM
// layout (root object, two logs, two shadow-arena generations). The WAL
// holds its logs as *PMEM, so the persist-order checker sees every store
// it makes; arena structures take the embedded *Arena.
type PMEM struct {
	Arena
}

// NewPMEM creates a window over dev's [base, base+size). It returns
// ErrOutOfRange when the window exceeds the device or the base is not
// cache-line aligned — window geometry can be media-derived (recovery
// selects windows from the root object's recorded generation fields), so
// bad geometry is a runtime condition, not a programming error.
func NewPMEM(dev *pmem.Device, base, size uint64) (*PMEM, error) {
	if base+size > uint64(dev.Size()) || base+size < base {
		return nil, fmt.Errorf("%w: PMEM window [%d,%d) exceeds device size %d", ErrOutOfRange, base, base+size, dev.Size())
	}
	if base%pmem.LineSize != 0 {
		return nil, fmt.Errorf("%w: PMEM window base %d is not cache-line aligned", ErrOutOfRange, base)
	}
	buf := dev.Bytes()[base : base+size : base+size]
	return &PMEM{Arena{buf: buf, dev: dev, base: base}}, nil
}

// MustPMEM is NewPMEM for callers whose geometry is statically correct
// (tests and compile-time layouts); it panics where NewPMEM errors.
//
//dstore:invariant
func MustPMEM(dev *pmem.Device, base, size uint64) *PMEM {
	p, err := NewPMEM(dev, base, size)
	if err != nil {
		panic(err)
	}
	return p
}

// Device returns the underlying device.
func (p *PMEM) Device() *pmem.Device { return p.dev }

// Base returns the window's base offset within the device.
func (p *PMEM) Base() uint64 { return p.base }

// rangeErr is the fallible form of check.
func (p *PMEM) rangeErr(off, n uint64) error {
	if off+n > p.Size() || off+n < off {
		return fmt.Errorf("%w: access [%d,%d) exceeds window size %d", ErrOutOfRange, off, off+n, p.Size())
	}
	return nil
}

// CheckFault consults the device's fault plan for one write-stream operation
// covering [off, off+n), without touching memory. The WAL uses it to treat a
// whole append protocol (body stores, reverse-order flushes, LSN persist) as
// a single fallible media operation. Returns nil when no plan is installed.
func (p *PMEM) CheckFault(off, n uint64) error {
	if err := p.rangeErr(off, n); err != nil {
		return err
	}
	return p.dev.CheckWriteFault(p.base+off, n)
}

// CheckPersisted forwards the strict-persist-order commit-point check to the
// device (see pmem.Device.CheckPersisted). It returns nil unless the device
// was armed with StrictPersistOrder, so commit points call it
// unconditionally.
func (p *PMEM) CheckPersisted(off, n uint64) error {
	if err := p.rangeErr(off, n); err != nil {
		return err
	}
	return p.dev.CheckPersisted(p.base+off, n)
}

// Copy copies n bytes from src (starting at srcOff) into dst (at dstOff).
// It works across DRAM and PMEM arenas and is how shadow arenas are cloned
// and the volatile arena is rebuilt from PMEM at recovery.
func Copy(dst *Arena, dstOff uint64, src *Arena, srcOff, n uint64) {
	const chunk = 64 * 1024
	for n > 0 {
		c := min(n, chunk)
		dst.Write(dstOff, src.Slice(srcOff, c))
		dstOff += c
		srcOff += c
		n -= c
	}
}
