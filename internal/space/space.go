// Package space provides a uniform, offset-addressed memory abstraction over
// DRAM and simulated PMEM.
//
// DIPPER's central trick (paper §3.3, §3.5) is that the volatile frontend
// structures and their persistent shadow copies are *the same code operating
// on different memory*: all pointers are relative (offsets from a base), so a
// structure can be copied between DRAM and PMEM wholesale and operated on in
// either place. Space is that base: data-structure code (B-tree, pools,
// metadata zone, allocator) is written against Space and runs unmodified on
//
//   - DRAM: a plain byte slice whose persistence operations are no-ops, and
//   - PMEM: a window of a pmem.Device, where Flush/Fence drive the
//     cache-line persistence model.
//
// Offset 0 inside a Space is the structure's base address; 0 doubles as the
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

// Kind identifies the backing memory of a Space.
type Kind int

const (
	// DRAMKind marks a volatile Space.
	DRAMKind Kind = iota
	// PMEMKind marks a persistent Space.
	PMEMKind
)

func (k Kind) String() string {
	if k == PMEMKind {
		return "pmem"
	}
	return "dram"
}

// Space is a flat, offset-addressed memory region. Implementations must allow
// concurrent access to disjoint ranges; concurrent access to overlapping
// ranges requires caller synchronization (as with real memory).
type Space interface {
	// Kind reports the backing memory type.
	Kind() Kind
	// Size returns the region size in bytes.
	Size() uint64
	// Slice returns a read-only view of [off, off+n). Callers must not
	// mutate through it; use Write/Put* so the persistence model observes
	// every store.
	Slice(off, n uint64) []byte
	// Write copies p into the region at off.
	Write(off uint64, p []byte)
	// Zero clears [off, off+n).
	Zero(off, n uint64)
	// PutU64 stores a little-endian u64 (8-byte atomic when aligned).
	PutU64(off uint64, v uint64)
	// PutU32 stores a little-endian u32.
	PutU32(off uint64, v uint32)
	// PutU16 stores a little-endian u16.
	PutU16(off uint64, v uint16)
	// PutU8 stores a byte.
	PutU8(off uint64, v uint8)
	// GetU64 loads a little-endian u64.
	GetU64(off uint64) uint64
	// GetU32 loads a little-endian u32.
	GetU32(off uint64) uint32
	// GetU16 loads a little-endian u16.
	GetU16(off uint64) uint16
	// GetU8 loads a byte.
	GetU8(off uint64) uint8
	// Flush initiates persistence of [off, off+n) (no-op on DRAM).
	Flush(off, n uint64)
	// Fence completes all initiated flushes (no-op on DRAM).
	Fence()
	// Persist is Flush followed by Fence.
	Persist(off, n uint64)
}

// ---------------------------------------------------------------- DRAM

// DRAM is a volatile Space backed by a plain byte slice.
type DRAM struct {
	buf []byte
}

// NewDRAM allocates a volatile Space of the given size, pre-faulted so
// first-touch page faults do not pollute latency measurements.
func NewDRAM(size uint64) *DRAM {
	d := &DRAM{buf: make([]byte, size)}
	for i := uint64(0); i < size; i += 4096 {
		d.buf[i] = 0
	}
	return d
}

// Kind returns DRAMKind.
func (d *DRAM) Kind() Kind { return DRAMKind }

// Size returns the region size.
func (d *DRAM) Size() uint64 { return uint64(len(d.buf)) }

// check guards every DRAM access. Space accessors are infallible by design
// (the arena structures run the same code on DRAM and PMEM and defer
// durability to checkpoint-time FlushAll), so media-derived offsets must be
// validated by their decoders before use; an out-of-range access here is a
// programming error in the store.
//
//dstore:invariant
func (d *DRAM) check(off, n uint64) {
	if off+n > uint64(len(d.buf)) || off+n < off {
		panic(fmt.Sprintf("space: DRAM access [%d,%d) out of range (size %d)", off, off+n, len(d.buf)))
	}
}

// Slice returns a view of [off, off+n).
func (d *DRAM) Slice(off, n uint64) []byte { d.check(off, n); return d.buf[off : off+n : off+n] }

// Write copies p to off.
func (d *DRAM) Write(off uint64, p []byte) {
	d.check(off, uint64(len(p)))
	copy(d.buf[off:], p)
}

// Zero clears [off, off+n).
func (d *DRAM) Zero(off, n uint64) {
	d.check(off, n)
	b := d.buf[off : off+n]
	for i := range b {
		b[i] = 0
	}
}

// PutU64 stores a little-endian u64.
func (d *DRAM) PutU64(off uint64, v uint64) {
	d.check(off, 8)
	binary.LittleEndian.PutUint64(d.buf[off:], v)
}

// PutU32 stores a little-endian u32.
func (d *DRAM) PutU32(off uint64, v uint32) {
	d.check(off, 4)
	binary.LittleEndian.PutUint32(d.buf[off:], v)
}

// PutU16 stores a little-endian u16.
func (d *DRAM) PutU16(off uint64, v uint16) {
	d.check(off, 2)
	binary.LittleEndian.PutUint16(d.buf[off:], v)
}

// PutU8 stores a byte.
func (d *DRAM) PutU8(off uint64, v uint8) { d.check(off, 1); d.buf[off] = v }

// GetU64 loads a little-endian u64.
func (d *DRAM) GetU64(off uint64) uint64 {
	d.check(off, 8)
	return binary.LittleEndian.Uint64(d.buf[off:])
}

// GetU32 loads a little-endian u32.
func (d *DRAM) GetU32(off uint64) uint32 {
	d.check(off, 4)
	return binary.LittleEndian.Uint32(d.buf[off:])
}

// GetU16 loads a little-endian u16.
func (d *DRAM) GetU16(off uint64) uint16 {
	d.check(off, 2)
	return binary.LittleEndian.Uint16(d.buf[off:])
}

// GetU8 loads a byte.
func (d *DRAM) GetU8(off uint64) uint8 { d.check(off, 1); return d.buf[off] }

// Flush is a no-op on DRAM.
func (d *DRAM) Flush(off, n uint64) {}

// Fence is a no-op on DRAM.
func (d *DRAM) Fence() {}

// Persist is a no-op on DRAM.
func (d *DRAM) Persist(off, n uint64) {}

// ---------------------------------------------------------------- PMEM

// PMEM is a persistent Space: a window [base, base+size) of a pmem.Device.
// Multiple non-overlapping windows of one device host the paper's PMEM
// layout (root object, two logs, two shadow-arena generations).
type PMEM struct {
	dev  *pmem.Device
	base uint64
	size uint64
}

// NewPMEM creates a Space over dev's window [base, base+size). It returns
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
	return &PMEM{dev: dev, base: base, size: size}, nil
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

// Kind returns PMEMKind.
func (p *PMEM) Kind() Kind { return PMEMKind }

// Size returns the window size.
func (p *PMEM) Size() uint64 { return p.size }

// check guards every infallible window access; see (*DRAM).check for why
// reaching it is a programming error. The fallible Check* operations return
// ErrOutOfRange instead.
//
//dstore:invariant
func (p *PMEM) check(off, n uint64) {
	if off+n > p.size || off+n < off {
		panic(fmt.Sprintf("space: PMEM access [%d,%d) out of range (size %d)", off, off+n, p.size))
	}
}

// Slice returns a view of [off, off+n) in the device's volatile image. The
// image lives outside the Go heap (see pmem.Device.Bytes): the view is valid
// only while the device is reachable, so a result that outlives the window's
// owner must be a copy.
func (p *PMEM) Slice(off, n uint64) []byte {
	p.check(off, n)
	a := p.base + off
	return p.dev.Bytes()[a : a+n : a+n]
}

// Write copies p into the window at off.
func (p *PMEM) Write(off uint64, b []byte) {
	p.check(off, uint64(len(b)))
	p.dev.WriteAt(p.base+off, b)
}

// Zero clears [off, off+n).
func (p *PMEM) Zero(off, n uint64) {
	p.check(off, n)
	const chunk = 4096
	var zeros [chunk]byte
	for n > 0 {
		c := n
		if c > chunk {
			c = chunk
		}
		p.dev.WriteAt(p.base+off, zeros[:c])
		off += c
		n -= c
	}
}

// PutU64 stores a little-endian u64 (atomic at 8-byte alignment).
func (p *PMEM) PutU64(off uint64, v uint64) { p.check(off, 8); p.dev.PutU64(p.base+off, v) }

// PutU32 stores a little-endian u32.
func (p *PMEM) PutU32(off uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	p.Write(off, b[:])
}

// PutU16 stores a little-endian u16.
func (p *PMEM) PutU16(off uint64, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	p.Write(off, b[:])
}

// PutU8 stores a byte.
func (p *PMEM) PutU8(off uint64, v uint8) { p.Write(off, []byte{v}) }

// GetU64 loads a little-endian u64.
func (p *PMEM) GetU64(off uint64) uint64 { p.check(off, 8); return p.dev.GetU64(p.base + off) }

// GetU32 loads a little-endian u32.
func (p *PMEM) GetU32(off uint64) uint32 {
	return binary.LittleEndian.Uint32(p.Slice(off, 4))
}

// GetU16 loads a little-endian u16.
func (p *PMEM) GetU16(off uint64) uint16 {
	return binary.LittleEndian.Uint16(p.Slice(off, 2))
}

// GetU8 loads a byte.
func (p *PMEM) GetU8(off uint64) uint8 { return p.Slice(off, 1)[0] }

// Flush initiates persistence of [off, off+n).
func (p *PMEM) Flush(off, n uint64) {
	if n == 0 {
		return
	}
	p.check(off, n)
	p.dev.Flush(p.base+off, n)
}

// Fence completes initiated flushes.
func (p *PMEM) Fence() { p.dev.Fence() }

// CheckFault consults the device's fault plan for one write-stream operation
// covering [off, off+n), without touching memory. The WAL uses it to treat a
// whole append protocol (body stores, reverse-order flushes, LSN persist) as
// a single fallible media operation. Returns nil when no plan is installed.
func (p *PMEM) CheckFault(off, n uint64) error {
	if off+n > p.size || off+n < off {
		return fmt.Errorf("%w: access [%d,%d) exceeds window size %d", ErrOutOfRange, off, off+n, p.size)
	}
	return p.dev.CheckWriteFault(p.base+off, n)
}

// CheckPersisted forwards the strict-persist-order commit-point check to the
// device (see pmem.Device.CheckPersisted). It returns nil unless the device
// was armed with StrictPersistOrder, so commit points call it
// unconditionally.
func (p *PMEM) CheckPersisted(off, n uint64) error {
	if off+n > p.size || off+n < off {
		return fmt.Errorf("%w: access [%d,%d) exceeds window size %d", ErrOutOfRange, off, off+n, p.size)
	}
	return p.dev.CheckPersisted(p.base+off, n)
}

// Persist is Flush followed by Fence.
func (p *PMEM) Persist(off, n uint64) {
	p.Flush(off, n)
	p.Fence()
}

// Copy copies n bytes from src (starting at srcOff) into dst (at dstOff).
// It works across any Space kinds and is how shadow arenas are cloned and
// the volatile space is rebuilt from PMEM at recovery.
func Copy(dst Space, dstOff uint64, src Space, srcOff, n uint64) {
	const chunk = 64 * 1024
	for n > 0 {
		c := n
		if c > chunk {
			c = chunk
		}
		dst.Write(dstOff, src.Slice(srcOff, c))
		dstOff += c
		srcOff += c
		n -= c
	}
}
