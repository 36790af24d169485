// Package pmem simulates a byte-addressable persistent memory device with
// cache-line granular persistence semantics, in the style of Intel Optane
// DCPMM in App Direct mode.
//
// The paper's protocols (DIPPER log writes, shadow checkpoints, the root
// object flip) are only correct or incorrect with respect to the x86 PMEM
// persistence model: stores land in volatile CPU caches, cache lines become
// persistent when explicitly flushed (clwb/clflushopt) and fenced (sfence),
// and lines may also be evicted — and thus persisted — spuriously at any
// time. Atomicity is 8 bytes. This package models exactly that:
//
//   - every store dirties the 64-byte lines it touches and records the
//     last-persistent image of each line the first time it is dirtied;
//   - Flush stages the *current* content of a line (matching clwb semantics:
//     a later store re-dirties the line, but the staged image is what the
//     pending flush will persist);
//   - Fence commits all staged images to the persistent image;
//   - Crash discards the volatile view: each line still dirty or staged
//     resolves, per a CrashPolicy, to its persistent image, its staged image,
//     or its current content (the spurious-eviction case).
//
// A Device also injects calibrated Optane-like latencies (see Config) and
// keeps byte/flush counters used by the bandwidth experiments (paper Fig. 7).
package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dstore/internal/devmem"
	"dstore/internal/fault"
	"dstore/internal/latency"
)

// LineSize is the cache line size assumed by the persistence model.
const LineSize = 64

// CrashPolicy selects how unflushed state resolves at a simulated power loss.
type CrashPolicy int

const (
	// CrashDropDirty reverts every non-persistent line to its persistent
	// image (staged-but-not-fenced flushes are lost too). This is the
	// adversarial "nothing you did not fence survived" outcome.
	CrashDropDirty CrashPolicy = iota
	// CrashKeepAll persists all current content (every dirty line happened
	// to be evicted before the power loss). The benign extreme.
	CrashKeepAll
	// CrashRandom resolves each line independently at random between its
	// persistent, staged, and current images, emulating arbitrary spurious
	// evictions. Used by the property tests; seeded for reproducibility.
	CrashRandom
)

// Config configures a Device.
type Config struct {
	// Size is the device capacity in bytes, rounded up to a line multiple.
	Size int
	// TrackPersistence enables the dirty/staged line model needed for
	// Crash(). Performance experiments that never crash can disable it to
	// remove the bookkeeping from the measured path.
	TrackPersistence bool
	// Latency calibrates injected delays. Zero values mean no delay.
	Latency Latencies
	// Faults, when non-nil, is consulted by CheckWriteFault (the log-append
	// path). The plan's page unit is the 64-byte cache
	// line. The infallible WriteAt/Flush/Fence methods — used by structures
	// that recover from DRAM shadows rather than per-write error handling —
	// never consult it.
	Faults *fault.Plan
	// StrictPersistOrder arms CheckPersisted, the runtime companion to the
	// dstore-vet persist-order checker: protocol commit points (the WAL
	// record publish) verify that every tracked cache line they are about
	// to seal is already persistent, and fail with the offending offsets
	// otherwise. Requires TrackPersistence; intended for tests.
	StrictPersistOrder bool
}

// Latencies models Optane DCPMM timing. The defaults used by the benchmark
// harness (DefaultLatencies) are calibrated so a single log-record flush costs
// ≈ 615 ns, matching paper Table 3.
type Latencies struct {
	// ReadPerLine is charged per cache line by ReadAt.
	ReadPerLine time.Duration
	// WritePerLine is charged per cache line by WriteAt (stores to the WC
	// buffer are nearly free on real hardware; keep small or zero).
	WritePerLine time.Duration
	// FlushPerLine is charged per line by Flush.
	FlushPerLine time.Duration
	// Fence is charged by Fence.
	Fence time.Duration
	// Batch terms: real flushes/reads of large ranges pipeline in the
	// memory controller, so a multi-line operation costs
	// min(lines*PerLine, PerLine + lines*BatchPerLine) — a first-line
	// latency plus a bandwidth term. Zero disables batching (pure linear).
	FlushBatchPerLine time.Duration
	ReadBatchPerLine  time.Duration
}

// rangeCost applies the batched cost model for an n-line operation.
func rangeCost(lines uint64, perLine, batchPerLine time.Duration) time.Duration {
	linear := time.Duration(lines) * perLine
	if batchPerLine <= 0 || lines <= 1 {
		return linear
	}
	batched := perLine + time.Duration(lines)*batchPerLine
	if batched < linear {
		return batched
	}
	return linear
}

// DefaultLatencies returns the Optane-calibrated latency model used by the
// benchmark harness.
func DefaultLatencies() Latencies {
	return Latencies{
		ReadPerLine:       100 * time.Nanosecond,
		WritePerLine:      0,
		FlushPerLine:      150 * time.Nanosecond,
		Fence:             50 * time.Nanosecond,
		FlushBatchPerLine: 10 * time.Nanosecond, // ~6 GB/s write-flush bandwidth
		ReadBatchPerLine:  3 * time.Nanosecond,  // ~20 GB/s read bandwidth
	}
}

// Stats holds monotonically increasing device counters. Snapshot with
// Device.Stats; rates are derived by the harness sampler.
type Stats struct {
	BytesWritten uint64
	BytesRead    uint64
	LinesFlushed uint64
	Fences       uint64
	// InjectedErrs counts operations failed by the device fault plan.
	InjectedErrs uint64
}

const lineShards = 64

// lineState tracks a line that is not identical to its persistent image.
type lineState struct {
	persisted []byte // image guaranteed to survive CrashDropDirty
	staged    []byte // image captured by an un-fenced Flush, nil if none
}

type lineShard struct {
	mu     sync.Mutex
	lines  map[uint64]*lineState // guarded by mu
	staged []uint64              // guarded by mu; line indices with a staged image awaiting a fence
}

// Device is a simulated PMEM device. All methods are safe for concurrent use.
// Distinct goroutines writing the same cache line concurrently must provide
// their own synchronization, exactly as on real hardware.
type Device struct {
	img    *devmem.Image // owns buf; off the Go heap (see package devmem)
	buf    []byte
	track  bool
	strict bool // see Config.StrictPersistOrder
	lat    Latencies
	hook   func() // fault-injection hook; see SetMutationHook
	faults *fault.Plan

	shards [lineShards]lineShard

	bytesWritten atomic.Uint64
	bytesRead    atomic.Uint64
	linesFlushed atomic.Uint64
	fences       atomic.Uint64
	injectedErrs atomic.Uint64
}

// New creates a Device per cfg.
func New(cfg Config) *Device {
	size := cfg.Size
	if size <= 0 {
		size = LineSize
	}
	if size%LineSize != 0 {
		size += LineSize - size%LineSize
	}
	img := devmem.New(size)
	d := &Device{
		img:    img,
		buf:    img.Bytes(),
		track:  cfg.TrackPersistence,
		strict: cfg.StrictPersistOrder,
		lat:    cfg.Latency,
		faults: cfg.Faults,
	}
	for i := range d.shards {
		// The device has not escaped yet, but the line maps are "guarded by
		// mu" — take the (uncontended) lock so the discipline holds on every
		// access, including construction.
		s := &d.shards[i]
		s.mu.Lock()
		s.lines = make(map[uint64]*lineState)
		s.mu.Unlock()
	}
	return d
}

// SetMutationHook installs fn to run at the start of every mutating device
// operation (WriteAt, Flush, Fence). It exists for deterministic
// fault-injection tests — fn can panic at a chosen mutation count to model a
// crash at an exact point in a persistence protocol. The hook is read
// without synchronization: install it before concurrent use and only from
// single-goroutine test harnesses.
func (d *Device) SetMutationHook(fn func()) { d.hook = fn }

// SetFaultPlan installs (or, with nil, removes) the fault plan consulted by
// CheckWriteFault. Install before concurrent use.
func (d *Device) SetFaultPlan(p *fault.Plan) { d.faults = p }

// Size returns the device capacity in bytes.
func (d *Device) Size() int { return len(d.buf) }

// Bytes exposes the device's volatile view for zero-copy reads. Callers must
// not write through the returned slice; all mutation must go through WriteAt /
// Put* so the persistence model observes it. The view lives outside the Go
// heap and is valid only while the Device is reachable: a caller that keeps
// any part of it after dropping the Device must copy it first.
func (d *Device) Bytes() []byte { return d.buf }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		BytesWritten: d.bytesWritten.Load(),
		BytesRead:    d.bytesRead.Load(),
		LinesFlushed: d.linesFlushed.Load(),
		Fences:       d.fences.Load(),
		InjectedErrs: d.injectedErrs.Load(),
	}
}

func (d *Device) shardFor(line uint64) *lineShard {
	return &d.shards[line%lineShards]
}

// markDirty records the persistent image of each line in [off, off+n) before
// the caller overwrites it.
func (d *Device) markDirty(off, n uint64) {
	first := off / LineSize
	last := (off + n - 1) / LineSize
	for line := first; line <= last; line++ {
		s := d.shardFor(line)
		s.mu.Lock()
		if _, ok := s.lines[line]; !ok {
			img := make([]byte, LineSize)
			copy(img, d.buf[line*LineSize:(line+1)*LineSize])
			s.lines[line] = &lineState{persisted: img}
		}
		s.mu.Unlock()
	}
}

// ErrOutOfRange is the typed error CheckWriteFault returns for accesses
// outside the device. Offsets that reach it may be media-derived (log
// headers, root state), so a bad range is a runtime condition there, not a
// programming error.
var ErrOutOfRange = errors.New("pmem: access out of range")

// rangeErr validates [off, off+n) against the device size.
func (d *Device) rangeErr(off, n uint64) error {
	if off+n > uint64(len(d.buf)) || off+n < off {
		return fmt.Errorf("%w: [%d,%d) exceeds size %d", ErrOutOfRange, off, off+n, len(d.buf))
	}
	return nil
}

// checkRange guards the infallible operations, which are reserved for
// callers whose offsets were validated upstream: the space layer
// bounds-checks every window access, and media-derived offsets are
// validated by their decoders (alloc header, meta geometry, WAL record
// bounds) before they reach a device operation. Reaching this panic is a
// programming error in the store, not a runtime condition.
//
//dstore:invariant
func (d *Device) checkRange(off, n uint64) {
	if err := d.rangeErr(off, n); err != nil {
		panic(err)
	}
}

// WriteAt copies p into the device at off. The affected lines become dirty.
func (d *Device) WriteAt(off uint64, p []byte) {
	if d.hook != nil {
		d.hook()
	}
	if len(p) == 0 {
		return
	}
	n := uint64(len(p))
	d.checkRange(off, n)
	if d.track {
		d.markDirty(off, n)
	}
	copy(d.buf[off:], p)
	d.bytesWritten.Add(n)
	if d.lat.WritePerLine > 0 {
		lines := int((off+n-1)/LineSize - off/LineSize + 1)
		latency.Spin(time.Duration(lines) * d.lat.WritePerLine)
	}
}

// ReadAt copies device content at off into p.
func (d *Device) ReadAt(off uint64, p []byte) {
	if len(p) == 0 {
		return
	}
	n := uint64(len(p))
	d.checkRange(off, n)
	copy(p, d.buf[off:off+n])
	d.bytesRead.Add(n)
	if d.lat.ReadPerLine > 0 {
		lines := (off+n-1)/LineSize - off/LineSize + 1
		latency.Spin(rangeCost(lines, d.lat.ReadPerLine, d.lat.ReadBatchPerLine))
	}
}

// PutU64 stores an 8-byte little-endian word. With 8-byte alignment this is
// the atomic store granularity the paper relies on for LSNs and the root seal.
func (d *Device) PutU64(off uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.WriteAt(off, b[:])
}

// PutU8 stores one byte.
func (d *Device) PutU8(off uint64, v uint8) {
	d.WriteAt(off, []byte{v})
}

// GetU8 loads one byte.
func (d *Device) GetU8(off uint64) uint8 {
	d.checkRange(off, 1)
	d.bytesRead.Add(1)
	return d.buf[off]
}

// GetU64 loads an 8-byte little-endian word.
func (d *Device) GetU64(off uint64) uint64 {
	d.checkRange(off, 8)
	d.bytesRead.Add(8)
	return binary.LittleEndian.Uint64(d.buf[off:])
}

// Flush stages the current content of every line overlapping [off, off+n)
// for persistence (clwb semantics). The staged image becomes persistent at
// the next Fence.
func (d *Device) Flush(off, n uint64) {
	if d.hook != nil {
		d.hook()
	}
	if n == 0 {
		return
	}
	d.checkRange(off, n)
	first := off / LineSize
	last := (off + n - 1) / LineSize
	lines := last - first + 1
	d.linesFlushed.Add(lines)
	if d.track {
		for line := first; line <= last; line++ {
			s := d.shardFor(line)
			s.mu.Lock()
			if st, ok := s.lines[line]; ok {
				if st.staged == nil {
					st.staged = make([]byte, LineSize)
					s.staged = append(s.staged, line)
				}
				copy(st.staged, d.buf[line*LineSize:(line+1)*LineSize])
			}
			s.mu.Unlock()
		}
	}
	if d.lat.FlushPerLine > 0 {
		latency.Spin(rangeCost(lines, d.lat.FlushPerLine, d.lat.FlushBatchPerLine))
	}
}

// Fence commits every staged line image to the persistent image (sfence
// semantics, applied globally: the simulation treats a fence as draining all
// outstanding flushes, which is conservative for the crash model because
// un-fenced flushes never silently persist except under CrashRandom).
func (d *Device) Fence() {
	if d.hook != nil {
		d.hook()
	}
	d.fences.Add(1)
	if d.track {
		for i := range d.shards {
			s := &d.shards[i]
			s.mu.Lock()
			for _, line := range s.staged {
				st, ok := s.lines[line]
				if !ok || st.staged == nil {
					continue
				}
				cur := d.buf[line*LineSize : (line+1)*LineSize]
				if bytes.Equal(cur, st.staged) {
					// Line fully persistent again.
					delete(s.lines, line)
				} else {
					// Re-dirtied after the flush: the staged image
					// is now the persistent one.
					st.persisted, st.staged = st.staged, nil
				}
			}
			s.staged = s.staged[:0]
			s.mu.Unlock()
		}
	}
	latency.Spin(d.lat.Fence)
}

// Persist is the common flush-then-fence sequence.
func (d *Device) Persist(off, n uint64) {
	d.Flush(off, n)
	d.Fence()
}

// CheckWriteFault consults the fault plan for one write-stream operation
// covering [off, off+n) without performing any I/O. The plan's page unit on
// PMEM is the cache line. Callers that batch several stores under one
// durability point (the WAL append protocol) use it to model the whole batch
// as a single fallible media operation.
func (d *Device) CheckWriteFault(off, n uint64) error {
	if err := d.rangeErr(off, n); err != nil {
		return err
	}
	if d.faults == nil {
		return nil
	}
	last := off
	if n > 0 {
		last = off + n - 1
	}
	if err := d.faults.Check(fault.Write, off/LineSize, last/LineSize); err != nil {
		d.injectedErrs.Add(1)
		return err
	}
	return nil
}

// SetStrictPersistOrder toggles strict persist-order checking at runtime so
// tests can arm it on an existing device. It has no effect on a device built
// without TrackPersistence. Install before concurrent use.
func (d *Device) SetStrictPersistOrder(on bool) { d.strict = on }

// UnpersistedError reports cache lines that a strict-mode commit point found
// dirty or staged-but-unfenced.
type UnpersistedError struct {
	// Lines holds the line-aligned device byte offsets of the offending
	// cache lines, in ascending order.
	Lines []uint64
}

func (e *UnpersistedError) Error() string {
	return fmt.Sprintf("pmem: strict persist-order violation: %d line(s) not persisted at commit point (device offsets %v)",
		len(e.Lines), e.Lines)
}

// UnpersistedLines returns the line-aligned byte offsets of cache lines
// overlapping [off, off+n) that are not persistent: dirty (stored but never
// flushed), staged-but-unfenced, or re-dirtied after a flush. Requires
// TrackPersistence (returns nil otherwise).
func (d *Device) UnpersistedLines(off, n uint64) []uint64 {
	if !d.track || n == 0 {
		return nil
	}
	d.checkRange(off, n)
	var out []uint64
	first := off / LineSize
	last := (off + n - 1) / LineSize
	for line := first; line <= last; line++ {
		s := d.shardFor(line)
		s.mu.Lock()
		_, unpersisted := s.lines[line]
		s.mu.Unlock()
		if unpersisted {
			out = append(out, line*LineSize)
		}
	}
	return out
}

// CheckPersisted is the strict-persist-order commit-point hook: with
// StrictPersistOrder armed (and tracking enabled) it fails with an
// *UnpersistedError when any cache line in [off, off+n) is not yet
// persistent. A disarmed device always returns nil, so protocol code can
// call it unconditionally.
func (d *Device) CheckPersisted(off, n uint64) error {
	if !d.strict || !d.track {
		return nil
	}
	if lines := d.UnpersistedLines(off, n); len(lines) > 0 {
		return &UnpersistedError{Lines: lines}
	}
	return nil
}

// DirtyLines reports how many lines are currently not persistent. Intended
// for tests.
func (d *Device) DirtyLines() int {
	total := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		total += len(s.lines)
		s.mu.Unlock()
	}
	return total
}

// ErrNotTracking is returned by Crash on a device built without
// Config.TrackPersistence: without the dirty/staged line model there is no
// record of what could be lost, so a simulated power loss is meaningless.
var ErrNotTracking = errors.New(
	"pmem: Crash requires Config.TrackPersistence (enable it on the device under test)")

// Crash simulates power loss followed by a reopen of the device: the volatile
// view is replaced by what survived, according to policy, and all tracking
// state is reset. seed drives CrashRandom; it is ignored by the other
// policies. Crash returns ErrNotTracking — and changes nothing — on a device
// created without TrackPersistence.
func (d *Device) Crash(policy CrashPolicy, seed int64) error {
	if !d.track {
		return ErrNotTracking
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		// In line order, so that a seed names one outcome.
		for _, line := range slices.Sorted(maps.Keys(s.lines)) {
			st := s.lines[line]
			dst := d.buf[line*LineSize : (line+1)*LineSize]
			switch policy {
			case CrashKeepAll:
				// Current content survives: nothing to do.
			case CrashDropDirty:
				copy(dst, st.persisted)
			case CrashRandom:
				switch c := rng.Intn(3); {
				case c == 0:
					copy(dst, st.persisted)
				case c == 1 && st.staged != nil:
					copy(dst, st.staged)
				default:
					// Spurious eviction persisted current content.
				}
			}
			delete(s.lines, line)
		}
		s.staged = s.staged[:0]
		s.mu.Unlock()
	}
	return nil
}
