// Package ssd simulates an NVMe block device in the style of the Intel
// Optane P4800X drive used in the paper's testbed.
//
// DStore places the data plane on SSD (paper §4.2): object data is written
// directly to the device, relying on the drive's capacitor-backed internal
// DRAM write cache for durability ("enhanced power-loss data protection",
// §4.2/§4.5). The simulator models:
//
//   - page-granular access with calibrated per-page latency (Table 3:
//     a 4 KB write ≈ 8.9 µs, a 16 KB write ≈ 40 µs — i.e. latency scales
//     with pages);
//   - a power-loss-protected write cache: with protection on (the default,
//     matching the paper's hardware) every acknowledged write survives a
//     crash; with protection off, unsynced writes may be lost, which the
//     tests use to show why DStore's commit-after-data-durable ordering
//     matters;
//   - read/write byte counters for the Fig. 7 bandwidth series;
//   - injected device faults (transient errors, permanent bad pages, silent
//     bit flips) per an optional fault.Plan, so the store's retry,
//     quarantine, and checksum policies can be exercised deterministically.
package ssd

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dstore/internal/fault"
	"dstore/internal/latency"
)

// DefaultPageSize is the hardware page size the paper's experiments conform
// to ("we primarily use 4KB sized operations ... to conform with the SSD
// hardware block size", §5.1).
const DefaultPageSize = 4096

// ErrOutOfRange is returned (wrapped, with the offending range) by accesses
// beyond the device capacity.
var ErrOutOfRange = errors.New("ssd: access out of range")

// Latencies models NVMe device timing, charged per page.
type Latencies struct {
	ReadPerPage  time.Duration
	WritePerPage time.Duration
	Sync         time.Duration
}

// DefaultLatencies returns the P4800X-calibrated model used by the harness.
func DefaultLatencies() Latencies {
	return Latencies{
		ReadPerPage:  8500 * time.Nanosecond,
		WritePerPage: 8900 * time.Nanosecond,
		Sync:         5 * time.Microsecond,
	}
}

// Config configures a Device.
type Config struct {
	// Pages is the device capacity in pages.
	Pages int
	// PageSize in bytes; DefaultPageSize if zero.
	PageSize int
	// PowerProtected models the capacitor-backed internal write cache. When
	// true (the paper's hardware), every completed write is durable. When
	// false, writes that were not followed by Sync may be lost at Crash.
	PowerProtected bool
	// Latency calibrates injected delays; zero values mean none.
	Latency Latencies
	// Faults, when non-nil, is consulted on every ReadAt/WriteAt/Sync and
	// may fail the operation or silently corrupt read data.
	Faults *fault.Plan
}

// Stats holds monotonically increasing device counters.
type Stats struct {
	BytesWritten uint64
	BytesRead    uint64
	Syncs        uint64
	// Injected-fault counters (zero without a fault plan).
	TransientErrs uint64 // transient read/write/sync errors returned
	PermanentErrs uint64 // accesses rejected by a permanently bad page
	BitFlips      uint64 // reads silently corrupted
}

// Device is a simulated NVMe drive. Methods are safe for concurrent use;
// concurrent writers to the same page must synchronize themselves.
type Device struct {
	pageSize  int
	buf       []byte
	protected bool
	lat       Latencies
	faults    *fault.Plan

	mu    sync.Mutex
	dirty map[int][]byte // guarded by mu; pre-write page images, unprotected devices only

	bytesWritten atomic.Uint64
	bytesRead    atomic.Uint64
	syncs        atomic.Uint64
}

// New creates a Device per cfg.
func New(cfg Config) *Device {
	ps := cfg.PageSize
	if ps <= 0 {
		ps = DefaultPageSize
	}
	pages := cfg.Pages
	if pages <= 0 {
		pages = 1
	}
	d := &Device{
		pageSize:  ps,
		buf:       make([]byte, ps*pages),
		protected: cfg.PowerProtected,
		lat:       cfg.Latency,
		faults:    cfg.Faults,
		dirty:     make(map[int][]byte),
	}
	// Touch every page so first-touch faults happen now, not mid-benchmark.
	for i := 0; i < len(d.buf); i += ps {
		d.buf[i] = 0
	}
	return d
}

// PageSize returns the device page size in bytes.
func (d *Device) PageSize() int { return d.pageSize }

// Pages returns the device capacity in pages.
func (d *Device) Pages() int { return len(d.buf) / d.pageSize }

// SetFaultPlan installs (or, with nil, removes) the fault plan consulted by
// subsequent operations. Intended for tests and tools that degrade a device
// mid-run; install before concurrent use.
func (d *Device) SetFaultPlan(p *fault.Plan) { d.faults = p }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	fs := d.faults.Stats()
	return Stats{
		BytesWritten:  d.bytesWritten.Load(),
		BytesRead:     d.bytesRead.Load(),
		Syncs:         d.syncs.Load(),
		TransientErrs: fs.TransientReads + fs.TransientWrites,
		PermanentErrs: fs.PermanentErrs,
		BitFlips:      fs.BitFlips,
	}
}

func (d *Device) checkRange(off, n uint64) error {
	if off+n > uint64(len(d.buf)) || off+n < off {
		return fmt.Errorf("%w: [%d,%d) on %d-byte device", ErrOutOfRange, off, off+n, len(d.buf))
	}
	return nil
}

func (d *Device) pageSpan(off, n uint64) (first, last uint64) {
	ps := uint64(d.pageSize)
	if n == 0 {
		return off / ps, off / ps
	}
	return off / ps, (off + n - 1) / ps
}

func (d *Device) pagesTouched(off, n uint64) int {
	if n == 0 {
		return 0
	}
	first, last := d.pageSpan(off, n)
	return int(last - first + 1)
}

// WriteAt writes p at byte offset off, charging per-page write latency. The
// write is durable immediately when the device is power protected, otherwise
// only after Sync. A non-nil error means the device rejected the request and
// page content is unspecified (as on real hardware, a failed multi-page write
// may have partially landed).
func (d *Device) WriteAt(off uint64, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	n := uint64(len(p))
	if err := d.checkRange(off, n); err != nil {
		return err
	}
	first, last := d.pageSpan(off, n)
	if err := d.faults.Check(fault.Write, first, last); err != nil {
		// A failed write may still have scribbled on the device before the
		// error was reported; model the worst case by applying a partial
		// front fragment on transient errors. Permanent bad pages reject
		// the request outright.
		if fault.IsTransient(err) && n > 1 {
			frag := p[:1+int(off%2)]
			if !d.protected {
				d.trackDirty(off, uint64(len(frag)))
			}
			copy(d.buf[off:], frag)
		}
		return err
	}
	if !d.protected {
		d.trackDirty(off, n)
	}
	copy(d.buf[off:], p)
	d.bytesWritten.Add(n)
	if d.lat.WritePerPage > 0 {
		latency.Spin(time.Duration(d.pagesTouched(off, n)) * d.lat.WritePerPage)
	}
	return nil
}

func (d *Device) trackDirty(off, n uint64) {
	ps := uint64(d.pageSize)
	first := int(off / ps)
	last := int((off + n - 1) / ps)
	d.mu.Lock()
	for pg := first; pg <= last; pg++ {
		if _, ok := d.dirty[pg]; !ok {
			img := make([]byte, d.pageSize)
			copy(img, d.buf[pg*d.pageSize:(pg+1)*d.pageSize])
			d.dirty[pg] = img
		}
	}
	d.mu.Unlock()
}

// ReadAt reads into p from byte offset off, charging per-page read latency.
// On error the contents of p are unspecified. A successful read may still
// carry silently flipped bits if the fault plan says so — exactly the bit-rot
// case end-to-end checksums exist for.
func (d *Device) ReadAt(off uint64, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	n := uint64(len(p))
	if err := d.checkRange(off, n); err != nil {
		return err
	}
	first, last := d.pageSpan(off, n)
	if err := d.faults.Check(fault.Read, first, last); err != nil {
		return err
	}
	copy(p, d.buf[off:off+n])
	d.faults.Corrupt(p)
	d.bytesRead.Add(n)
	if d.lat.ReadPerPage > 0 {
		latency.Spin(time.Duration(d.pagesTouched(off, n)) * d.lat.ReadPerPage)
	}
	return nil
}

// Sync makes all completed writes durable (flush cache / FUA). A no-op on a
// power-protected device beyond its latency charge. Sync consults the fault
// plan as one write-stream operation; a failed Sync leaves dirty state
// intact, so a retry can still make it durable.
func (d *Device) Sync() error {
	if err := d.faults.Check(fault.Write, 0, 0); err != nil && fault.IsTransient(err) {
		return err
	}
	d.syncs.Add(1)
	if !d.protected {
		d.mu.Lock()
		d.dirty = make(map[int][]byte)
		d.mu.Unlock()
	}
	latency.Spin(d.lat.Sync)
	return nil
}

// Crash simulates power loss. On a power-protected device the internal
// capacitors destage the write cache, so nothing is lost. Otherwise each
// unsynced page independently either survives or reverts, per seed.
func (d *Device) Crash(seed int64) {
	if d.protected {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	d.mu.Lock()
	for pg, img := range d.dirty {
		if rng.Intn(2) == 0 {
			copy(d.buf[pg*d.pageSize:(pg+1)*d.pageSize], img)
		}
		delete(d.dirty, pg)
	}
	d.mu.Unlock()
}
