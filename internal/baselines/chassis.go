// Package baselines is the chassis under the comparison systems of the paper's
// Table 1: everything about them that is not a persistence technique. The
// figures comparing the systems isolate the technique, so the devices, the
// physical value log, the persisted key→block table, the block allocator and
// the crash plumbing exist once, here; lsmstore, btreestore and inplacestore
// keep only the mechanism that is their row of the table.
package baselines

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"dstore/internal/pmem"
	"dstore/internal/ssd"
)

// BlockSize is the unit every system stores an object in (the paper's 4 KB
// operations).
const BlockSize = 4096

// RigConfig is what a caller chooses about a system's devices.
type RigConfig struct {
	// Blocks is the SSD capacity in 4 KB blocks; zero builds no SSD.
	Blocks uint64
	// DeviceLatency enables the calibrated device latencies.
	DeviceLatency bool
	// TrackPersistence enables the PMEM crash model.
	TrackPersistence bool
}

// Rig is a system's devices, its block allocator and its off switch. A store
// embeds it; the store's own lock guards the allocator.
type Rig struct {
	PM  *pmem.Device
	SSD *ssd.Device // nil for the uncached system

	track  bool
	closed atomic.Bool
	stop   func()

	nextBlk  uint64
	freeBlks []uint64
}

// NewRig builds the devices. stop, if not nil, stops the store's background
// work when it halts.
func NewRig(cfg RigConfig, pmemBytes int, stop func()) *Rig {
	var plat pmem.Latencies
	var slat ssd.Latencies
	if cfg.DeviceLatency {
		plat, slat = pmem.DefaultLatencies(), ssd.DefaultLatencies()
	}
	r := &Rig{track: cfg.TrackPersistence, stop: stop}
	r.PM = pmem.New(pmem.Config{Size: pmemBytes, TrackPersistence: r.track, Latency: plat})
	if cfg.Blocks > 0 {
		r.SSD = ssd.New(ssd.Config{Pages: int(cfg.Blocks), PowerProtected: true, Latency: slat})
	}
	return r
}

// Devices returns the simulated devices, for crash hooks and traffic counters.
func (r *Rig) Devices() (*pmem.Device, *ssd.Device) { return r.PM, r.SSD }

// Halt fails every later operation and, the first time, stops background
// work: the end of a clean shutdown, the start of a crash.
func (r *Rig) Halt() {
	if !r.closed.Swap(true) && r.stop != nil {
		r.stop()
	}
}

// Closed reports whether the store is halted.
func (r *Rig) Closed() bool { return r.closed.Load() }

// Reopen ends a recovery: operations are let in again.
func (r *Rig) Reopen() { r.closed.Store(false) }

// Crash implements kvapi.Crasher: the store halts, volatile state is lost
// and each device resolves per its model.
func (r *Rig) Crash(seed int64) error {
	r.Halt()
	if r.track {
		if err := r.PM.Crash(pmem.CrashDropDirty, seed); err != nil {
			return err
		}
	}
	if r.SSD != nil {
		r.SSD.Crash(seed)
	}
	return nil
}

// IOBytes implements kvapi.IOStatsReporter.
func (r *Rig) IOBytes() (pmemBytes, ssdBytes uint64) {
	ps := r.PM.Stats()
	if r.SSD != nil {
		ds := r.SSD.Stats()
		ssdBytes = ds.BytesRead + ds.BytesWritten
	}
	return ps.BytesRead + ps.BytesWritten, ssdBytes
}

// AllocBlock returns a freed block id if there is one, else the next new one.
func (r *Rig) AllocBlock() uint64 {
	if n := len(r.freeBlks); n > 0 {
		blk := r.freeBlks[n-1]
		r.freeBlks = r.freeBlks[:n-1]
		return blk
	}
	r.nextBlk++
	return r.nextBlk - 1
}

// FreeBlock returns blk to the allocator.
func (r *Rig) FreeBlock(blk uint64) { r.freeBlks = append(r.freeBlks, blk) }

// LiveBlocks is the number of blocks allocated and not freed.
func (r *Rig) LiveBlocks() uint64 { return r.nextBlk - uint64(len(r.freeBlks)) }

// ResetBlocks empties the allocator; recovery reports each block it finds in
// use with UseBlock.
func (r *Rig) ResetBlocks() { r.nextBlk, r.freeBlks = 0, nil }

// UseBlock marks blk, and so every id below it, as handed out.
func (r *Rig) UseBlock(blk uint64) {
	if blk >= r.nextBlk {
		r.nextBlk = blk + 1
	}
}

// GrowBuf extends buf by n bytes, reusing capacity so a caller that recycles
// its buffer reads without allocating.
func GrowBuf(buf []byte, n int) []byte { return slices.Grow(buf, n)[:len(buf)+n] }

// A logged system's PMEM: [0,64) header | value log | table. The header holds
// the log's persisted tail and the table's persisted length.
const (
	hdrLogTail  = 0
	hdrTableLen = 8
	logBase     = 64

	// TableBytes is the table region: 4 MiB holds the keys of every committed
	// experiment (the paper's 2M objects need more, and Store says so).
	TableBytes = 4 << 20
)

// NewLoggedRig builds a logged system's devices (65536 SSD blocks unless cfg
// says otherwise) and formats its PMEM with an empty logBytes log and an
// empty table.
func NewLoggedRig(cfg RigConfig, logBytes uint64, stop func()) (*Rig, *ValueLog, *Table) {
	if cfg.Blocks == 0 {
		cfg.Blocks = 65536
	}
	r := NewRig(cfg, int(logBase+logBytes+TableBytes), stop)
	l := &ValueLog{pm: r.PM, limit: logBase + logBytes, tail: logBase}
	t := &Table{pm: r.PM, base: l.limit}
	r.PM.PutU64(hdrLogTail, logBase)
	r.PM.PutU64(hdrTableLen, 0)
	r.PM.Persist(0, 16)
	return r, l, t
}

// ValueLog is a physical (key and value) log on PMEM: every append pays a
// full-value write and flush, then persists the tail word — unlike DStore's
// 32-byte logical records. The caller's lock serializes it.
type ValueLog struct {
	pm    *pmem.Device
	limit uint64
	tail  uint64
}

func recordBytes(key string, value []byte) uint64 { return uint64(8 + len(key) + len(value)) }

// Fits reports whether a record for key and value fits behind the tail.
func (l *ValueLog) Fits(key string, value []byte) bool {
	return l.tail+recordBytes(key, value) <= l.limit
}

// Tail is the offset the next record lands at.
func (l *ValueLog) Tail() uint64 { return l.tail }

// Used is the bytes of log in front of the tail.
func (l *ValueLog) Used() uint64 { return l.tail - logBase }

// Append writes a length-prefixed record and persists it, then persists the
// tail that covers it: a record is in the log once the tail says so.
func (l *ValueLog) Append(key string, value []byte) {
	off := l.tail
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(value)))
	l.pm.WriteAt(off, hdr[:])
	l.pm.WriteAt(off+8, []byte(key))
	l.pm.WriteAt(off+8+uint64(len(key)), value)
	l.pm.Persist(off, recordBytes(key, value))
	l.setTail(off + recordBytes(key, value))
}

func (l *ValueLog) setTail(tail uint64) {
	l.tail = tail
	l.pm.PutU64(hdrLogTail, tail)
	l.pm.Persist(hdrLogTail, 8)
}

// Recycle restarts the log at its base without persisting anything: the
// unsafe reuse Fig. 1's checkpoints-disabled series asks for.
func (l *ValueLog) Recycle() { l.tail = logBase }

// Truncate drops the records before upTo, which a checkpoint has made
// durable elsewhere, by moving the ones behind it to the base.
func (l *ValueLog) Truncate(upTo uint64) {
	suffix := l.tail - upTo
	if suffix > 0 {
		buf := make([]byte, suffix)
		l.pm.ReadAt(upTo, buf)
		l.pm.WriteAt(logBase, buf)
		l.pm.Persist(logBase, suffix)
	}
	l.setTail(logBase + suffix)
}

// Replay adopts the persisted tail and calls fn with each record in front of
// it, oldest first.
func (l *ValueLog) Replay(fn func(key string, value []byte)) {
	l.tail = l.pm.GetU64(hdrLogTail)
	for off := uint64(logBase); off+8 <= l.tail; {
		var hdr [8]byte
		l.pm.ReadAt(off, hdr[:])
		kl := uint64(binary.LittleEndian.Uint32(hdr[0:]))
		vl := uint64(binary.LittleEndian.Uint32(hdr[4:]))
		if off+8+kl+vl > l.tail {
			break
		}
		kb, vb := make([]byte, kl), make([]byte, vl)
		l.pm.ReadAt(off+8, kb)
		l.pm.ReadAt(off+8+kl, vb)
		off += 8 + kl + vl
		fn(string(kb), vb)
	}
}

// Table is a key→block map persisted on PMEM at each checkpoint: the entries,
// then the length word that makes them the table.
type Table struct {
	pm   *pmem.Device
	base uint64
}

// Store persists m, or reports that it does not fit and leaves the table
// that was there in place.
func (t *Table) Store(m map[string]uint64) error {
	var need uint64
	for k := range m {
		need += uint64(12 + len(k))
	}
	if need > TableBytes {
		return fmt.Errorf("baselines: a table of %d keys needs %d bytes, its region holds %d", len(m), need, TableBytes)
	}
	off := t.base
	for k, blk := range m {
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(k)))
		binary.LittleEndian.PutUint64(hdr[4:], blk)
		t.pm.WriteAt(off, hdr[:])
		t.pm.WriteAt(off+12, []byte(k))
		off += uint64(12 + len(k))
	}
	t.pm.Persist(t.base, need)
	t.pm.PutU64(hdrTableLen, need)
	t.pm.Persist(hdrTableLen, 8)
	return nil
}

// Load calls fn with each persisted entry.
func (t *Table) Load(fn func(key string, blk uint64)) {
	end := t.base + t.pm.GetU64(hdrTableLen)
	for off := t.base; off < end; {
		var hdr [12]byte
		t.pm.ReadAt(off, hdr[:])
		kl := uint64(binary.LittleEndian.Uint32(hdr[0:]))
		if kl == 0 || off+12+kl > end {
			break
		}
		kb := make([]byte, kl)
		t.pm.ReadAt(off+12, kb)
		fn(string(kb), binary.LittleEndian.Uint64(hdr[4:]))
		off += 12 + kl
	}
}
