// Package inplacestore models MongoDB-PMSE (paper §2.1, §5.1): an uncached
// system with inline persistence — all data and metadata live in PMEM and
// are updated in place under undo-log transactions with explicit cache
// flushes.
//
// Mechanisms reproduced:
//
//   - every update is a PMEM transaction: the old object image is copied to
//     an undo region and persisted, the object is overwritten in place and
//     persisted, and the transaction record is sealed — the flush/fence
//     overhead that "prevents it from achieving good performance even
//     though it places data on PMEM" (§5.3);
//   - no checkpoints: throughput is flat over time (the Fig. 7 PMSE curve)
//     and recovery is near instantaneous (only in-flight transactions roll
//     back; Table 4);
//   - the smallest footprint: no cache, a single copy of data (Fig. 10).
//
// Objects are fixed 4 KB cells in a PMEM heap; a persistent cell header
// (used flag + key) lets recovery rebuild the index by scanning the heap.
package inplacestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"dstore/internal/kvapi"
	"dstore/internal/latency"
	"dstore/internal/pmem"
	"dstore/internal/ssd"
)

// Config sizes and tunes the model.
type Config struct {
	// Cells is the heap capacity in 4 KB object cells. Default 65536.
	Cells uint64
	// SoftwareNs is fixed per-op stack latency, calibrated to the MongoDB
	// document layer plus pmemobj-cpp transactions (~20us measured).
	// Default 20000.
	SoftwareNs time.Duration
	// DeviceLatency enables calibrated device latencies on created devices.
	DeviceLatency bool
	// TrackPersistence enables the PMEM crash model on created devices.
	TrackPersistence bool
	// PMEM injects the device.
	PMEM *pmem.Device
}

func (c *Config) setDefaults() {
	if c.Cells == 0 {
		c.Cells = 65536
	}
	if c.SoftwareNs == 0 {
		c.SoftwareNs = 20 * time.Microsecond
	}
}

const (
	cellSize  = 4096 + 128 // value + header
	valueCap  = 4096
	hdrUsed   = 0 // u8
	hdrKeyLen = 2 // u16
	hdrValLen = 4 // u32
	hdrKey    = 8
	keyCap    = 120 - 8

	// Undo region: one in-flight transaction slot per lock stripe. The
	// stride is padded to a cache-line multiple: the device requires
	// same-line writers to synchronize (as on real hardware), and the
	// per-stripe locks only guarantee that when no two slots share a line.
	undoSlotRaw = 8 + cellSize // state u64 + saved image
	undoSlot    = (undoSlotRaw + pmem.LineSize - 1) / pmem.LineSize * pmem.LineSize

	stripes = 64
)

// Store is the MongoDB-PMSE model.
type Store struct {
	cfg Config
	pm  *pmem.Device

	mu      sync.Mutex
	index   map[string]uint64 // key -> cell id
	free    []uint64
	next    uint64
	closed  bool
	stripeM [stripes]sync.Mutex
}

// Layout: [0, stripes*undoSlot) undo slots | cells.
func (s *Store) cellOff(cell uint64) uint64 {
	return uint64(stripes*undoSlot) + cell*cellSize
}

func deviceBytes(cfg Config) int {
	return stripes*undoSlot + int(cfg.Cells)*cellSize
}

// New creates and formats a store.
func New(cfg Config) (*Store, error) {
	cfg.setDefaults()
	s := attach(cfg)
	// Zeroed device => all cells unused, undo slots idle. Persist headers.
	return s, nil
}

func attach(cfg Config) *Store {
	s := &Store{cfg: cfg, index: map[string]uint64{}}
	s.pm = cfg.PMEM
	if s.pm == nil {
		var lat pmem.Latencies
		if cfg.DeviceLatency {
			lat = pmem.DefaultLatencies()
		}
		s.pm = pmem.New(pmem.Config{
			Size:             deviceBytes(cfg),
			TrackPersistence: cfg.TrackPersistence,
			Latency:          lat,
		})
	}
	return s
}

// Label implements kvapi.Store.
func (s *Store) Label() string { return "MongoDB-PMSE" }

// Devices returns the simulated devices, for crash hooks and traffic counters;
// the uncached store has no SSD.
func (s *Store) Devices() (*pmem.Device, *ssd.Device) { return s.pm, nil }

func stripeOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % stripes)
}

// Put implements kvapi.Store: an in-place transactional update with undo
// logging and per-step flushes.
func (s *Store) Put(key string, value []byte) error {
	if len(value) > valueCap {
		return fmt.Errorf("inplacestore: value exceeds %d bytes", valueCap)
	}
	if len(key) > keyCap {
		return fmt.Errorf("inplacestore: key exceeds %d bytes", keyCap)
	}
	latency.Spin(s.cfg.SoftwareNs)

	st := stripeOf(key)
	s.stripeM[st].Lock()
	defer s.stripeM[st].Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("inplacestore: closed")
	}
	cell, existed := s.index[key]
	if !existed {
		if n := len(s.free); n > 0 {
			cell = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			if s.next >= s.cfg.Cells {
				s.mu.Unlock()
				return errors.New("inplacestore: heap full")
			}
			cell = s.next
			s.next++
		}
		s.index[key] = cell
	}
	s.mu.Unlock()

	off := s.cellOff(cell)
	undo := uint64(st * undoSlot)
	if existed {
		// Undo phase: save the old image and persist it before mutating.
		img := make([]byte, cellSize)
		s.pm.ReadAt(off, img)
		s.pm.PutU64(undo, off|1) // in-flight marker with target offset
		s.pm.WriteAt(undo+8, img)
		s.pm.Persist(undo, undoSlot)
	}

	// In-place update, then persist the whole cell.
	var hdr [8]byte
	hdr[hdrUsed] = 1
	binary.LittleEndian.PutUint16(hdr[hdrKeyLen:], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[hdrValLen:], uint32(len(value)))
	s.pm.WriteAt(off, hdr[:])
	s.pm.WriteAt(off+hdrKey, []byte(key))
	s.pm.WriteAt(off+128, value)
	s.pm.Persist(off, 128+uint64(len(value)))

	if existed {
		// Commit: retire the undo record.
		s.pm.PutU64(undo, 0)
		s.pm.Persist(undo, 8)
	}
	return nil
}

// Get implements kvapi.Store: a direct PMEM read.
func (s *Store) Get(key string, buf []byte) ([]byte, error) {
	latency.Spin(s.cfg.SoftwareNs)
	s.mu.Lock()
	cell, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return nil, kvapi.ErrNotFound
	}
	st := stripeOf(key)
	s.stripeM[st].Lock()
	defer s.stripeM[st].Unlock()
	off := s.cellOff(cell)
	var hdr [8]byte
	s.pm.ReadAt(off, hdr[:])
	vl := binary.LittleEndian.Uint32(hdr[hdrValLen:])
	start := len(buf)
	need := start + int(vl)
	if cap(buf) >= need {
		buf = buf[:need]
	} else {
		nb := make([]byte, need, need*2)
		copy(nb, buf)
		buf = nb
	}
	s.pm.ReadAt(off+128, buf[start:])
	return buf, nil
}

// Delete implements kvapi.Store: persist the cleared used flag.
func (s *Store) Delete(key string) error {
	latency.Spin(s.cfg.SoftwareNs)
	st := stripeOf(key)
	s.stripeM[st].Lock()
	defer s.stripeM[st].Unlock()
	s.mu.Lock()
	cell, ok := s.index[key]
	if ok {
		delete(s.index, key)
		s.free = append(s.free, cell)
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	off := s.cellOff(cell)
	s.pm.PutU8(off+hdrUsed, 0)
	s.pm.Persist(off+hdrUsed, 1)
	return nil
}

// Close implements kvapi.Store; inline persistence has nothing to flush.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// FootprintBytes implements kvapi.FootprintReporter: PMEM only, single copy.
func (s *Store) FootprintBytes() (dram, pmemB, ssdB uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := s.next - uint64(len(s.free))
	return 0, uint64(stripes*undoSlot) + live*cellSize, 0
}

// Crash implements kvapi.Crasher.
func (s *Store) Crash(seed int64) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.cfg.TrackPersistence {
		return s.pm.Crash(pmem.CrashDropDirty, seed)
	}
	return nil
}

// Recover implements kvapi.Crasher: roll back in-flight transactions from
// the undo slots (replay phase — tiny) and rebuild the index by scanning
// cell headers (metadata phase). Matches Table 4: PMSE recovers fastest.
func (s *Store) Recover() (metadataNs, replayNs int64, err error) {
	t0 := time.Now()
	for st := 0; st < stripes; st++ {
		undo := uint64(st * undoSlot)
		marker := s.pm.GetU64(undo)
		if marker&1 == 1 {
			off := marker &^ 1
			img := make([]byte, cellSize)
			s.pm.ReadAt(undo+8, img)
			s.pm.WriteAt(off, img)
			s.pm.Persist(off, cellSize)
			s.pm.PutU64(undo, 0)
			s.pm.Persist(undo, 8)
		}
	}
	replayNs = time.Since(t0).Nanoseconds()

	t1 := time.Now()
	s.mu.Lock()
	s.index = map[string]uint64{}
	s.free = nil
	s.next = 0
	var maxCell uint64
	for cell := uint64(0); cell < s.cfg.Cells; cell++ {
		off := s.cellOff(cell)
		var hdr [8]byte
		s.pm.ReadAt(off, hdr[:])
		if hdr[hdrUsed] != 1 {
			continue
		}
		kl := binary.LittleEndian.Uint16(hdr[hdrKeyLen:])
		kb := make([]byte, kl)
		s.pm.ReadAt(off+hdrKey, kb)
		s.index[string(kb)] = cell
		if cell+1 > maxCell {
			maxCell = cell + 1
		}
	}
	s.next = maxCell
	for cell := uint64(0); cell < maxCell; cell++ {
		off := s.cellOff(cell)
		if s.pm.GetU8(off+hdrUsed) != 1 {
			s.free = append(s.free, cell)
		}
	}
	s.closed = false
	s.mu.Unlock()
	metadataNs = time.Since(t1).Nanoseconds()
	return metadataNs, replayNs, nil
}

// IOBytes implements kvapi.IOStatsReporter.
func (s *Store) IOBytes() (pmemBytes, ssdBytes uint64) {
	ps := s.pm.Stats()
	return ps.BytesRead + ps.BytesWritten, 0
}

var _ kvapi.IOStatsReporter = (*Store)(nil)
var _ kvapi.Store = (*Store)(nil)
var _ kvapi.FootprintReporter = (*Store)(nil)
var _ kvapi.Crasher = (*Store)(nil)
