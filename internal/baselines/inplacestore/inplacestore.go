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

	"dstore/internal/baselines"
	"dstore/internal/kvapi"
	"dstore/internal/latency"
	"dstore/internal/pmem"
)

// Config sizes and tunes the model.
type Config struct {
	// RigConfig chooses the PMEM device; Blocks is ignored (no SSD).
	baselines.RigConfig
	// Cells is the heap capacity in 4 KB object cells. Default 65536.
	Cells uint64
}

const (
	// softwareNs is fixed per-op stack latency, calibrated to the MongoDB
	// document layer plus pmemobj-cpp transactions (~20us measured).
	softwareNs = 20 * time.Microsecond

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
	*baselines.Rig // the device, cell allocator (under mu), closed, Crash
	cells          uint64

	mu      sync.Mutex
	index   map[string]uint64 // key -> cell id
	stripeM [stripes]sync.Mutex
}

// Layout: [0, stripes*undoSlot) undo slots | cells.
func (s *Store) cellOff(cell uint64) uint64 {
	return uint64(stripes*undoSlot) + cell*cellSize
}

// New creates a store; a zeroed device is a formatted one (all cells unused,
// undo slots idle).
func New(cfg Config) (*Store, error) {
	s := &Store{cells: cfg.Cells, index: map[string]uint64{}}
	if s.cells == 0 {
		s.cells = 65536
	}
	cfg.Blocks = 0
	s.Rig = baselines.NewRig(cfg.RigConfig, stripes*undoSlot+int(s.cells)*cellSize, nil)
	return s, nil
}

// Label implements kvapi.Store.
func (s *Store) Label() string { return "MongoDB-PMSE" }

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
	latency.Spin(softwareNs)

	st := stripeOf(key)
	s.stripeM[st].Lock()
	defer s.stripeM[st].Unlock()

	s.mu.Lock()
	if s.Closed() {
		s.mu.Unlock()
		return errors.New("inplacestore: closed")
	}
	cell, existed := s.index[key]
	if !existed {
		if s.LiveBlocks() >= s.cells {
			s.mu.Unlock()
			return errors.New("inplacestore: heap full")
		}
		cell = s.AllocBlock()
		s.index[key] = cell
	}
	s.mu.Unlock()

	off := s.cellOff(cell)
	undo := uint64(st * undoSlot)
	if existed {
		// Undo phase: save the old image and persist it before mutating.
		img := make([]byte, cellSize)
		s.PM.ReadAt(off, img)
		s.PM.PutU64(undo, off|1) // in-flight marker with target offset
		s.PM.WriteAt(undo+8, img)
		s.PM.Persist(undo, undoSlot)
	}

	// In-place update, then persist the whole cell.
	var hdr [8]byte
	hdr[hdrUsed] = 1
	binary.LittleEndian.PutUint16(hdr[hdrKeyLen:], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[hdrValLen:], uint32(len(value)))
	s.PM.WriteAt(off, hdr[:])
	s.PM.WriteAt(off+hdrKey, []byte(key))
	s.PM.WriteAt(off+128, value)
	s.PM.Persist(off, 128+uint64(len(value)))

	if existed {
		// Commit: retire the undo record.
		s.PM.PutU64(undo, 0)
		s.PM.Persist(undo, 8)
	}
	return nil
}

// Get implements kvapi.Store: a direct PMEM read.
func (s *Store) Get(key string, buf []byte) ([]byte, error) {
	latency.Spin(softwareNs)
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
	s.PM.ReadAt(off, hdr[:])
	vl := binary.LittleEndian.Uint32(hdr[hdrValLen:])
	start := len(buf)
	buf = baselines.GrowBuf(buf, int(vl))
	s.PM.ReadAt(off+128, buf[start:])
	return buf, nil
}

// Delete implements kvapi.Store: persist the cleared used flag.
func (s *Store) Delete(key string) error {
	latency.Spin(softwareNs)
	st := stripeOf(key)
	s.stripeM[st].Lock()
	defer s.stripeM[st].Unlock()
	s.mu.Lock()
	cell, ok := s.index[key]
	if ok {
		delete(s.index, key)
		s.FreeBlock(cell)
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	off := s.cellOff(cell)
	s.PM.PutU8(off+hdrUsed, 0)
	s.PM.Persist(off+hdrUsed, 1)
	return nil
}

// Close implements kvapi.Store; inline persistence has nothing to flush.
func (s *Store) Close() error {
	s.Halt()
	return nil
}

// FootprintBytes implements kvapi.FootprintReporter: PMEM only, single copy.
func (s *Store) FootprintBytes() (dram, pmemB, ssdB uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return 0, uint64(stripes*undoSlot) + s.LiveBlocks()*cellSize, 0
}

// Recover implements kvapi.Crasher: roll back in-flight transactions from
// the undo slots (replay phase — tiny) and rebuild the index by scanning
// cell headers (metadata phase). Matches Table 4: PMSE recovers fastest.
func (s *Store) Recover() (metadataNs, replayNs int64, err error) {
	t0 := time.Now()
	for st := 0; st < stripes; st++ {
		undo := uint64(st * undoSlot)
		marker := s.PM.GetU64(undo)
		if marker&1 == 1 {
			off := marker &^ 1
			img := make([]byte, cellSize)
			s.PM.ReadAt(undo+8, img)
			s.PM.WriteAt(off, img)
			s.PM.Persist(off, cellSize)
			s.PM.PutU64(undo, 0)
			s.PM.Persist(undo, 8)
		}
	}
	replayNs = time.Since(t0).Nanoseconds()

	t1 := time.Now()
	s.mu.Lock()
	s.index = map[string]uint64{}
	s.ResetBlocks()
	for cell := uint64(0); cell < s.cells; cell++ {
		off := s.cellOff(cell)
		var hdr [8]byte
		s.PM.ReadAt(off, hdr[:])
		if hdr[hdrUsed] != 1 {
			continue
		}
		kl := binary.LittleEndian.Uint16(hdr[hdrKeyLen:])
		kb := make([]byte, kl)
		s.PM.ReadAt(off+hdrKey, kb)
		s.index[string(kb)] = cell
		s.UseBlock(cell)
	}
	// Nothing is free yet, so the live count is the highest used cell + 1;
	// the unused cells below it are the free list.
	for cell, end := uint64(0), s.LiveBlocks(); cell < end; cell++ {
		if s.PM.GetU8(s.cellOff(cell)+hdrUsed) != 1 {
			s.FreeBlock(cell)
		}
	}
	s.Reopen()
	s.mu.Unlock()
	metadataNs = time.Since(t1).Nanoseconds()
	return metadataNs, replayNs, nil
}

var _ kvapi.IOStatsReporter = (*Store)(nil)
var _ kvapi.Store = (*Store)(nil)
var _ kvapi.FootprintReporter = (*Store)(nil)
var _ kvapi.Crasher = (*Store)(nil)
