package dipper

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"dstore/internal/alloc"
	"dstore/internal/btree"
	"dstore/internal/pmem"
	"dstore/internal/wal"
)

// The test harness hosts a single B-tree (name -> u64) in the arena and logs
// two ops: opSet and opDel. This is a miniature of how DStore uses DIPPER.
const (
	opSet = 1
	opDel = 2
)

func testReplay(al *alloc.Allocator, records func(fn func(wal.RecordView) error) error) (uint64, error) {
	tr := btree.Open(al, al.Root(0))
	return 0, records(func(rv wal.RecordView) error {
		switch rv.Op {
		case opSet:
			v := binary.LittleEndian.Uint64(rv.Payload)
			_, _, err := tr.Insert(rv.Name, v)
			return err
		case opDel:
			_, _, err := tr.Delete(rv.Name)
			return err
		default:
			return fmt.Errorf("unknown op %d", rv.Op)
		}
	})
}

func bootstrap(al *alloc.Allocator) error {
	_, hdr, err := btree.New(al)
	if err != nil {
		return err
	}
	al.SetRoot(0, hdr)
	return nil
}

func testConfig() Config {
	return Config{LogBytes: 1 << 14, ArenaBytes: 1 << 20, AutoCheckpoint: false}
}

// appendRec is the frontend's append loop in miniature: wait out a
// conflicting record, checkpoint when the log is full, then let the log's
// fill level request a background checkpoint.
func appendRec(e *Engine, op uint16, name, payload []byte) (*wal.Handle, error) {
	for {
		h, conflict, err := e.Pair().Append(op, name, payload)
		switch {
		case err == nil && conflict == nil:
			e.MaybeTrigger()
			return h, nil
		case conflict != nil:
			conflict.Wait()
		case errors.Is(err, wal.ErrLogFull):
			if cerr := e.Checkpoint(); cerr != nil {
				return nil, cerr
			}
		default:
			return nil, err
		}
	}
}

func newEngine(t *testing.T) (*Engine, *pmem.Device) {
	t.Helper()
	cfg := testConfig()
	dev := pmem.New(pmem.Config{Size: int(cfg.DeviceBytes()), TrackPersistence: true})
	e, err := Format(dev, cfg, testReplay, bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	return e, dev
}

// doSet performs the frontend side of a set: log, apply to DRAM, commit.
func doSet(t *testing.T, e *Engine, name string, v uint64) {
	t.Helper()
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], v)
	h, err := appendRec(e, opSet, []byte(name), payload[:])
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	tr := btree.Open(e.Frontend(), e.Frontend().Root(0))
	if _, _, err := tr.Insert([]byte(name), v); err != nil {
		t.Fatal(err)
	}
	e.Pair().Commit(h)
}

func doDel(t *testing.T, e *Engine, name string) {
	t.Helper()
	h, err := appendRec(e, opDel, []byte(name), nil)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	tr := btree.Open(e.Frontend(), e.Frontend().Root(0))
	if _, _, err := tr.Delete([]byte(name)); err != nil {
		t.Fatal(err)
	}
	e.Pair().Commit(h)
}

func frontendTree(e *Engine) *btree.Tree {
	return btree.Open(e.Frontend(), e.Frontend().Root(0))
}

func checkModel(t *testing.T, e *Engine, model map[string]uint64) {
	t.Helper()
	tr := frontendTree(e)
	if tr.Len() != uint64(len(model)) {
		t.Fatalf("tree len = %d, model %d", tr.Len(), len(model))
	}
	for k, v := range model {
		got, ok := tr.Get([]byte(k))
		if !ok || got != v {
			t.Fatalf("get(%q) = %d,%v want %d", k, got, ok, v)
		}
	}
}

func TestFormatAndBasicOps(t *testing.T) {
	e, _ := newEngine(t)
	defer e.Close()
	doSet(t, e, "a", 1)
	doSet(t, e, "b", 2)
	doDel(t, e, "a")
	checkModel(t, e, map[string]uint64{"b": 2})
	st, err := e.RootState()
	if err != nil {
		t.Fatal(err)
	}
	if st.CkptInProgress != 0 || st.ShadowGen != 0 {
		t.Fatalf("root = %+v", st)
	}
}

func TestCheckpointFlipsGeneration(t *testing.T) {
	e, _ := newEngine(t)
	defer e.Close()
	for i := 0; i < 20; i++ {
		doSet(t, e, fmt.Sprintf("k%02d", i), uint64(i))
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ := e.RootState()
	if st.ShadowGen != 1 || st.CkptInProgress != 0 {
		t.Fatalf("root after checkpoint = %+v", st)
	}
	// The new shadow generation must hold the replayed state.
	shadowSp, err := e.shadowSpace(1)
	if err != nil {
		t.Fatal(err)
	}
	shadowAl, err := alloc.Open(shadowSp)
	if err != nil {
		t.Fatal(err)
	}
	tr := btree.Open(shadowAl, shadowAl.Root(0))
	if tr.Len() != 20 {
		t.Fatalf("shadow tree len = %d", tr.Len())
	}
	if v, ok := tr.Get([]byte("k07")); !ok || v != 7 {
		t.Fatalf("shadow get = %d,%v", v, ok)
	}
	if e.Stats().Checkpoints != 1 || e.Stats().RecordsReplayed != 20 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

// TestEmptyCheckpointLeavesGenerationsEqual: a checkpoint over an empty
// archived range copies only the lines the last replay wrote — fewer bytes
// than the used prefix — and that alone leaves the new generation byte-equal
// to the old one over it; the next such checkpoint copies nothing.
func TestEmptyCheckpointLeavesGenerationsEqual(t *testing.T) {
	e, _ := newEngine(t)
	defer e.Close()
	for round := 0; round < 3; round++ {
		for i := 0; i < 30; i++ {
			doSet(t, e, fmt.Sprintf("r%dk%02d", round, i), uint64(round*100+i))
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for empty := 0; empty < 2; empty++ {
		before := e.Stats().ShadowBytesCloned
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st, _ := e.RootState()
		cur, err := e.shadowSpace(int(st.ShadowGen))
		if err != nil {
			t.Fatal(err)
		}
		old, err := e.shadowSpace(1 - int(st.ShadowGen))
		if err != nil {
			t.Fatal(err)
		}
		al, err := alloc.Open(cur)
		if err != nil {
			t.Fatal(err)
		}
		used, copied := al.Used(), e.Stats().ShadowBytesCloned-before
		for off := uint64(0); off < used; off += pmem.LineSize {
			if !bytes.Equal(cur.Slice(off, pmem.LineSize), old.Slice(off, pmem.LineSize)) {
				t.Fatalf("empty checkpoint %d: generations differ at line %d of %d", empty, off/pmem.LineSize, used/pmem.LineSize)
			}
		}
		if empty == 0 && (copied == 0 || copied >= used) || empty == 1 && copied != 0 {
			t.Fatalf("empty checkpoint %d copied %d of %d used bytes", empty, copied, used)
		}
	}
}

func TestRecoveryAfterCleanCrashNoCheckpoint(t *testing.T) {
	e, dev := newEngine(t)
	model := map[string]uint64{}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%02d", i%10)
		doSet(t, e, k, uint64(i))
		model[k] = uint64(i)
	}
	doDel(t, e, "k03")
	delete(model, "k03")
	e.Close()
	dev.Crash(pmem.CrashDropDirty, 1)

	e2, err := Open(dev, testConfig(), testReplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	checkModel(t, e2, model)
}

func TestRecoveryAfterCompletedCheckpoint(t *testing.T) {
	e, dev := newEngine(t)
	model := map[string]uint64{}
	for i := 0; i < 15; i++ {
		k := fmt.Sprintf("pre%02d", i)
		doSet(t, e, k, uint64(i))
		model[k] = uint64(i)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("post%02d", i)
		doSet(t, e, k, uint64(100+i))
		model[k] = uint64(100 + i)
	}
	e.Close()
	dev.Crash(pmem.CrashDropDirty, 2)

	e2, err := Open(dev, testConfig(), testReplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	checkModel(t, e2, model)
}

// TestRecoveryDuringCheckpoint crashes between the log swap (root says a
// checkpoint is in flight) and the root flip — the paper's "worst possible
// failure point" (§5.5). Recovery must redo the checkpoint from the archived
// log and then replay the active log.
func TestRecoveryDuringCheckpoint(t *testing.T) {
	e, dev := newEngine(t)
	model := map[string]uint64{}
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("k%02d", i)
		doSet(t, e, k, uint64(i))
		model[k] = uint64(i)
	}
	// Perform only the swap + root update of a checkpoint, then "crash".
	e.pair.Swap(func(newActive, archived int, replayEnd uint64) {
		e.mu.Lock()
		e.rootSeq++
		writeRoot(e.dev, RootState{
			Seq:            e.rootSeq,
			ActiveLog:      uint8(newActive),
			ShadowGen:      uint8(e.shadowGen),
			CkptInProgress: 1,
			ArchivedLog:    uint8(archived),
			ReplayEnd:      replayEnd,
		})
		e.mu.Unlock()
	})
	// A couple more committed ops land in the new active log before the crash.
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("late%d", i)
		doSet(t, e, k, uint64(1000+i))
		model[k] = uint64(1000 + i)
	}
	dev.Crash(pmem.CrashDropDirty, 3)

	e2, err := Open(dev, testConfig(), testReplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	st, _ := e2.RootState()
	if st.CkptInProgress != 0 {
		t.Fatalf("recovery left checkpoint in progress: %+v", st)
	}
	if st.ShadowGen != 1 {
		t.Fatalf("recovery did not flip the shadow generation: %+v", st)
	}
	checkModel(t, e2, model)
}

// TestRecoveryIsIdempotent crashes during the recovery *redo* itself and
// recovers again (§3.6: "the recovery process is guaranteed to be
// idempotent").
func TestRecoveryIsIdempotent(t *testing.T) {
	e, dev := newEngine(t)
	model := map[string]uint64{}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%02d", i)
		doSet(t, e, k, uint64(i))
		model[k] = uint64(i)
	}
	e.pair.Swap(func(newActive, archived int, replayEnd uint64) {
		e.mu.Lock()
		e.rootSeq++
		writeRoot(e.dev, RootState{
			Seq: e.rootSeq, ActiveLog: uint8(newActive),
			ShadowGen: uint8(e.shadowGen), CkptInProgress: 1,
			ArchivedLog: uint8(archived), ReplayEnd: replayEnd,
		})
		e.mu.Unlock()
	})
	dev.Crash(pmem.CrashDropDirty, 4)

	// First recovery attempt: run only the redo, then crash again before
	// anything else uses the engine.
	{
		st, _ := readRoot(dev)
		e1 := &Engine{dev: dev, cfg: func() Config { c := testConfig(); c.setDefaults(); return c }(),
			replay: testReplay, rootSeq: st.Seq, shadowGen: int(st.ShadowGen),
			trigger: make(chan struct{}, 1), closed: make(chan struct{})}
		log0, err := e1.logSpace(0)
		if err != nil {
			t.Fatal(err)
		}
		log1, err := e1.logSpace(1)
		if err != nil {
			t.Fatal(err)
		}
		e1.pair, err = wal.RecoverPair(log0, log1, int(st.ActiveLog))
		if err != nil {
			t.Fatal(err)
		}
		if st.CkptInProgress == 0 {
			t.Fatal("expected in-progress checkpoint")
		}
		if err := e1.replayOntoNewShadow(int(st.ArchivedLog), st.ReplayEnd); err != nil {
			t.Fatal(err)
		}
		dev.Crash(pmem.CrashDropDirty, 5)
	}

	// Second, full recovery.
	e2, err := Open(dev, testConfig(), testReplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	checkModel(t, e2, model)
}

func TestLogFullTriggersSynchronousCheckpoint(t *testing.T) {
	e, _ := newEngine(t)
	defer e.Close()
	model := map[string]uint64{}
	// Far more ops than one 16 KB log holds: Append must checkpoint inline.
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key%04d", i%200)
		doSet(t, e, k, uint64(i))
		model[k] = uint64(i)
	}
	if e.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoint despite log pressure")
	}
	checkModel(t, e, model)
}

func TestCheckpointWhileFrontendRuns(t *testing.T) {
	// Quiescent-freedom smoke test: appenders make progress while
	// checkpoints run concurrently.
	cfg := Config{LogBytes: 1 << 15, ArenaBytes: 1 << 21, AutoCheckpoint: true, CheckpointThreshold: 0.5}
	dev := pmem.New(pmem.Config{Size: int(cfg.DeviceBytes()), TrackPersistence: true})
	e, err := Format(dev, cfg, testReplay, bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var mu sync.Mutex // serializes frontend btree access (DStore's job)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var payload [8]byte
			for i := 0; i < 400; i++ {
				name := []byte(fmt.Sprintf("g%dk%03d", g, i))
				binary.LittleEndian.PutUint64(payload[:], uint64(i))
				h, err := appendRec(e, opSet, name, payload[:])
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				tr := frontendTree(e)
				_, _, ierr := tr.Insert(name, uint64(i))
				mu.Unlock()
				if ierr != nil {
					t.Errorf("insert: %v", ierr)
					return
				}
				e.Pair().Commit(h)
			}
		}(g)
	}
	wg.Wait()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tr := frontendTree(e)
	if tr.Len() != 1600 {
		t.Fatalf("tree len = %d", tr.Len())
	}
	// Shadow must observationally match the frontend.
	st, _ := e.RootState()
	shadowSp, err := e.shadowSpace(int(st.ShadowGen))
	if err != nil {
		t.Fatal(err)
	}
	shadowAl, err := alloc.Open(shadowSp)
	if err != nil {
		t.Fatal(err)
	}
	str := btree.Open(shadowAl, shadowAl.Root(0))
	if str.Len() != 1600 {
		t.Fatalf("shadow len = %d", str.Len())
	}
}

// Property: for any op stream, crash seed, and crash policy, recovery
// reproduces exactly the committed operations.
func TestQuickCrashRecoveryObservationalEquivalence(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		cfg := testConfig()
		dev := pmem.New(pmem.Config{Size: int(cfg.DeviceBytes()), TrackPersistence: true})
		e, err := Format(dev, cfg, testReplay, bootstrap)
		if err != nil {
			return false
		}
		model := map[string]uint64{}
		for i, op := range ops {
			k := fmt.Sprintf("k%02d", op%23)
			if op%5 == 0 {
				h, err := appendRec(e, opDel, []byte(k), nil)
				if err != nil {
					return false
				}
				frontendTree(e).Delete([]byte(k)) //nolint:errcheck
				e.Pair().Commit(h)
				delete(model, k)
			} else {
				var p [8]byte
				binary.LittleEndian.PutUint64(p[:], uint64(i))
				h, err := appendRec(e, opSet, []byte(k), p[:])
				if err != nil {
					return false
				}
				if _, _, err := frontendTree(e).Insert([]byte(k), uint64(i)); err != nil {
					return false
				}
				e.Pair().Commit(h)
				model[k] = uint64(i)
			}
			if op%31 == 0 {
				if err := e.Checkpoint(); err != nil {
					return false
				}
			}
		}
		e.Close()
		dev.Crash(pmem.CrashRandom, seed)

		e2, err := Open(dev, testConfig(), testReplay, nil)
		if err != nil {
			return false
		}
		defer e2.Close()
		tr := frontendTree(e2)
		if tr.Len() != uint64(len(model)) {
			return false
		}
		for k, v := range model {
			got, ok := tr.Get([]byte(k))
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsUnformattedDevice(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: int(testConfig().DeviceBytes()), TrackPersistence: true})
	if _, err := Open(dev, testConfig(), testReplay, nil); err == nil {
		t.Fatal("Open accepted an unformatted device")
	}
}

func TestFormatRejectsSmallDevice(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 16, TrackPersistence: true})
	if _, err := Format(dev, testConfig(), testReplay, bootstrap); err == nil {
		t.Fatal("Format accepted an undersized device")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	e, _ := newEngine(t)
	e.Close()
	e.Close()
	if _, err := appendRec(e, opSet, []byte("x"), make([]byte, 8)); err == nil {
		// Append on a closed engine may still succeed if the log has room —
		// the guard only gates checkpoint-on-full. Either outcome is fine,
		// but it must not hang or panic.
		_ = err
	}
}
