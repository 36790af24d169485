package dipper

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"dstore/internal/alloc"
	"dstore/internal/btree"
	"dstore/internal/pmem"
)

func TestAutoCheckpointTriggersOnLogPressure(t *testing.T) {
	cfg := Config{
		LogBytes:            1 << 14,
		ArenaBytes:          1 << 20,
		AutoCheckpoint:      true,
		CheckpointThreshold: 0.5,
	}
	dev := pmem.New(pmem.Config{Size: int(cfg.DeviceBytes()), TrackPersistence: true})
	e, err := Format(dev, cfg, testReplay, bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var payload [8]byte
	for i := 0; i < 400; i++ {
		binary.LittleEndian.PutUint64(payload[:], uint64(i))
		name := []byte(fmt.Sprintf("key%03d", i))
		h, err := appendRec(e, opSet, name, payload[:])
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := frontendTree(e).Insert(name, uint64(i)); err != nil {
			t.Fatal(err)
		}
		e.Pair().Commit(h)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Stats().Checkpoints == 0 {
		t.Fatal("background checkpoint never triggered despite log pressure")
	}
}

func TestCheckpointHooks(t *testing.T) {
	cfg := testConfig()
	swaps, dones := 0, 0
	cfg.OnSwap = func() { swaps++ }
	cfg.OnCheckpointDone = func() { dones++ }
	dev := pmem.New(pmem.Config{Size: int(cfg.DeviceBytes()), TrackPersistence: true})
	e, err := Format(dev, cfg, testReplay, bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	doSet(t, e, "a", 1)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if swaps != 1 || dones != 1 {
		t.Fatalf("hooks: swaps=%d dones=%d", swaps, dones)
	}
}

func TestRecoveryBreakdownPopulated(t *testing.T) {
	e, dev := newEngine(t)
	doSet(t, e, "x", 1)
	e.Close()
	dev.Crash(pmem.CrashDropDirty, 1)
	// The owner's rebuild runs once, on the replayed arena, and is booked
	// under the replay phase.
	const rebuild = 2 * time.Millisecond
	calls := 0
	e2, err := Open(dev, testConfig(), testReplay, func(al *alloc.Allocator) error {
		calls++
		if v, ok := btree.Open(al, al.Root(0)).Get([]byte("x")); !ok || v != 1 {
			return fmt.Errorf("recovered callback before replay: x = %d, %v", v, ok)
		}
		time.Sleep(rebuild)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	meta, replay := e2.RecoveryBreakdown()
	if meta <= 0 {
		t.Fatalf("metadata phase unmeasured: %d", meta)
	}
	if calls != 1 || replay < int64(rebuild) {
		t.Fatalf("recovered callback ran %d times; replay phase %d ns, want at least its %v", calls, replay, rebuild)
	}
}

func TestSwapOnlyForCrashLeavesCkptInProgress(t *testing.T) {
	e, dev := newEngine(t)
	doSet(t, e, "x", 1)
	e.SwapOnlyForCrash()
	st, err := readRoot(dev)
	if err != nil {
		t.Fatal(err)
	}
	if st.CkptInProgress != 1 {
		t.Fatalf("root = %+v", st)
	}
	dev.Crash(pmem.CrashDropDirty, 3)
	e2, err := Open(dev, testConfig(), testReplay, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	checkModel(t, e2, map[string]uint64{"x": 1})
	st2, _ := e2.RootState()
	if st2.CkptInProgress != 0 {
		t.Fatal("recovery left checkpoint in progress")
	}
}
