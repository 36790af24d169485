package dstore

// Randomized fault-injection soak: run a seeded workload against a store
// whose SSD injects transient errors, permanent bad pages, and silent bit
// flips, and verify the robustness contract — every operation either
// succeeds, returns a typed error (ErrCorrupt / fault.ErrTransient /
// fault.ErrPermanent / ErrDegraded), or leaves the store degraded; it never
// returns wrong data. The oracle's model (oracle_test.go) tracks the
// acceptable states of each key: a failed write is a unit whose outcome is
// indeterminate between the key's old and attempted values. After the soak,
// fsck and a scrub must pass, and a crash + reopen on a replaced (healthy)
// device must recover every determinate key.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dstore/internal/fault"
)

// typedErr reports whether err is one of the documented fault-path errors.
func typedErr(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrDegraded) ||
		fault.IsTransient(err) || fault.IsPermanent(err)
}

func TestFaultSoak(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFaultSoak(t, seed)
		})
	}
}

func runFaultSoak(t *testing.T, seed int64) {
	plan := fault.NewPlan(fault.Config{
		Seed:         seed,
		ReadErrRate:  0.005,
		WriteErrRate: 0.01,
		BitFlipRate:  0.002,
		// Ordinal triggers guarantee each fault class fires at least once.
		FailReadAt:  []uint64{20},
		FailWriteAt: []uint64{5},
		BitFlipAt:   []uint64{10},
		// Pages 40 and 90 are data blocks 39 and 89 (block 0 is the
		// superblock): any Put that allocates them must quarantine and
		// re-allocate.
		BadPages: []uint64{40, 90},
	})
	cfg := Config{
		Blocks:           2048,
		MaxObjects:       256,
		LogBytes:         1 << 18,
		TrackPersistence: true,
		SSDFaults:        plan,
	}
	s, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.Init()
	rng := rand.New(rand.NewSource(seed))
	m := &model{}
	key := func() string { return fmt.Sprintf("soak-%02d", rng.Intn(48)) }

	const ops = 1500
	for i := 0; i < ops; i++ {
		if s.Degraded() {
			break // degraded behavior is verified below
		}
		k := key()
		switch r := rng.Intn(10); {
		case r < 6: // put
			v := make([]byte, 1+rng.Intn(3*int(blockSize)))
			rng.Read(v)
			if err := m.do(func() error { return ctx.Put(k, v) }, put(k, v)); err != nil {
				if !typedErr(err) {
					t.Fatalf("op %d: Put(%s): untyped error %v", i, k, err)
				}
				m.fail()
			}
		case r < 9: // get
			got, err := read(ctx.Get(k, nil))
			switch {
			case err == nil:
				if !m.allows(k, got) {
					t.Fatalf("op %d: Get(%s) returned wrong data or lost a committed value (%d bytes)", i, k, len(got))
				}
			case !typedErr(err):
				t.Fatalf("op %d: Get(%s): untyped error %v", i, k, err)
			}
		default: // delete
			if err := m.do(func() error { return ctx.Delete(k) }, del(k)); err != nil {
				if !typedErr(err) {
					t.Fatalf("op %d: Delete(%s): untyped error %v", i, k, err)
				}
				m.fail()
			}
		}
	}

	// The ordinal triggers above guarantee the retry and bit-flip paths ran.
	if st := plan.Stats(); st.TransientWrites == 0 || st.BitFlips == 0 {
		t.Errorf("fault plan under-exercised: %+v", st)
	}
	if h := s.Health(); h.IORetries == 0 {
		t.Errorf("expected at least one retried I/O, health=%+v", h)
	}

	// Structural invariants hold under fire, and no *live* block may be
	// corrupt on media: failed writes were aborted and their blocks freed,
	// bit flips happen on the read path only.
	if err := s.Check(); err != nil {
		t.Fatalf("fsck after soak: %v", err)
	}
	rep, err := s.Scrub(false)
	if err != nil && !typedErr(err) {
		t.Fatalf("scrub after soak: %v", err)
	}
	if err == nil && len(rep.Corrupt) > 0 {
		t.Fatalf("scrub found corrupt live blocks: %+v", rep.Corrupt)
	}

	// Degraded or not, reads must still be served.
	for i := 0; i < 48; i++ {
		k := fmt.Sprintf("soak-%02d", i)
		if _, err := ctx.Get(k, nil); err != nil && err != ErrNotFound && !typedErr(err) {
			t.Fatalf("post-soak Get(%s): untyped error %v", k, err)
		}
	}

	// Replace the device (drop the fault plan), crash, reopen: every
	// surviving key must satisfy its acceptable set with no errors at all.
	pm, data := s.Devices()
	var cerr error
	if cfg.PMEM, cfg.SSD, cerr = s.Crash(seed); cerr != nil {
		t.Fatal(cerr)
	}
	pm.SetFaultPlan(nil)
	data.SetFaultPlan(nil)
	cfg.SSDFaults = nil
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen on replaced device: %v", err)
	}
	defer s2.Close()
	if s2.Degraded() {
		t.Fatal("store reopened degraded on a healthy device")
	}
	judge(t, "after reopen", s2, m)
	// And the store is fully writable again.
	if err := s2.Init().Put("post-replace", []byte("healthy")); err != nil {
		t.Fatalf("write after device replacement: %v", err)
	}
}

// TestDegradedModeServesReads drives the store into degraded mode with an
// unrecoverable PMEM log-append failure and verifies the contract: writes
// return ErrDegraded, reads keep working, and a crash + reopen on a replaced
// device recovers every committed object and clears the degradation.
func TestDegradedModeServesReads(t *testing.T) {
	cfg := Config{
		Blocks:           512,
		MaxObjects:       128,
		LogBytes:         1 << 16,
		TrackPersistence: true,
	}
	s, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.Init()
	committed := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("pre-%02d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 300+i*57)
		if err := ctx.Put(k, v); err != nil {
			t.Fatal(err)
		}
		committed[k] = v
	}

	// Every PMEM log append now fails, exhausting the bounded retries.
	pm, _ := s.Devices()
	pm.SetFaultPlan(fault.NewPlan(fault.Config{Seed: 7, WriteErrRate: 1}))
	if err := ctx.Put("victim", []byte("doomed")); err == nil {
		t.Fatal("Put succeeded with every log append failing")
	} else if !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put error not ErrDegraded: %v", err)
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after unrecoverable append failure")
	}
	h := s.Health()
	if !h.Degraded || h.Reason == "" {
		t.Fatalf("Health() does not report degradation: %+v", h)
	}

	// Writes of every flavor are rejected with the typed error...
	if err := ctx.Put("other", []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Put: %v", err)
	}
	if err := ctx.Delete("pre-00"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Delete: %v", err)
	}
	if _, err := ctx.Open("fresh", 64, OpenCreate|OpenWrite); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Open(create): %v", err)
	}
	// Opening an existing object is fine (reads work); writing through the
	// handle is not.
	f, err := ctx.Open("pre-00", 0, OpenRead|OpenWrite)
	if err != nil {
		t.Fatalf("degraded Open(existing): %v", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded WriteAt: %v", err)
	}
	f.Close()
	// ...while every committed object stays readable.
	for k, v := range committed {
		got, err := ctx.Get(k, nil)
		if err != nil {
			t.Fatalf("degraded Get(%s): %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("degraded Get(%s): wrong data", k)
		}
	}
	if _, err := ctx.Get("victim", nil); err != ErrNotFound {
		t.Fatalf("failed Put leaked state: %v", err)
	}

	// Replace the device and power-cycle: recovery clears the degradation
	// and every committed object survives.
	pm.SetFaultPlan(nil)
	var cerr error
	if cfg.PMEM, cfg.SSD, cerr = s.Crash(7); cerr != nil {
		t.Fatal(cerr)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after degradation: %v", err)
	}
	defer s2.Close()
	if s2.Degraded() {
		t.Fatal("degradation survived a reopen on a replaced device")
	}
	if err := s2.Check(); err != nil {
		t.Fatalf("fsck after reopen: %v", err)
	}
	ctx2 := s2.Init()
	for k, v := range committed {
		got, err := ctx2.Get(k, nil)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("after reopen: Get(%s) = %v", k, err)
		}
	}
	if err := ctx2.Put("recovered", []byte("writable again")); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestScrubRepairMigratesQuarantinedBlock quarantines a healthy live block
// (as the permanent-error path would) and verifies Scrub(repair) migrates
// its content to fresh media via a durably logged remap.
func TestScrubRepairMigratesQuarantinedBlock(t *testing.T) {
	cfg := Config{Blocks: 512, MaxObjects: 128, LogBytes: 1 << 16, TrackPersistence: true}
	s, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := s.Init()
	want := bytes.Repeat([]byte{0xAB}, int(blockSize)+123) // two blocks
	if err := ctx.Put("obj", want); err != nil {
		t.Fatal(err)
	}

	// Find the object's first block and quarantine it.
	s.treeMu.RLock()
	slot, ok := s.front.tree.Get([]byte("obj"))
	s.treeMu.RUnlock()
	if !ok {
		t.Fatal("obj not indexed")
	}
	e, used, zerr := s.zoneRead(slot, nil)
	if zerr != nil {
		t.Fatal(zerr)
	}
	if !used || len(e.Blocks) != 2 {
		t.Fatalf("unexpected entry: used=%v blocks=%v", used, e.Blocks)
	}
	old := e.Blocks[0]
	s.quarantineBlock(old)

	rep, err := s.Scrub(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repaired) != 1 || rep.Repaired[0].Block != old {
		t.Fatalf("expected one repair of block %d, got %+v", old, rep.Repaired)
	}
	if len(rep.Corrupt) != 0 {
		t.Fatalf("unexpected corruption: %+v", rep.Corrupt)
	}
	e2, _, _ := s.zoneRead(slot, nil)
	if e2.Blocks[0] == old {
		t.Fatal("block not remapped")
	}
	got, err := ctx.Get("obj", nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("content changed by repair: %v", err)
	}
	if h := s.Health(); h.Remaps != 1 {
		t.Fatalf("Health().Remaps = %d, want 1", h.Remaps)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("fsck after repair: %v", err)
	}

	// The remap is durable: a crash + reopen serves the object from the
	// fresh block (the quarantined one returns to the pool on reopen).
	var cerr error
	if cfg.PMEM, cfg.SSD, cerr = s.Crash(3); cerr != nil {
		t.Fatal(cerr)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err = s2.Init().Get("obj", nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after reopen: %v", err)
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}
