package dstore

import (
	"bytes"
	"testing"

	"dstore/internal/fault"
)

// TestCrashThenBadPage combines the two failure modes: a worst-case
// mid-checkpoint power loss followed by one data page going permanently bad
// before the store is used again. Recovery must succeed (recovery reads only
// PMEM metadata), reads of the affected object must fail with a typed
// permanent error — never wrong data — and a scrub must find and quarantine
// the block so an overwrite heals the object without ever reusing the bad
// media.
func TestCrashThenBadPage(t *testing.T) {
	cfg := Config{
		Blocks:           2048,
		MaxObjects:       512,
		LogBytes:         1 << 16,
		TrackPersistence: true,
	}
	s, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := play(t, s, mixed(plainMix)).m
	s.PrepareWorstCaseCrash()
	var cerr error
	if cfg.PMEM, cfg.SSD, cerr = s.Crash(99); cerr != nil {
		t.Fatal(cerr)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	judge(t, "recovery", s2, m)
	want, _ := contents(s2) // what the verdict just accepted

	// Pick a live block of a surviving object and mark its page bad
	// (dataOff: block b is page b+1).
	var victim string
	var badBlock uint64
	for k := range want {
		s2.treeMu.RLock()
		slot, ok := s2.front.tree.Get([]byte(k))
		s2.treeMu.RUnlock()
		if !ok {
			t.Fatalf("committed key %q lost in recovery", k)
		}
		if e, used, _ := s2.zoneRead(slot); used && len(e.Blocks) > 0 {
			victim, badBlock = k, e.Blocks[0]
			break
		}
	}
	if victim == "" {
		t.Fatal("no live object found")
	}
	plan := fault.NewPlan(fault.Config{BadPages: []uint64{badBlock + 1}})
	_, data := s2.Devices()
	data.SetFaultPlan(plan)

	ctx := s2.Init()
	if _, err := ctx.Get(victim, nil); !fault.IsPermanent(err) {
		t.Fatalf("Get(%s) on bad page: want permanent error, got %v", victim, err)
	}
	// Every other object still reads back correctly.
	for k, v := range want {
		if k == victim {
			continue
		}
		got, err := ctx.Get(k, nil)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("Get(%s): wrong data after crash+bad page", k)
		}
	}

	// The scrub localizes the damage and quarantines the block.
	rep, err := s2.Scrub(false)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	found := false
	for _, f := range rep.Corrupt {
		if f.Block == badBlock && f.Name == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrub did not report block %d of %q: %+v", badBlock, victim, rep.Corrupt)
	}
	if !s2.isQuarantined(badBlock) {
		t.Fatal("bad block not quarantined by scrub")
	}

	// Overwriting the object allocates healthy blocks; the quarantined one
	// never re-enters circulation, and fsck's conservation law still holds.
	fresh := bytes.Repeat([]byte{0x5A}, 600)
	if err := ctx.Put(victim, fresh); err != nil {
		t.Fatalf("healing Put: %v", err)
	}
	got, err := ctx.Get(victim, nil)
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("Get after healing Put: %v", err)
	}
	if err := s2.Check(); err != nil {
		t.Fatalf("fsck: %v", err)
	}
}
