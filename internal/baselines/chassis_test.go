package baselines_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dstore/internal/baselines/btreestore"
	"dstore/internal/baselines/lsmstore"
	"dstore/internal/kvapi"
)

// TestTableRegionFull: a checkpoint whose key→block table does not fit its
// PMEM region must fail and leave the log in place — not persist a prefix of
// the table, truncate the log and come back from a crash without the rest of
// the keys. 70 keys of 64 KiB need 4.4 MiB of the 4 MiB region; the logs
// (16 MiB) hold them easily.
func TestTableRegionFull(t *testing.T) {
	type store interface {
		kvapi.Store
		kvapi.Crasher
	}
	for _, tc := range []struct {
		name       string
		open       func() (store, error)
		checkpoint func(s store) error
	}{
		{"MongoDB-PM", func() (store, error) {
			var c btreestore.Config
			c.Blocks, c.TrackPersistence = 256, true
			return btreestore.New(c)
		}, func(s store) error { return s.(*btreestore.Store).Checkpoint() }},
		// Compaction off, so the one compaction is the clean shutdown's.
		{"PMEM-RocksDB", func() (store, error) {
			var c lsmstore.Config
			c.Blocks, c.TrackPersistence, c.DisableCompaction = 256, true, true
			return lsmstore.New(c)
		}, func(s store) error { return s.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			key := func(i int) string { return fmt.Sprintf("%04d", i) + strings.Repeat("k", 64<<10) }
			val := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 16) }
			for i := 0; i < 70; i++ {
				if err := s.Put(key(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			ckptErr := tc.checkpoint(s)
			if err := s.Crash(1); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Recover(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 70; i++ {
				got, err := s.Get(key(i), nil)
				if err != nil || !bytes.HasPrefix(got, val(i)) {
					t.Fatalf("key %d after the checkpoint (%v), a crash and recovery: %v", i, ckptErr, err)
				}
			}
			if ckptErr == nil {
				t.Fatal("a table larger than its region was checkpointed without an error")
			}
			s.Crash(2) //nolint:errcheck // stops the compactor; Close would retry the checkpoint
		})
	}
}
