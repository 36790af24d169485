package dstore

import (
	"fmt"
	"testing"
)

// TestApplyFailureNeverLeavesWritableInconsistent drives a store into index
// arena exhaustion, where the structure apply of a write fails after its
// record was appended: at 1.5 MiB the B-tree cannot allocate the new key, at
// 2 MiB it runs dry half-way through a node split. Either way the write
// pipeline's one failure policy must hold: nothing visible → the write is
// retracted and the store stays writable and consistent; anything visible →
// the store degrades, and because the failed write's record died, a reopen
// comes back consistent and without it. What the store may never be is
// writable with Check() failing — or unopenable. Nor may the failed write be
// in the block cache: only an apply that succeeded publishes.
func TestApplyFailureNeverLeavesWritableInconsistent(t *testing.T) {
	writers := map[string]func(c *Ctx, key string) error{
		"Put": func(c *Ctx, key string) error { return c.Put(key, []byte("v")) },
		"OpenCreate": func(c *Ctx, key string) error {
			o, err := c.Open(key, 1, OpenCreate)
			if err == nil {
				o.Close()
			}
			return err
		},
	}
	for _, arena := range []uint64{1536 << 10, 2 << 20} {
		for name, write := range writers {
			t.Run(fmt.Sprintf("%s/arena=%dK", name, arena>>10), func(t *testing.T) {
				cfg := Config{Blocks: 8192, MaxObjects: 8192, MaxBlocksPerObject: 2, ArenaBytes: arena, CacheBytes: 1 << 20}
				s, err := Format(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.CloseNoCheckpoint()
				ctx := s.Init()
				defer ctx.Finalize()
				var werr error
				n := 0
				for ; n < 8192 && werr == nil; n++ {
					werr = write(ctx, fmt.Sprintf("fresh-key-%023d", n)) // 33-byte keys
				}
				if werr == nil {
					t.Fatal("the arena never ran out; the test no longer reaches the failing apply")
				}
				t.Logf("write %d failed: %v (degraded=%v)", n, werr, s.Degraded())
				// Each Put before it published its one byte; a create has no
				// content to publish.
				want := uint64(n - 1)
				if name == "OpenCreate" {
					want = 0
				}
				if cs := s.CacheStats(); cs.Bytes != want {
					t.Fatalf("cache holds %d bytes after the failed write, want the %d of the writes that succeeded", cs.Bytes, want)
				}
				if s.Degraded() {
					s.CloseNoCheckpoint()
					cfg.PMEM, cfg.SSD = s.Devices()
					r, err := Open(cfg)
					if err != nil {
						t.Fatalf("reopen after the degrading write: %v", err)
					}
					defer r.Close()
					if err := r.Check(); err != nil {
						t.Fatalf("reopened store: %v", err)
					}
					if got := r.Count(); got != uint64(n-1) {
						t.Fatalf("reopened store holds %d objects, want the %d written before the failure", got, n-1)
					}
					return
				}
				if err := s.Check(); err != nil {
					t.Fatalf("store is writable but inconsistent after the failed write: %v", err)
				}
				// A clean failure returned its slot and blocks: writes that need
				// no new index entry still work.
				if err := ctx.Put(fmt.Sprintf("fresh-key-%023d", 0), []byte("again")); err != nil {
					t.Fatalf("overwrite after the clean failure: %v", err)
				}
				if err := s.Check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
