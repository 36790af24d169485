package dstore

import (
	"errors"
	"fmt"
	"testing"
)

// TestApplyFailureNeverLeavesWritableInconsistent is the crash oracle's
// apply-failure row (run under its own name: its four inputs are its
// subtests). The fault is an index arena that runs out, so the structure apply
// of a write fails after its record was appended: at 1.5 MiB the B-tree cannot
// allocate the new key, at 2 MiB it runs dry half-way through a node split.
// The write pipeline's one failure policy must hold at every write that fails,
// not only the first: nothing visible → the write is retracted and the store
// stays writable and passes the verdict; anything visible → the store degrades
// and, the failed write's record having died, a reopen passes the verdict
// without it. What the store may never be is writable with Check() failing — or
// unopenable — nor the failed write in the block cache: only a successful apply
// publishes.
func TestApplyFailureNeverLeavesWritableInconsistent(t *testing.T) {
	writers := map[string]func(c Context, key string) error{
		"Put": func(c Context, key string) error { return c.Put(key, []byte("v")) },
		"OpenCreate": func(c Context, key string) error {
			o, err := c.Open(key, 1, OpenCreate)
			if err == nil {
				o.Close()
			}
			return err
		},
	}
	// A store the failure degraded is reopened from its devices; a writable one serves on.
	reopenDegraded := func(u *rig, p point) (API, error) {
		if !u.api.Degraded() {
			return u.api, nil
		}
		cfgs := u.configs()
		u.api.CloseNoCheckpoint() //nolint:errcheck // the reopen is the verdict
		return asAPI(Open(cfgs[0]))
	}
	for _, arena := range []uint64{1536 << 10, 2 << 20} {
		for name, write := range writers {
			content := map[string][]byte{"Put": []byte("v"), "OpenCreate": {0}}[name]
			sub := fmt.Sprintf("%s/arena=%dK", name, arena>>10)
			t.Run(sub, row{
				name:  "applyfail/" + sub,
				shape: shape{build: bare.build, recover: reopenDegraded},
				cfg:   Config{Blocks: 8192, MaxObjects: 8192, MaxBlocksPerObject: 2, ArenaBytes: arena, CacheBytes: 1 << 20},
				at:    []point{{}},
				script: func(u *rig) error {
					c, s := u.ctx(), u.api.(*Store)
					key := func(n int) string { return fmt.Sprintf("fresh-key-%023d", n) } // 33-byte keys
					failures := 0
					for n := 0; n < 8192 && failures < 3 && !s.Degraded(); n++ {
						err := u.m.do(func() error { return write(c, key(n)) }, put(key(n), content))
						if err == nil {
							continue
						}
						u.m.retract() // nothing of a failed write may be seen, now or after a reopen
						if failures++; failures == 1 {
							t.Logf("write %d failed: %v (degraded=%v)", n+1, err, s.Degraded())
							// Each Put before it published its one byte; a create
							// has no content to publish.
							want := uint64(n)
							if name == "OpenCreate" {
								want = 0
							}
							if cs := s.CacheStats(); cs.Bytes != want {
								return fmt.Errorf("cache holds %d bytes after the failed write, want the %d of the writes that succeeded", cs.Bytes, want)
							}
						}
						if !s.Degraded() {
							u.check() // still writable ⇒ consistent, and without the failed key
						}
					}
					if failures == 0 {
						return errors.New("the arena never ran out; the row no longer reaches the failing apply")
					} else if s.Degraded() {
						return nil
					}
					// A clean failure returned its slot and blocks: writes that
					// need no new index entry still work.
					return u.m.do(func() error { return c.Put(key(0), []byte("again")) }, put(key(0), []byte("again")))
				},
			}.run)
		}
	}
}
