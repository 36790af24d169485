package dstore

import (
	"testing"

	"dstore/internal/ycsb"
)

// The block cache's hit ratio end to end: one client, a fixed-seed YCSB-B
// stream over 2,000 4 KiB records and a cache of a fifth of them, split over
// four cache shards. Two things the cache decides move this number: whether a
// write finds the room its displaced version left (in whatever shard that
// was), and whether a one-off miss may push out a block the readers keep
// coming back to. The floor sits between the ratio of a cache that budgets
// room per shard and evicts by plain CLOCK (0.746) and that of the one-budget,
// frequency-admitting cache (0.797); the static optimum, the 400 hottest
// records resident, is about 0.80.
func TestCacheHitRatioYCSBB(t *testing.T) {
	const records, valueBytes, ops, floor = 2000, 4096, 100000, 0.77
	s, err := Format(Config{Blocks: 4096, MaxObjects: 4096, LogBytes: 1 << 20, CacheBytes: records * valueBytes / 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := s.Init()
	defer ctx.Finalize()
	g := ycsb.NewGenerator(ycsb.B(records, valueBytes), 1)
	for i := 0; i < records; i++ {
		if err := ctx.Put(ycsb.Key(i), g.Value()); err != nil {
			t.Fatal(err)
		}
	}
	before := s.CacheStats()
	var buf []byte
	for i := 0; i < ops; i++ {
		op, key := g.Next()
		if op == ycsb.OpRead {
			buf, err = ctx.Get(key, buf[:0])
		} else {
			err = ctx.Put(key, g.Value())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	after := s.CacheStats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	ratio := float64(hits) / float64(hits+misses)
	t.Logf("hit ratio %.4f (%d hits, %d misses, %d evictions)", ratio, hits, misses, after.Evictions-before.Evictions)
	if ratio < floor {
		t.Fatalf("hit ratio %.4f below %.2f", ratio, floor)
	}
}
