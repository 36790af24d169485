package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func block(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestNilCacheAlwaysMisses(t *testing.T) {
	var c *Cache
	if c.Get(1, 2, make([]byte, 4)) {
		t.Fatal("nil cache reported a hit")
	}
	c.Insert(1, 2, []byte{1})
	if c.Publish(1, 2, []byte{1}) {
		t.Fatal("nil cache accepted a publish")
	}
	c.Invalidate(1)
	c.Resize(1)
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	if New(0) != nil {
		t.Fatal("New(0) should return the nil always-miss cache")
	}
}

func TestHitRequiresSumAndLength(t *testing.T) {
	c := New(1 << 20)
	data := block(4096, 0xAB)
	c.Insert(7, 1234, data)

	dst := make([]byte, 4096)
	if !c.Get(7, 1234, dst) {
		t.Fatal("expected hit")
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("hit returned wrong content")
	}

	// Wrong sum: the block was rewritten under a new checksum — must miss
	// and drop the stale entry.
	if c.Get(7, 9999, dst) {
		t.Fatal("hit served across a checksum change")
	}
	if c.Get(7, 1234, dst) {
		t.Fatal("stale entry survived a sum-mismatch probe")
	}

	// Wrong span length: same sum but the logical span differs — must miss.
	c.Insert(8, 42, block(100, 1))
	if c.Get(8, 42, make([]byte, 200)) {
		t.Fatal("hit served across a span-length change")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(1 << 20)
	c.Insert(3, 5, block(64, 3))
	c.Invalidate(3)
	if c.Get(3, 5, make([]byte, 64)) {
		t.Fatal("hit after Invalidate")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Bytes != 0 {
		t.Fatalf("bytes = %d after invalidating the only entry", st.Bytes)
	}
	c.Invalidate(999) // absent: no-op, no counter bump
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d after absent-id invalidate", st.Invalidations)
	}
}

func TestCapacityBoundAndEviction(t *testing.T) {
	c := New(16 << 10) // small: single shard of 16 KiB
	if len(c.shards) != 1 {
		t.Fatalf("shards = %d, want 1 for a 16KiB cache", len(c.shards))
	}
	// Each block is the miss of a read, and each group of 16 was read once more
	// than the group before it: every insert past the first 16 is read more
	// often than the victim it finds.
	for i := 0; i < 64; i++ {
		for r := 0; r <= i/16; r++ {
			c.Get(uint64(i), uint32(i+1), make([]byte, 1024))
		}
		c.Insert(uint64(i), uint32(i+1), block(1024, byte(i)))
	}
	st := c.Stats()
	if st.Bytes > st.Capacity {
		t.Fatalf("bytes %d exceeds capacity %d", st.Bytes, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions after inserting 64KiB into a 16KiB cache")
	}
	// The most recent inserts should still be resident.
	if !c.Get(63, 64, make([]byte, 1024)) {
		t.Fatal("most recent insert evicted")
	}
}

func TestClockSecondChance(t *testing.T) {
	c := New(4 << 10) // one shard, room for 4 x 1KiB
	for i := 0; i < 4; i++ {
		c.Insert(uint64(i), 1, block(1024, byte(i)))
	}
	// Reference block 0 so the hand skips it once.
	if !c.Get(0, 1, make([]byte, 1024)) {
		t.Fatal("warm entry missing")
	}
	// A read of block 4 misses and inserts it: read once, it is wanted more
	// than blocks 1-3, which nobody read. CLOCK should give block 0 its second
	// chance and evict the first unreferenced entry (block 1) instead.
	if c.Get(4, 1, make([]byte, 1024)) {
		t.Fatal("block 4 hit before its insert")
	}
	c.Insert(4, 1, block(1024, 4))
	if !c.Get(4, 1, make([]byte, 1024)) {
		t.Fatal("a miss read more often than the victim was not admitted")
	}
	if !c.Get(0, 1, make([]byte, 1024)) {
		t.Fatal("referenced entry was evicted despite its second chance")
	}
	if c.Get(1, 1, make([]byte, 1024)) {
		t.Fatal("unreferenced entry survived over a referenced one")
	}
}

func TestOversizedInsertIgnored(t *testing.T) {
	c := New(1 << 10)
	c.Insert(1, 1, block(64<<10, 9))
	if st := c.Stats(); st.Bytes != 0 {
		t.Fatalf("oversized insert landed: bytes = %d", st.Bytes)
	}
	c.Insert(2, 2, nil) // empty spans are not cacheable either
	if st := c.Stats(); st.Bytes != 0 {
		t.Fatalf("empty insert landed: bytes = %d", st.Bytes)
	}
}

func TestReplaceExistingBlock(t *testing.T) {
	c := New(1 << 20)
	c.Insert(5, 1, block(512, 1))
	c.Insert(5, 2, block(512, 2))
	dst := make([]byte, 512)
	if !c.Get(5, 2, dst) {
		t.Fatal("replacement missing")
	}
	if dst[0] != 2 {
		t.Fatal("replacement holds stale content")
	}
	if st := c.Stats(); st.Bytes != 512 {
		t.Fatalf("bytes = %d after in-place replace, want 512", st.Bytes)
	}
	// A probe with the superseded sum misses (and drops the entry as stale —
	// the probing reader's metadata is authoritative for what it expects).
	if c.Get(5, 1, dst) {
		t.Fatal("old version hit after replace")
	}
}

// A write never runs the CLOCK hand: Publish lands in free room, replaces the
// block's own entry, and otherwise leaves the block uncached and everything
// resident where it was.
func TestPublishNeverEvicts(t *testing.T) {
	c := New(4 << 10) // one shard, room for 4 x 1KiB
	dst := make([]byte, 1024)
	for i := 0; i < 3; i++ {
		c.Insert(uint64(i), 1, block(1024, byte(i)))
	}
	if !c.Publish(3, 1, block(1024, 3)) || !c.Get(3, 1, dst) || dst[0] != 3 {
		t.Fatal("publish into free room did not land")
	}
	// Full. A new block stays out…
	if c.Publish(4, 1, block(1024, 4)) || c.Get(4, 1, dst) {
		t.Fatal("publish into a full shard landed")
	}
	// …a resident block's new version takes its old version's place…
	if !c.Publish(2, 7, block(1024, 9)) || !c.Get(2, 7, dst) || dst[0] != 9 {
		t.Fatal("publish over the block's own entry did not land")
	}
	// …and one that cannot (it grew) leaves no entry under the block at all.
	if c.Publish(2, 8, block(2048, 8)) || c.Get(2, 7, dst) || c.Get(2, 8, make([]byte, 2048)) {
		t.Fatal("a publish that did not fit left an entry behind")
	}
	// The room an Invalidate leaves is room for a publish.
	c.Invalidate(0)
	if !c.Publish(5, 1, block(2048, 5)) {
		t.Fatal("publish did not use the room its displaced version left")
	}
	if st := c.Stats(); st.Evictions != 0 || st.Bytes != 4096 {
		t.Fatalf("evictions = %d, bytes = %d; want 0 and a full 4096", st.Evictions, st.Bytes)
	}
	if !c.Get(1, 1, dst) || !c.Get(3, 1, dst) {
		t.Fatal("a resident entry was lost to a write")
	}
}

// Get copies out, so a removed entry's buffer is free to carry the next one in
// any shard: replacing a block at the same length, evicting for a span of the
// same size, and publishing into the room an invalidate left in another shard
// allocate nothing.
func TestBuffersAreRecycled(t *testing.T) {
	c := New(1 << 20) // four shards, room for 1024 x 1KiB
	data := block(1024, 1)
	dst := make([]byte, 1024)
	c.Publish(1, 1, data)
	sum := uint32(1)
	if n := testing.AllocsPerRun(100, func() {
		sum++
		c.Publish(1, sum, data)
	}); n != 0 {
		t.Errorf("replace in place at equal length: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sum++
		c.Insert(1, sum, data)
	}); n != 0 {
		t.Errorf("insert over the block's own entry: %v allocs, want 0", n)
	}
	// Fill with blocks nobody has read: the miss of a read is read more often
	// than any of them, so every insert below evicts one.
	for b := uint64(2); c.Publish(b, 1, data); b++ {
	}
	next := uint64(1 << 20)
	if n := testing.AllocsPerRun(100, func() {
		c.Get(next, 1, dst)
		c.Insert(next, 1, data)
		next++
	}); n != 0 {
		t.Errorf("insert after evict at equal length: %v allocs, want 0", n)
	}
	st := c.Stats()
	if st.Evictions < 100 || st.Bytes != 1<<20 {
		t.Fatalf("evictions = %d, bytes = %d", st.Evictions, st.Bytes)
	}
	// x is resident and y is not, in another shard: each round moves the room
	// x held to y, then swaps them.
	x, y := next-1, next
	for c.shardFor(y) == c.shardFor(x) {
		y++
	}
	landed := 0
	if n := testing.AllocsPerRun(100, func() {
		c.Invalidate(x)
		if c.Publish(y, 1, data) {
			landed++
		}
		x, y = y, x
	}); n != 0 {
		t.Errorf("publish after a cross-shard invalidate: %v allocs, want 0", n)
	}
	if after := c.Stats(); landed != 101 || after.Evictions != st.Evictions || after.Bytes != 1<<20 {
		t.Fatalf("%d of 101 cross-shard publishes landed; %+v", landed, after)
	}
	// A recycled buffer must not leak its previous content or length.
	c.Invalidate(x)
	c.Publish(1<<40, 1, block(600, 0xEE))
	dst = make([]byte, 600)
	if !c.Get(1<<40, 1, dst) || !bytes.Equal(dst, block(600, 0xEE)) {
		t.Fatal("entry in a recycled buffer reads back wrong")
	}
	if c.Get(1<<40, 1, make([]byte, 1024)) {
		t.Fatal("recycled buffer kept its old length")
	}
}

// Room is one budget: the room an Invalidate leaves in one shard is room for a
// publish to any other, and the publish evicts nothing to take it.
func TestPublishTakesRoomAcrossShards(t *testing.T) {
	c := New(1 << 20) // four shards, room for 256 x 4KiB
	if len(c.shards) < 2 {
		t.Fatalf("shards = %d, want several", len(c.shards))
	}
	data := block(4096, 1)
	for b := uint64(0); b < 1024; b++ { // every shard full, whatever its share
		c.Insert(b, 1, data)
	}
	full := c.Stats()
	var x, y uint64 // x resident, y not, in different shards
	for dst := make([]byte, 4096); !c.Get(x, 1, dst); x++ {
	}
	for y = 1 << 20; c.shardFor(y) == c.shardFor(x); y++ {
	}
	if full.Bytes != 1<<20 || c.Publish(y, 1, data) {
		t.Fatalf("%+v: want a full cache that refuses a publish", full)
	}
	c.Invalidate(x)
	if !c.Publish(y, 1, data) {
		t.Fatal("the room an invalidate left in another shard was not taken")
	}
	if st := c.Stats(); st.Evictions != full.Evictions || st.Bytes != full.Bytes || !c.Get(y, 1, make([]byte, 4096)) {
		t.Fatalf("after the cross-shard publish: %+v, want no eviction and Bytes at %d", st, full.Bytes)
	}
}

// A miss into a full cache displaces a resident only if its block was read
// strictly more often: one-off misses leave the blocks readers come back to
// in place, and a block read again and again gets in.
func TestOneOffMissesDoNotDisplaceHotEntries(t *testing.T) {
	c := New(16 << 10) // one shard, room for 16 x 1KiB
	dst := make([]byte, 1024)
	read := func(b uint64) bool { // the store's read path: a miss inserts what it read
		if c.Get(b, 1, dst) {
			return true
		}
		c.Insert(b, 1, block(1024, byte(b)))
		return false
	}
	for b := uint64(0); b < 16; b++ {
		read(b)
		read(b)
	}
	for b := uint64(100); b < 164; b++ {
		if read(b) {
			t.Fatalf("one-off block %d hit", b)
		}
	}
	for b := uint64(0); b < 16; b++ {
		if !c.Get(b, 1, dst) {
			t.Fatalf("block %d, read twice, was displaced by one-off misses", b)
		}
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("one-off misses evicted %d entries", st.Evictions)
	}
	for n := 1; !read(999); n++ {
		if n == 8 {
			t.Fatal("a block read 8 times in a row was never admitted")
		}
	}
}

// Resize sets the one budget: shrinking evicts across the shards, one entry
// from each in turn, until the cache fits.
func TestResizeShrinksAcrossShards(t *testing.T) {
	c := New(1 << 20) // four shards, room for 256 x 4KiB
	for b := uint64(0); c.Publish(b, 1, block(4096, 1)); b++ {
	}
	c.Resize(256 << 10)
	if st := c.Stats(); st.Capacity != 256<<10 || st.Bytes != 256<<10 || st.Evictions != 192 {
		t.Fatalf("after shrinking to a quarter: %+v", st)
	}
	for s := range c.shards {
		if len(c.shards[s].index) == 0 {
			t.Fatalf("shard %d emptied: a shrink takes from every shard in turn", s)
		}
	}
	c.Resize(0)
	if st := c.Stats(); st.Bytes != 0 || st.Capacity != 1 {
		t.Fatalf("after Resize(0): %+v", st)
	}
}

func TestInsertCopiesData(t *testing.T) {
	c := New(1 << 20)
	src := block(128, 7)
	c.Insert(1, 1, src)
	src[0] = 99 // caller reuses its buffer
	dst := make([]byte, 128)
	if !c.Get(1, 1, dst) {
		t.Fatal("miss")
	}
	if dst[0] != 7 {
		t.Fatal("cache aliased the caller's buffer")
	}
}

func TestShardCountPowerOfTwo(t *testing.T) {
	for _, mb := range []uint64{1, 2, 8, 64, 256} {
		c := New(mb << 20)
		n := len(c.shards)
		if n&(n-1) != 0 || n < 1 || n > maxShards {
			t.Fatalf("%dMB cache: shards = %d, want power of two in [1,%d]", mb, n, maxShards)
		}
	}
	if got := len(New(64 << 20).shards); got != maxShards {
		t.Fatalf("64MB cache: shards = %d, want %d", got, maxShards)
	}
}

// Eight goroutines over a two-shard cache a third the size of what they touch,
// and one resizing it: every way in and out, moving room between shards and
// the spares between entries, keeps the budget and its count exact.
func TestConcurrentAccess(t *testing.T) {
	c := New(512 << 10)
	var wg sync.WaitGroup
	stop, resized := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(resized)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Resize((384 + 128*(i%2)) << 10)
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]byte, 8192)
			for i := 0; i < 2000; i++ {
				b := uint64((g*31 + i) % 192)
				switch i % 4 {
				case 0:
					c.Insert(b, uint32(b+1), block(8192, byte(b)))
				case 3:
					c.Publish(b, uint32(b+1), block(8192, byte(b)))
				case 1:
					if c.Get(b, uint32(b+1), dst) && dst[0] != byte(b) {
						panic(fmt.Sprintf("goroutine %d: wrong content for block %d", g, b))
					}
				case 2:
					c.Invalidate(b)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-resized // the walk below reads the rings without their locks
	c.Resize(512 << 10)
	st := c.Stats()
	if st.Bytes > st.Capacity {
		t.Fatalf("bytes %d exceeds capacity %d after concurrent churn", st.Bytes, st.Capacity)
	}
	var held uint64
	for s := range c.shards {
		for _, e := range c.shards[s].ring {
			held += uint64(len(e.data))
		}
	}
	if held != st.Bytes || st.Evictions == 0 {
		t.Fatalf("entries hold %d bytes; %+v", held, st)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := New(1 << 20)
	c.Insert(1, 1, block(100, 1))
	dst := make([]byte, 100)
	c.Get(1, 1, dst) // hit
	c.Get(2, 1, dst) // miss
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if st.Bytes != 100 {
		t.Fatalf("bytes = %d, want 100", st.Bytes)
	}
	if st.Capacity == 0 {
		t.Fatal("capacity not reported")
	}
}
