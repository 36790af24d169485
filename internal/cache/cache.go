// Package cache implements a sharded, fixed-capacity DRAM block cache for
// the store's hot read path. Entries are SSD block spans keyed by block id and
// tagged with the block's recorded CRC32C, so a hit can skip both the device
// read and the checksum re-verification; eviction is CLOCK second-chance
// within each shard.
//
// The cache is write-through. It has two ways in: Insert, from a read that
// missed and verified the span it read from the device, and Publish, from the
// write that just put the span on the device and computed the checksum the
// metadata will record — so a read after an update is a hit. The two differ in
// one rule: Insert makes room by running the CLOCK hand, Publish never does. A
// write takes room its block's shard has free — what the Invalidate of a
// displaced version left there, or what nobody has used yet — or stays out: a
// cache that holds the working set stays fully resident across updates, and
// under one that does not a burst of writes cannot push out what the readers
// are hitting.
//
// The cache holds volatile DRAM state only — it never persists anything and
// never must: coherence comes from the store invalidating every block id a
// mutation displaces, backed by the sum tag (a hit is served only when the
// caller's expected checksum and span length match the entry's, so an entry
// from a block's previous life can never satisfy a read of its current
// content).
package cache

import "sync"

// shardTargetBytes is the per-shard capacity the shard count aims for; the
// count is the largest power of two (capped at maxShards) keeping shards at
// least this big, so tiny caches don't fragment into useless slivers.
const (
	shardTargetBytes = 256 << 10
	maxShards        = 16
)

// Stats is a point-in-time snapshot of cache counters, aggregated across
// shards.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses uint64
	// Evictions counts entries removed by CLOCK to make room.
	Evictions uint64
	// Invalidations counts entries removed by explicit Invalidate calls (the
	// versions updates and deletes displaced).
	Invalidations uint64
	// Bytes is the current cached payload total; Capacity the configured
	// budget.
	Bytes, Capacity uint64
}

// Cache is a sharded block cache. All methods are safe for concurrent use;
// a nil *Cache is a valid always-miss cache (every method is a no-op).
type Cache struct {
	shards []shard
	mask   uint64
}

type entry struct {
	block uint64
	sum   uint32
	ref   bool
	data  []byte // nil marks a free ring slot
}

type shard struct {
	mu       sync.Mutex
	capacity uint64
	bytes    uint64
	index    map[uint64]int // block id -> ring slot
	ring     []entry        // CLOCK ring; grows up to the byte budget
	free     []int          // recycled ring slots
	hand     int
	// spare is the buffer of the entry removed last. Get copies out and no
	// caller ever holds an entry's data, so the next entry it fits takes it
	// over instead of allocating and zeroing its own: replacing a block's
	// entry, or evicting for one of the same size, allocates nothing. One per
	// shard, outside the byte budget.
	spare []byte

	hits, misses, evictions, invalidations uint64
}

// New creates a cache with the given total byte capacity, split evenly
// across a power-of-two number of shards. A zero capacity returns nil (the
// always-miss cache).
func New(capacity uint64) *Cache {
	if capacity == 0 {
		return nil
	}
	n := 1
	for n < maxShards && capacity/uint64(n*2) >= shardTargetBytes {
		n *= 2
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1)}
	per := capacity / uint64(n)
	if per == 0 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].index = make(map[uint64]int)
	}
	return c
}

// shardFor hashes a block id to its shard (Fibonacci hashing: block ids are
// sequential pool indices, so the multiplicative mix keeps neighbors apart).
func (c *Cache) shardFor(block uint64) *shard {
	const phi64 = 0x9e3779b97f4a7c15
	return &c.shards[(block*phi64>>32)&c.mask]
}

// Get copies the cached content of block into dst and reports a hit. The hit
// is served only when the entry's checksum tag equals sum AND the entry's
// span length equals len(dst) — both must match the caller's current
// metadata, so stale entries (a block reallocated and rewritten, or a span
// regrown by extend) can never satisfy the read. A tag mismatch drops the
// stale entry on the spot.
func (c *Cache) Get(block uint64, sum uint32, dst []byte) bool {
	if c == nil {
		return false
	}
	sh := c.shardFor(block)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.index[block]
	if ok {
		e := &sh.ring[i]
		if e.sum == sum && len(e.data) == len(dst) {
			copy(dst, e.data)
			e.ref = true
			sh.hits++
			return true
		}
		sh.drop(i) // stale: the block's content moved on under this entry
	}
	sh.misses++
	return false
}

// Insert caches a copy of data (one verified block span) under block, tagged
// with its recorded checksum — the read-miss way in. An existing entry for the
// block is replaced, and CLOCK evicts until the span fits; a span beyond a
// shard's whole budget is not cached.
func (c *Cache) Insert(block uint64, sum uint32, data []byte) {
	c.put(block, sum, data, true)
}

// Publish is the write-side way in: the caller has just written data to block
// and sum is the checksum its metadata records for it. An existing entry for
// the block is replaced, as in Insert, but nothing is evicted to make room: a
// span that does not fit what the shard has free is left out — Publish
// reports false and the block is uncached, for the next read miss to Insert.
func (c *Cache) Publish(block uint64, sum uint32, data []byte) bool {
	return c.put(block, sum, data, false)
}

func (c *Cache) put(block uint64, sum uint32, data []byte, evict bool) bool {
	if c == nil {
		return false
	}
	sh := c.shardFor(block)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.index[block]; ok {
		sh.drop(i)
	}
	n := uint64(len(data))
	if n == 0 || n > sh.capacity || (!evict && sh.bytes+n > sh.capacity) {
		return false
	}
	for sh.bytes+n > sh.capacity {
		sh.evictOne()
	}
	// Take over the spare buffer unless it is less than half used: bytes
	// counts lengths, and capacity nobody reads should not hide behind them.
	buf := sh.spare
	if cap(buf) >= len(data) && cap(buf) <= 2*len(data) {
		buf, sh.spare = buf[:len(data)], nil
	} else {
		buf = make([]byte, len(data))
	}
	copy(buf, data)
	i := len(sh.ring)
	if k := len(sh.free); k > 0 {
		i = sh.free[k-1]
		sh.free = sh.free[:k-1]
	} else {
		sh.ring = append(sh.ring, entry{})
	}
	sh.ring[i] = entry{block: block, sum: sum, data: buf}
	sh.index[block] = i
	sh.bytes += n
	return true
}

// evictOne runs the CLOCK hand until it reclaims one entry: referenced
// entries get their second chance (ref cleared, hand moves on), unreferenced
// ones are evicted. Caller holds sh.mu and guarantees at least one live
// entry (bytes > 0 whenever the caller's loop runs, since every live byte
// belongs to some ring entry).
func (sh *shard) evictOne() {
	for {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := &sh.ring[sh.hand]
		if e.data == nil {
			sh.hand++
			continue
		}
		if e.ref {
			e.ref = false
			sh.hand++
			continue
		}
		sh.drop(sh.hand)
		sh.evictions++
		sh.hand++
		return
	}
}

// drop removes ring slot i, keeping its buffer as the shard's spare. Caller
// holds sh.mu.
func (sh *shard) drop(i int) {
	e := &sh.ring[i]
	delete(sh.index, e.block)
	sh.bytes -= uint64(len(e.data))
	sh.spare = e.data
	sh.ring[i] = entry{}
	sh.free = append(sh.free, i)
}

// Invalidate removes block's entry, if cached. This is the coherence hook:
// every store mutation that changes a block's content or ownership calls it
// before the new version becomes readable.
func (c *Cache) Invalidate(block uint64) {
	if c == nil {
		return
	}
	sh := c.shardFor(block)
	sh.mu.Lock()
	if i, ok := sh.index[block]; ok {
		sh.drop(i)
		sh.invalidations++
	}
	sh.mu.Unlock()
}

// Reset drops every entry (counters survive). Open calls it after recovery
// replay: the cache is freshly constructed and therefore already empty, but
// the reset makes "recovery invalidates everything" explicit rather than
// incidental.
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	for s := range c.shards {
		sh := &c.shards[s]
		sh.mu.Lock()
		for i := range sh.ring {
			if sh.ring[i].data != nil {
				sh.drop(i)
				sh.invalidations++
			}
		}
		sh.mu.Unlock()
	}
}

// Resize changes the total byte capacity, split evenly across the existing
// shards (the shard count is fixed at New). Shrinking evicts immediately via
// CLOCK so the cache never holds more than the new budget; growing takes
// effect lazily as inserts arrive. A zero capacity clamps each shard to one
// byte (effectively empty) rather than tearing the cache down — callers that
// want no cache at all use a nil *Cache. The store's shard rebalance uses
// Resize after AddShard/RemoveShard so the aggregate DRAM budget tracks the
// live member count instead of the Format-time split.
func (c *Cache) Resize(capacity uint64) {
	if c == nil {
		return
	}
	per := capacity / uint64(len(c.shards))
	if per == 0 {
		per = 1
	}
	for s := range c.shards {
		sh := &c.shards[s]
		sh.mu.Lock()
		sh.capacity = per
		for sh.bytes > sh.capacity {
			sh.evictOne()
		}
		sh.mu.Unlock()
	}
}

// Stats aggregates counters across shards.
func (c *Cache) Stats() Stats {
	var st Stats
	if c == nil {
		return st
	}
	for s := range c.shards {
		sh := &c.shards[s]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Invalidations += sh.invalidations
		st.Bytes += sh.bytes
		st.Capacity += sh.capacity
		sh.mu.Unlock()
	}
	return st
}

// Shards returns the shard count (for tests and sizing introspection).
func (c *Cache) Shards() int {
	if c == nil {
		return 0
	}
	return len(c.shards)
}
