// Package cache implements a sharded DRAM block cache for the store's hot read
// path. Entries are SSD block spans keyed by block id and tagged with the
// block's recorded CRC32C, so a hit can skip both the device read and the
// checksum re-verification. Each shard has its own lock, index and CLOCK ring;
// room is one byte budget for the whole cache.
//
// The cache is write-through, with two ways in: Insert, from a read that
// missed and verified the span it read from the device, and Publish, from the
// write that just put the span on the device and computed its checksum, so a
// read after an update is a hit. Publish never displaces anything: it takes
// room the cache has free — what the Invalidate of the displaced version left,
// in whatever shard — or stays out. An Insert into a full cache displaces the
// CLOCK victim only if its block was read strictly more often, by a per-shard
// count-min sketch of recent reads (TinyLFU): a one-off miss never evicts a
// block readers keep coming back to.
//
// The cache holds volatile DRAM state only — it never persists anything and
// never must: coherence comes from the store invalidating every block id a
// mutation displaces, backed by the sum tag (a hit is served only when the
// caller's expected checksum and span length match the entry's, so an entry
// from a block's previous life can never satisfy a read of its current
// content).
package cache

import (
	"sync"
	"sync/atomic"
)

// shardTargetBytes is the share of the budget the shard count aims for; the
// count is the largest power of two (capped at maxShards) keeping shares at
// least this big, so a tiny cache is not split into locks nobody contends for.
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
	// Bytes is the cached payload total; Capacity the budget.
	Bytes, Capacity uint64
}

// Cache is a sharded block cache. All methods are safe for concurrent use;
// a nil *Cache is a valid always-miss cache (every method is a no-op).
type Cache struct {
	shards []shard
	mask   uint64
	_      [64]byte // keeps the line every call reads clear of what puts write
	// bytes is what all shards hold together. A put reserves its length in it
	// before linking its entry, so it passes capacity only while Resize shrinks.
	capacity, bytes atomic.Uint64
	// spares are the buffers of the last maxShards entries removed, in any
	// shard. Get copies out, so a new entry takes over one that fits: a
	// cross-shard publish allocates nothing. Outside the budget; sparesMu nests
	// in a shard's mu.
	sparesMu  sync.Mutex
	spares    [maxShards][]byte
	nextSpare int
}

type entry struct {
	block uint64
	sum   uint32
	ref   bool
	data  []byte // nil marks a free ring slot
}

type shard struct {
	mu    sync.Mutex
	index map[uint64]int // block id -> ring slot
	ring  []entry        // CLOCK ring; as long as the most entries it held
	free  []int          // recycled ring slots
	hand  int
	reads sketch

	hits, misses, evictions, invalidations uint64
}

// New creates a cache with the given total byte capacity over a power-of-two
// number of shards. A zero capacity returns nil (the always-miss cache).
func New(capacity uint64) *Cache {
	if capacity == 0 {
		return nil
	}
	n := 1
	for n < maxShards && capacity/uint64(n*2) >= shardTargetBytes {
		n *= 2
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1)}
	c.capacity.Store(capacity)
	for i := range c.shards {
		c.shards[i].index = make(map[uint64]int)
		c.shards[i].reads = sketch{counts: make([]uint8, 4*64), sample: 20}
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
// stale entry on the spot. Hit or miss, the read counts toward block's sketch.
func (c *Cache) Get(block uint64, sum uint32, dst []byte) bool {
	if c == nil {
		return false
	}
	sh := c.shardFor(block)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.reads.add(block)
	if i, ok := sh.index[block]; ok {
		e := &sh.ring[i]
		if e.sum == sum && len(e.data) == len(dst) {
			copy(dst, e.data)
			e.ref = true
			sh.hits++
			return true
		}
		c.drop(sh, i) // stale: the block's content moved on under this entry
	}
	sh.misses++
	return false
}

// Insert caches a copy of data (one verified block span) under block, tagged
// with its recorded checksum — the read-miss way in. An existing entry for the
// block is replaced; in a full cache each CLOCK victim goes only if block was
// read strictly more often, or the span stays out, as does one over budget.
func (c *Cache) Insert(block uint64, sum uint32, data []byte) {
	c.put(block, sum, data, true)
}

// Publish is the write-side way in: the caller has just written data to block
// and sum is the checksum its metadata records for it. An existing entry for
// the block is replaced, as in Insert, but nothing is evicted to make room: a
// span that does not fit what the cache has free is left out — Publish
// reports false and the block is uncached, for the next read miss to Insert.
func (c *Cache) Publish(block uint64, sum uint32, data []byte) bool {
	return c.put(block, sum, data, false)
}

func (c *Cache) put(block uint64, sum uint32, data []byte, admit bool) bool {
	if c == nil {
		return false
	}
	sh := c.shardFor(block)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.index[block]; ok {
		c.drop(sh, i)
	}
	n := uint64(len(data))
	if n == 0 || n > c.capacity.Load() {
		return false
	}
	for !c.reserve(n) {
		if !admit || len(sh.index) == 0 {
			return false
		}
		v := sh.victim()
		if sh.reads.estimate(block) <= sh.reads.estimate(sh.ring[v].block) {
			return false // ties reject: the resident is as wanted as the newcomer
		}
		c.evict(sh, v)
	}
	i := len(sh.ring)
	if k := len(sh.free); k > 0 {
		i = sh.free[k-1]
		sh.free = sh.free[:k-1]
	} else {
		sh.ring = append(sh.ring, entry{})
		sh.reads.fit(len(sh.ring))
	}
	sh.ring[i] = entry{block: block, sum: sum, data: c.buffer(data)}
	sh.index[block] = i
	return true
}

// reserve takes n bytes of the budget, or reports that they are not free.
func (c *Cache) reserve(n uint64) bool {
	for b := c.bytes.Load(); b+n <= c.capacity.Load(); b = c.bytes.Load() {
		if c.bytes.CompareAndSwap(b, b+n) {
			return true
		}
	}
	return false
}

// victim runs the CLOCK hand to the first unreferenced entry, clearing the ref
// of each one it passes (its second chance), and returns its slot; a refused
// miss leaves the hand, and the victim, for the next. Caller holds sh.mu.
func (sh *shard) victim() int {
	for ; ; sh.hand = (sh.hand + 1) % len(sh.ring) {
		e := &sh.ring[sh.hand]
		if e.data != nil && !e.ref {
			return sh.hand
		}
		e.ref = false
	}
}

// evict removes the victim in slot i and moves the hand past it.
func (c *Cache) evict(sh *shard, i int) {
	c.drop(sh, i)
	sh.evictions++
	sh.hand = (i + 1) % len(sh.ring)
}

// drop removes ring slot i, keeping its buffer as a spare. Caller holds sh.mu.
func (c *Cache) drop(sh *shard, i int) {
	e := &sh.ring[i]
	delete(sh.index, e.block)
	c.bytes.Add(-uint64(len(e.data)))
	c.sparesMu.Lock()
	c.spares[c.nextSpare%len(c.spares)] = e.data
	c.nextSpare++
	c.sparesMu.Unlock()
	sh.ring[i] = entry{}
	sh.free = append(sh.free, i)
}

// buffer returns a copy of data in a spare that fits it — unless the spare
// would be less than half used: bytes counts lengths, and capacity nobody
// reads should not hide behind them — or in a new slice.
func (c *Cache) buffer(data []byte) []byte {
	var buf []byte
	c.sparesMu.Lock()
	for i, b := range c.spares {
		if cap(b) >= len(data) && cap(b) <= 2*len(data) {
			buf, c.spares[i] = b[:0], nil
			break
		}
	}
	c.sparesMu.Unlock()
	return append(buf, data...)
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
		c.drop(sh, i)
		sh.invalidations++
	}
	sh.mu.Unlock()
}

// Holds reports whether block has an entry, whatever its tag.
func (c *Cache) Holds(block uint64) bool {
	if c == nil {
		return false
	}
	sh := c.shardFor(block)
	sh.mu.Lock()
	_, ok := sh.index[block]
	sh.mu.Unlock()
	return ok
}

// Resize changes the byte budget. Shrinking evicts at once, by CLOCK, one entry
// per shard in turn until the cache fits; growing takes effect as entries
// arrive. Zero clamps to one byte (effectively empty; no cache is a nil *Cache).
// The store's shard rebalance resizes after AddShard/RemoveShard so the DRAM
// budget tracks the live member count instead of the Format-time split.
func (c *Cache) Resize(capacity uint64) {
	if c == nil {
		return
	}
	c.capacity.Store(max(capacity, 1))
	for s := 0; c.bytes.Load() > c.capacity.Load(); s++ {
		sh := &c.shards[s%len(c.shards)]
		sh.mu.Lock()
		if len(sh.index) > 0 {
			c.evict(sh, sh.victim())
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
		sh.mu.Unlock()
	}
	st.Bytes, st.Capacity = c.bytes.Load(), c.capacity.Load()
	return st
}

// sketch estimates how often each block was read lately (TinyLFU): a
// count-min sketch whose four rows are interleaved in 64-byte blocks, so a
// block id's four counters share one cache line. Counters saturate at 15;
// each row has four per shard entry, and after twenty reads per entry every
// counter is halved, so old popularity fades.
type sketch struct {
	counts        []uint8 // a power-of-two count of 64-byte blocks
	reads, sample int
}

// fit sizes the sketch for a shard of the given entry count. Doubling appends
// a copy of every block, so each new block starts as the one it split from and
// no estimate drops.
func (f *sketch) fit(entries int) {
	f.sample = 20 * entries
	for len(f.counts) < 16*entries {
		f.counts = append(f.counts, f.counts...)
	}
}

// counters returns block's four counters: a mix of the block id (splitmix64's
// finalizer) picks a 64-byte block by its low bits and, by four more bits
// each, one counter in each 16-byte quarter of it.
func (f *sketch) counters(block uint64) [4]*uint8 {
	h := (block ^ block>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	line := f.counts[64*(h&uint64(len(f.counts)/64-1)):][:64]
	var ps [4]*uint8
	for r := range ps {
		ps[r] = &line[16*r+int(h>>(32+4*r)&15)]
	}
	return ps
}

// add counts a read of block, raising only the counters at its estimate
// (conservative update), and halves them all once a sample is complete.
func (f *sketch) add(block uint64) {
	ps := f.counters(block)
	n := least(ps)
	for _, p := range ps {
		if *p == n && n < 15 {
			*p++
		}
	}
	if f.reads++; f.reads >= f.sample {
		for i := range f.counts {
			f.counts[i] >>= 1
		}
		f.reads /= 2
	}
}

func (f *sketch) estimate(block uint64) uint8 { return least(f.counters(block)) }

func least(ps [4]*uint8) uint8 { return min(*ps[0], *ps[1], *ps[2], *ps[3]) }
