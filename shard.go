package dstore

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

	"dstore/internal/ring"
)

// This file implements the sharded store: N fully independent DStore
// instances — each with its own PMEM and SSD devices, WAL pair, DIPPER
// engine, and fault domain — behind the same API as a single *Store.
//
// Partitioning follows the multi-instance scaling path the paper implies:
// OE locking (§4.4) cuts contention within an instance, but every write
// still serializes on that instance's single log tail and index lock, so
// the next lever is hash-partitioning keys across instances whose
// flush/fence pipelines never interact (cf. "Persistent Memory I/O
// Primitives": cross-partition persistence stalls are what private
// pipelines avoid). Each shard checkpoints, degrades, recovers, and is
// fsck'd independently; a shard whose persistence path fails turns
// read-only and surfaces ErrDegraded for its keys only, while every other
// shard keeps accepting writes.
//
// Key placement is a versioned consistent-hash ring (internal/ring),
// persisted crash-atomically in a reserved object on shard 0 and recovered
// by OpenSharded. FormatSharded persists a mod-N placement at epoch 0;
// AddShard and RemoveShard mutate membership on a live store via the
// migration engine in reshard.go.

// ringObjName is the reserved object holding the serialized routing ring on
// shard 0. The '\x00' prefix keeps it invisible to Scan and distinct from
// every valid user name.
const ringObjName = "\x00ring\x00"

// Sharded is a hash-partitioned store over N independent *Store instances.
// It implements API; all methods are safe for concurrent use.
type Sharded struct {
	// shardsP and cfgsP hold the shard slices behind atomic pointers:
	// AddShard publishes grown copies while readers keep iterating their
	// snapshots. Slices are append-only — a shard, once published at index
	// i, stays at index i for the life of the process (RemoveShard drains a
	// shard but never compacts the slice, so shard IDs are stable).
	shardsP atomic.Pointer[[]*Store]
	cfgsP   atomic.Pointer[[]Config]

	// repl, when non-nil, pairs every shard with an in-process hot standby
	// (FormatShardedReplicated): a shard whose persistence path fails no
	// longer turns read-only — it fails over to its standby and stays
	// writable.
	repl []*ReplicatedShard

	// mops fans batched sub-ops across persistent workers (batch.go);
	// lazily started, retired on Close.
	mops mopPool

	// ringP is the authoritative routing ring. migrP, when non-nil, is the
	// in-flight membership change (reshard.go). opMu orders every routed
	// operation against migration installs and the epoch flip: routed ops
	// hold it shared for route+apply, the flip takes it exclusively so no
	// operation straddles the epoch boundary.
	ringP     atomic.Pointer[ring.Ring]
	migrP     atomic.Pointer[migration]
	opMu      sync.RWMutex
	reshardMu sync.Mutex // serializes AddShard/RemoveShard

	// reshardHook, when non-nil, is called at migration phase boundaries
	// ("pre-copy", "copy" per key, "pre-flip", "post-flip"). A non-nil
	// return abandons the migration exactly where it stands — the crashpoint
	// tests use it to freeze each phase and then power-fail the store.
	reshardHook func(phase, key string) error

	// txnSeq issues cross-shard transaction ids (txnshard.go). The high bit
	// keeps them disjoint from the per-store ids that one-participant commits
	// draw from their store.
	txnSeq atomic.Uint64
}

// ringOfOne returns s seen as a one-member ring at epoch 0: every key routes
// to s, nothing migrates, nothing fails over. It is a routing view only — s
// keeps its own lifecycle, and the view is never closed or persisted.
func ringOfOne(s *Store) *Sharded {
	sh := &Sharded{}
	sh.setShards([]*Store{s}, nil)
	sh.ringP.Store(ring.NewModN(1))
	return sh
}

// stores returns the current shard slice snapshot. The slice is immutable;
// AddShard publishes a new one.
func (sh *Sharded) stores() []*Store { return *sh.shardsP.Load() }

// configs returns the current per-shard config slice snapshot.
func (sh *Sharded) configs() []Config { return *sh.cfgsP.Load() }

// store returns the store currently serving shard i (the promoted standby
// after a failover).
func (sh *Sharded) store(i int) *Store {
	if sh.repl != nil {
		return sh.repl[i].Active()
	}
	return sh.stores()[i]
}

// ringNow returns the current routing ring.
func (sh *Sharded) ringNow() *ring.Ring { return sh.ringP.Load() }

// owner returns the shard index owning key under the current ring.
func (sh *Sharded) owner(key string) int { return int(sh.ringNow().Owner(key)) }

// RingEpoch returns the current routing epoch. Epoch 0 is the initial
// placement; every AddShard/RemoveShard flip advances it.
func (sh *Sharded) RingEpoch() uint64 { return sh.ringNow().Epoch() }

// RingData returns the serialized routing ring (internal/ring encoding) —
// the payload served to clients through the ring-fetch opcode.
func (sh *Sharded) RingData() []byte { return sh.ringNow().Encode() }

// persistRing writes r crash-atomically to the reserved ring object on
// shard 0 through the normal WAL'd put pipeline: the write is durable when
// putReserved returns, and a crash before it leaves the previous ring.
func (sh *Sharded) persistRing(r *ring.Ring) error {
	data := r.Encode()
	err := sh.store(0).putReserved(ringObjName, data)
	if err != nil && sh.failover(0, err) {
		err = sh.store(0).putReserved(ringObjName, data)
	}
	return err
}

// loadRing reads the persisted ring from shard 0. Every sharded store has
// one — FormatSharded writes it — so a missing ring object is corruption.
func (sh *Sharded) loadRing() (*ring.Ring, error) {
	val, _, err := sh.store(0).getVersioned(ringObjName, nil)
	if errors.Is(err, ErrNotFound) {
		return nil, fmt.Errorf("dstore: %w: no ring object on shard 0", ErrCorrupt)
	}
	if err != nil {
		return nil, fmt.Errorf("dstore: read ring object: %w", err)
	}
	r, derr := ring.Decode(val)
	if derr != nil {
		return nil, fmt.Errorf("dstore: %w: ring object: %v", ErrCorrupt, derr)
	}
	return r, nil
}

// failover reacts to err from an operation on shard i: when the shard is
// replicated and the error is the degraded sentinel, it promotes the
// standby (idempotent; concurrent callers serialize) and reports that the
// operation should be retried on the new active store.
func (sh *Sharded) failover(i int, err error) bool {
	if sh.repl == nil || !errors.Is(err, ErrDegraded) {
		return false
	}
	return sh.repl[i].Failover() == nil
}

// shardConfig derives one shard's configuration from the aggregate cfg:
// block and object capacity are divided across n shards with 25% headroom
// for hash imbalance, while the log pair and checkpoint policy stay
// per-shard (each partition owns a full private persistence pipeline —
// that independence is the point of sharding).
func shardConfig(cfg Config, n int) Config {
	if n <= 1 {
		return cfg
	}
	userArena := cfg.ArenaBytes
	cfg.setDefaults() // resolve the aggregate geometry before dividing
	div := func(v uint64) uint64 {
		per := v/uint64(n) + v/uint64(4*n) + 64
		per = min(per, v)
		return per
	}
	cfg.Blocks = div(cfg.Blocks)
	cfg.MaxObjects = div(cfg.MaxObjects)
	// The cache is a DRAM budget, not a capacity to headroom: divide it
	// exactly so N shards never consume more memory than the caller asked
	// for.
	cfg.CacheBytes /= uint64(n)
	// Arena sizing is geometry-derived unless the caller pinned it.
	cfg.ArenaBytes = userArena
	return cfg
}

// setShards publishes new shard/config slices (constructor or AddShard).
func (sh *Sharded) setShards(stores []*Store, cfgs []Config) {
	sh.shardsP.Store(&stores)
	sh.cfgsP.Store(&cfgs)
}

// FormatSharded creates a fresh sharded store: shards independent instances
// formatted in parallel, each on its own devices. cfg describes the
// aggregate geometry (see shardConfig); cfg.PMEM and cfg.SSD must be nil —
// injected devices cannot be split across shards. With shards == 1 the
// result is a thin wrapper over one instance with identical behavior.
func FormatSharded(shards int, cfg Config) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("dstore: FormatSharded needs >= 1 shard, got %d", shards)
	}
	if cfg.PMEM != nil || cfg.SSD != nil {
		return nil, fmt.Errorf("dstore: FormatSharded cannot split injected devices; use OpenSharded with per-shard configs")
	}
	sh := &Sharded{}
	stores := make([]*Store, shards)
	cfgs := make([]Config, shards)
	per := shardConfig(cfg, shards)
	for i := range cfgs {
		cfgs[i] = per
	}
	sh.setShards(stores, cfgs)
	if err := sh.forEachShard(func(i int, _ *Store) error {
		s, err := Format(cfgs[i])
		if err != nil {
			return fmt.Errorf("dstore: format shard %d: %w", i, err)
		}
		stores[i] = s
		return nil
	}); err != nil {
		sh.closeOpened()
		return nil, err
	}
	// Persist the initial mod-N placement at epoch 0; the first
	// AddShard/RemoveShard converts to consistent hashing.
	r := ring.NewModN(shards)
	sh.ringP.Store(r)
	if err := sh.persistRing(r); err != nil {
		sh.closeOpened()
		return nil, fmt.Errorf("dstore: persist ring: %w", err)
	}
	return sh, nil
}

// FormatShardedReplicated creates a fresh sharded store in which every
// shard is a primary/standby ReplicatedShard pair: N primaries plus N
// in-process standbys, each standby tailing its primary's committed WAL.
// The aggregate geometry doubles in memory and device footprint; the API
// and key placement are identical to FormatSharded. A shard whose
// persistence path fails is failed over transparently on the next write.
func FormatShardedReplicated(shards int, cfg Config) (*Sharded, error) {
	sh, err := FormatSharded(shards, cfg)
	if err != nil {
		return nil, err
	}
	stores := sh.stores()
	cfgs := sh.configs()
	standbys := make([]*Store, shards)
	if err := sh.forEachShard(func(i int, _ *Store) error {
		sb, err := Format(cfgs[i])
		if err != nil {
			return fmt.Errorf("dstore: format standby %d: %w", i, err)
		}
		standbys[i] = sb
		return nil
	}); err != nil {
		for _, sb := range standbys {
			if sb != nil {
				sb.CloseNoCheckpoint() //nolint:errcheck // best-effort teardown after a failed constructor
			}
		}
		sh.closeOpened()
		return nil, err
	}
	sh.repl = make([]*ReplicatedShard, shards)
	for i := range sh.repl {
		sh.repl[i] = NewReplicatedShard(stores[i], standbys[i])
	}
	return sh, nil
}

// OpenSharded recovers a sharded store from per-shard configs (each must
// carry its shard's PMEM and SSD devices, in shard order). Recovery runs in
// parallel: every shard rebuilds its metadata and replays its own log
// concurrently, so wall-clock recovery is the slowest shard, not the sum.
// After per-shard recovery it resolves in-doubt cross-shard transactions,
// recovers the authoritative routing ring from shard 0, and deletes migration
// residue — copies of keys on shards the recovered ring does not route to
// them — so a crash at any point of a live reshard leaves exactly one
// authoritative replica of every key.
func OpenSharded(cfgs []Config) (*Sharded, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("dstore: OpenSharded needs >= 1 shard config")
	}
	sh := &Sharded{}
	stores := make([]*Store, len(cfgs))
	sh.setShards(stores, append([]Config(nil), cfgs...))
	if err := sh.forEachShard(func(i int, _ *Store) error {
		s, err := Open(sh.configs()[i])
		if err != nil {
			return fmt.Errorf("dstore: open shard %d: %w", i, err)
		}
		stores[i] = s
		return nil
	}); err != nil {
		sh.closeOpened()
		return nil, err
	}
	// Resolve cross-shard transactions that were mid-commit at the crash
	// before serving: roll forward prepared writes whose coordinator decided,
	// abort the rest (txnshard.go).
	if err := sh.resolveTxns(); err != nil {
		sh.closeOpened()
		return nil, fmt.Errorf("dstore: transaction resolution: %w", err)
	}
	r, err := sh.loadRing()
	if err != nil {
		sh.closeOpened()
		return nil, err
	}
	if r.MaxID() >= len(cfgs) {
		sh.closeOpened()
		return nil, fmt.Errorf("dstore: %w: ring routes to shard %d but only %d shards configured",
			ErrCorrupt, r.MaxID(), len(cfgs))
	}
	sh.ringP.Store(r)
	if err := sh.cleanupResidue(); err != nil {
		sh.closeOpened()
		return nil, fmt.Errorf("dstore: migration residue cleanup: %w", err)
	}
	return sh, nil
}

// closeOpened tears down the shards a failed parallel constructor managed
// to open.
func (sh *Sharded) closeOpened() {
	for _, s := range sh.stores() {
		if s != nil {
			s.CloseNoCheckpoint() //nolint:errcheck // best-effort teardown after a failed constructor
		}
	}
}

// forEachShard runs f on every shard's active store concurrently and
// returns the error of the lowest-indexed shard that failed.
func (sh *Sharded) forEachShard(f func(i int, s *Store) error) error {
	n := len(sh.stores())
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i, sh.store(i))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Shards returns the shard count, drained members included (a shard removed
// from the ring keeps its slot so shard IDs stay stable).
func (sh *Sharded) Shards() int { return len(sh.stores()) }

// Shard returns shard i's active store (for per-shard inspection, fault
// injection, and crash preparation in tests and tooling). For a replicated
// shard this is the promoted standby after a failover.
func (sh *Sharded) Shard(i int) *Store { return sh.store(i) }

// Replica returns shard i's replication pair, or nil when the store was not
// created with FormatShardedReplicated.
func (sh *Sharded) Replica(i int) *ReplicatedShard {
	if sh.repl == nil {
		return nil
	}
	return sh.repl[i]
}

// ShardFor returns the index of the shard that owns key under the current
// routing ring.
func (sh *Sharded) ShardFor(key string) int { return sh.owner(key) }

// ShardConfigs returns a copy of the per-shard configs (after Crash they
// carry the surviving devices, ready for OpenSharded).
func (sh *Sharded) ShardConfigs() []Config { return append([]Config(nil), sh.configs()...) }

// ShardKeyCounts returns the number of user-visible keys currently resident
// on each shard (reserved bookkeeping excluded). During a migration the sum
// can transiently exceed Count — moving keys exist on donor and recipient
// until the post-flip cleanup.
func (sh *Sharded) ShardKeyCounts() []uint64 {
	n := sh.Shards()
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = sh.store(i).userCount()
	}
	return out
}

// Init creates a request context spanning every shard. Like *Ctx, the
// stateful surface (Open handles, Lock/Unlock, Finalize) is owned by a
// single goroutine; Put/Get/Delete/Scan are safe to share.
func (sh *Sharded) Init() *ShardedCtx { return &ShardedCtx{sh: sh, own: map[*Store]*Ctx{}} }

// NewContext implements API.
func (sh *Sharded) NewContext() Context { return sh.Init() }

// CheckpointNow checkpoints every shard in parallel. Checkpoints stay
// quiescent-free per shard: each frontend keeps accepting operations while
// its own engine replays onto shadow copies, and no shard ever waits for
// another's flush/fence pipeline.
func (sh *Sharded) CheckpointNow() error {
	return sh.forEachShard(func(_ int, s *Store) error { return s.CheckpointNow() })
}

// Check runs the cross-structure fsck on every shard in parallel. Shards
// share no structures, so per-shard invariants are the whole story.
func (sh *Sharded) Check() error {
	return sh.forEachShard(func(i int, s *Store) error {
		if err := s.Check(); err != nil {
			return fmt.Errorf("dstore: shard %d: %w", i, err)
		}
		return nil
	})
}

// Scrub scrubs every shard in parallel and merges the reports in shard
// order. Block ids in the findings are shard-local; object names identify
// the owner uniquely.
func (sh *Sharded) Scrub(repair bool) (ScrubReport, error) {
	reps := make([]ScrubReport, len(sh.stores()))
	err := sh.forEachShard(func(i int, s *Store) error {
		var serr error
		reps[i], serr = s.Scrub(repair)
		return serr
	})
	var out ScrubReport
	for _, r := range reps {
		out.BlocksChecked += r.BlocksChecked
		out.Unverified += r.Unverified
		out.Corrupt = append(out.Corrupt, r.Corrupt...)
		out.Repaired = append(out.Repaired, r.Repaired...)
	}
	return out, err
}

// Close cleanly shuts down every shard in parallel (final checkpoints
// included; replicated shards stop their feeds and close both stores).
func (sh *Sharded) Close() error {
	sh.mops.stop()
	if sh.repl != nil {
		return sh.forEachShard(func(i int, _ *Store) error { return sh.repl[i].Close() })
	}
	return sh.forEachShard(func(_ int, s *Store) error { return s.Close() })
}

// CloseNoCheckpoint stops every shard without final checkpoints; reopening
// replays each shard's active log.
func (sh *Sharded) CloseNoCheckpoint() error {
	sh.mops.stop()
	if sh.repl != nil {
		return sh.forEachShard(func(i int, _ *Store) error { return sh.repl[i].CloseNoCheckpoint() })
	}
	return sh.forEachShard(func(_ int, s *Store) error { return s.CloseNoCheckpoint() })
}

// Crash simulates a power failure across every shard (volatile state
// dropped, devices resolved per their crash models, seeds varied per shard)
// and returns per-shard configs carrying the surviving devices for
// OpenSharded. Requires Config.TrackPersistence.
func (sh *Sharded) Crash(seed int64) ([]Config, error) {
	sh.mops.stop()
	var firstErr error
	stores := sh.stores()
	cfgs := append([]Config(nil), sh.configs()...)
	for i, s := range stores {
		pm, data, err := s.Crash(seed + int64(i))
		cfgs[i].PMEM, cfgs[i].SSD = pm, data
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dstore: crash shard %d: %w", i, err)
		}
	}
	sh.cfgsP.Store(&cfgs)
	return sh.ShardConfigs(), firstErr
}

// Stats, CacheStats, Breakdown and Footprint sum every shard's counters;
// Shard(i) gives one shard's.
func (sh *Sharded) Stats() Stats           { return sumShards(sh, (*Store).Stats) }
func (sh *Sharded) CacheStats() CacheStats { return sumShards(sh, (*Store).CacheStats) }
func (sh *Sharded) Breakdown() Breakdown   { return sumShards(sh, (*Store).Breakdown) }
func (sh *Sharded) Footprint() Footprint   { return sumShards(sh, (*Store).Footprint) }

// sumShards adds up per's snapshot of every shard: each uint64 field, nested
// structs' included, is the shards' sum, and each slice their concatenation
// in shard order. Other fields keep their zero value.
func sumShards[T any](sh *Sharded, per func(*Store) T) (out T) {
	var add func(dst, src reflect.Value)
	add = func(dst, src reflect.Value) {
		for i := range dst.NumField() {
			switch f := dst.Field(i); f.Kind() {
			case reflect.Uint64:
				f.SetUint(f.Uint() + src.Field(i).Uint())
			case reflect.Struct:
				add(f, src.Field(i))
			case reflect.Slice:
				f.Set(reflect.AppendSlice(f, src.Field(i)))
			}
		}
	}
	for i := range sh.stores() {
		add(reflect.ValueOf(&out).Elem(), reflect.ValueOf(per(sh.store(i))))
	}
	return out
}

// Health aggregates fault status across shards: counters summed, the
// quarantine lists concatenated in shard order (block ids are shard-local;
// use Shard(i).Health() for an unambiguous per-shard view), and Degraded when
// any shard is degraded (DegradedShard is the first such shard's index and
// Reason names it). Replicated shards report their active store: a
// failed-over shard is healthy here — the degradation was absorbed by the
// failover.
func (sh *Sharded) Health() Health {
	out := sumShards(sh, (*Store).Health)
	out.Degraded, out.Reason, out.DegradedShard = false, "", -1
	for i := range sh.stores() {
		if h := sh.store(i).Health(); h.Degraded {
			out.Degraded, out.DegradedShard, out.Reason = true, i, fmt.Sprintf("shard %d: %s", i, h.Reason)
			break
		}
	}
	return out
}

// Count sums live user-visible objects across shards. Reserved bookkeeping
// (the ring object, transaction prepares) is excluded; keys mid-migration
// can be double-counted transiently until the post-flip cleanup.
func (sh *Sharded) Count() uint64 {
	var n uint64
	for i := range sh.stores() {
		n += sh.store(i).userCount()
	}
	return n
}

// Degraded reports whether any shard is in read-only degraded mode. Writes
// to the other shards' keys keep succeeding — check per key via the error
// returned by Put/Delete, or per shard via Shard(i).Health(). A replicated
// shard that failed over is not degraded: its active store is the healthy
// promoted standby.
func (sh *Sharded) Degraded() bool {
	for i := range sh.stores() {
		if sh.store(i).Degraded() {
			return true
		}
	}
	return false
}

var _ API = (*Sharded)(nil)

// --------------------------------------------------------------- contexts

// ShardedCtx is a request context over a sharded store: single-key
// operations route through the ring to the owning shard's store; Scan
// k-way-merges the shards' ordered streams. Routing caches nothing, so a
// failover or a ring flip rebinds nothing. own holds the per-store contexts
// that took this context's locks or opened its handles; an operation on
// any other store runs on that store's shared context.
type ShardedCtx struct {
	sh  *Sharded
	own map[*Store]*Ctx
}

// ctx returns the context an operation on shard i's current store runs on:
// this context's own there (made if take, for Lock and Open), else shared.
func (c *ShardedCtx) ctx(i int, take bool) *Ctx {
	s := c.sh.store(i)
	cx := c.own[s]
	switch {
	case cx != nil:
	case take:
		cx = s.Init()
		c.own[s] = cx
	default:
		cx = s.shared
	}
	return cx
}

// Put stores value under key on its shard.
func (c *ShardedCtx) Put(key string, value []byte) error { return c.write(key, value, false) }

// Delete removes key's object from its shard.
func (c *ShardedCtx) Delete(key string) error { return c.write(key, nil, true) }

// write is the routed single-key mutation, a put or (del) a delete, under
// opMu shared so the epoch cannot flip mid-op.
func (c *ShardedCtx) write(key string, value []byte, del bool) error {
	if c.sh == nil {
		return ErrClosed
	}
	c.sh.opMu.RLock() //nolint:lock-order // held shared across the routed apply so the epoch cannot flip mid-op; the flip is the only writer
	defer c.sh.opMu.RUnlock()
	keys, values, js, errs := [1]string{key}, [1][]byte{value}, [1]int{0}, [1]error{}
	vs := values[:]
	if del {
		vs = nil
	}
	c.routed(c.sh.owner(key), keys[:], vs, js[:], errs[:])
	return errs[0]
}

// routed is the one routing policy of a sharded write: keys[j] for each j in
// js — puts of values, or deletes when values is nil — go to shard i, their
// owner, as one pipeline pass; the caller holds opMu shared. Moving keys
// (§13) are double-applied under their migration stripes, taken first in the
// global order: donor (authoritative until the flip), then recipient. Keys
// that find a replicated shard degraded trigger failover and are written once
// more on the promoted standby.
func (c *ShardedCtx) routed(i int, keys []string, values [][]byte, js []int, errs []error) {
	m := c.sh.migrP.Load()
	if m != nil {
		var movers []string
		for _, j := range js {
			if _, moving := m.dest(keys[j], i); moving {
				movers = append(movers, keys[j])
			}
		}
		for _, st := range m.stripesFor(movers) {
			st.Lock() //nolint:lock-order // stripe order is global (sorted by index); always after opMu
			defer st.Unlock()
		}
	}
	c.ctx(i, false).writeBatch(keys, values, js, errs)
	var again []int
	for _, j := range js {
		if errors.Is(errs[j], ErrDegraded) {
			again = append(again, j)
		}
	}
	if len(again) > 0 && c.sh.failover(i, errs[again[0]]) {
		c.ctx(i, false).writeBatch(keys, values, again, errs)
	}
	for _, j := range js {
		if to, moving := m.dest(keys[j], i); moving && errs[j] == nil {
			c.sh.mirror(m, to, keys[j], valueAt(values, j), values == nil)
		}
	}
}

// Get retrieves key's value from its shard, appending to buf. The donor
// stays authoritative for moving keys until the epoch flip, so reads never
// consult the recipient mid-migration.
func (c *ShardedCtx) Get(key string, buf []byte) ([]byte, error) {
	if c.sh == nil {
		return nil, ErrClosed
	}
	c.sh.opMu.RLock() //nolint:lock-order // see write
	defer c.sh.opMu.RUnlock()
	return c.ctx(c.sh.owner(key), false).Get(key, buf)
}

// Open opens (or creates) an object on its shard; the returned handle's
// ReadAt/WriteAt run entirely within that shard. Creation fails over like
// Put; an already-open handle does not (its WriteAt surfaces ErrDegraded —
// reopen to land on the promoted standby). A handle opened during a live
// migration is noted: the flip re-copies such objects under the barrier so
// writes through the handle are not lost. Handles opened before AddShard
// was called write the donor after the flip — reopen after a reshard, the
// same contract as after a failover.
func (c *ShardedCtx) Open(name string, size uint64, flags OpenFlag) (*Object, error) {
	if c.sh == nil {
		return nil, ErrClosed
	}
	sh := c.sh
	sh.opMu.RLock() //nolint:lock-order // see write
	defer sh.opMu.RUnlock()
	i := sh.owner(name)
	m := sh.migrP.Load()
	if _, moving := m.dest(name, i); moving {
		m.noteOpened(name)
	}
	obj, err := c.ctx(i, true).Open(name, size, flags)
	if err != nil && sh.failover(i, err) {
		obj, err = c.ctx(i, true).Open(name, size, flags)
	}
	return obj, err
}

// Lock takes an exclusive application-level lock on name (held on name's
// shard; locks on different shards are independent, like the shards).
func (c *ShardedCtx) Lock(name string) error {
	if c.sh == nil {
		return ErrClosed
	}
	c.sh.opMu.RLock() //nolint:lock-order // see write
	defer c.sh.opMu.RUnlock()
	return c.ctx(c.sh.owner(name), true).Lock(name)
}

// Unlock releases a lock through the context and store that took it. After
// a reshard moved the name, that is the donor, and Unlock returns nil. After
// the shard failed over, it is the retired primary, and Unlock returns
// ErrDegraded; the lock is released all the same. A name this context does
// not hold fails as on *Ctx.
func (c *ShardedCtx) Unlock(name string) error {
	if c.sh == nil {
		return ErrClosed
	}
	for _, cx := range c.own {
		if _, held := cx.locks[name]; held {
			return cx.Unlock(name)
		}
	}
	return c.ctx(c.sh.owner(name), false).Unlock(name)
}

// Finalize releases the contexts this one owns, and with them every lock it
// still holds.
func (c *ShardedCtx) Finalize() {
	for _, cx := range c.own {
		cx.Finalize()
	}
	c.sh, c.own = nil, nil
}

var _ Context = (*ShardedCtx)(nil)

// ------------------------------------------------------------- merge scan

// Scan calls fn for every object whose name starts with prefix, in
// ascending name order across all shards, until fn returns false or the
// namespace is exhausted — the single-store contract, preserved by merging
// the shards' cursors (scan). The ring captured at entry filters each shard
// to the keys it owns, so migration residue (a moving key resident on donor
// and recipient) never yields duplicates. Scan does not hold opMu: it has
// snapshot-free iterator semantics, and an epoch flip mid-scan reads like
// any other concurrent mutation. Reserved names never show, as on one store.
func (c *ShardedCtx) Scan(prefix string, fn func(info ObjectInfo) bool) error {
	if c.sh == nil {
		return ErrClosed
	}
	rg := c.sh.ringNow()
	return scan(members(c.sh), prefix, func(i int, name string) bool { return !strings.HasPrefix(name, "\x00") && int(rg.Owner(name)) == i }, fn)
}
