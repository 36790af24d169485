package dstore

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"dstore/internal/ring"
	"dstore/internal/wal"
)

// This file implements live resharding (DESIGN.md §13): AddShard and
// RemoveShard change ring membership on an open, serving store by streaming
// the moving keys donor→recipient while writes continue, then flipping the
// ring epoch atomically. The protocol:
//
//  1. Persist the current ring (idempotent; the baseline a crash before the
//     flip recovers).
//  2. Build next = ring ± member (epoch+1) and install a migration record.
//     Installation takes opMu exclusively, so every routed operation from
//     here on sees the migration and double-applies writes to moving keys:
//     donor first (authoritative until the flip), then recipient, under a
//     per-key stripe lock so the copier and concurrent writers serialize
//     per key.
//  3. Copy: scan each donor and, for every key whose owner changes under
//     next, read the donor's value and put it on the recipient under the
//     key's stripe. A concurrent delete wins either way: before the copy it
//     makes the donor read miss; after it, the delete double-applied to the
//     recipient.
//  4. Flip: under opMu exclusive — re-copy objects opened during the
//     migration (their handle writes bypass double-apply), persist next
//     crash-atomically (the commit point), publish it, clear the migration.
//  5. Cleanup: delete the moved keys from their donors and re-divide the
//     cache budget across the live members. Pure garbage collection — the
//     ring already routes every moved key to its recipient, and scans
//     filter residue by ownership.
//
// A crash anywhere before the flip's persistRing leaves the old ring on
// disk: OpenSharded recovers donor-authoritative routing and deletes the
// recipient's partial copies (cleanupResidue). A crash after it recovers
// the new ring and deletes the donors' leftovers. No key is ever lost or
// served twice.

// migrationStripes is the per-key lock stripe count ordering donor and
// recipient applies for moving keys. 64 stripes keeps contention near zero
// at the benchmark's concurrency while adding one word of state per stripe.
const migrationStripes = 64

// migration is the in-flight membership change, published on
// Sharded.migrP while the copy phase runs.
type migration struct {
	cur  *ring.Ring
	next *ring.Ring

	stripes [migrationStripes]sync.Mutex

	mu     sync.Mutex
	opened map[string]struct{} // moving keys opened via Open mid-migration
	failed error               // first mirror failure; aborts at the flip
}

// dest reports whether key (owned by from under the current ring) moves,
// and to which member; nothing moves without a migration.
func (m *migration) dest(key string, from int) (to int, moving bool) {
	if m == nil {
		return 0, false
	}
	t := int(m.next.Owner(key))
	return t, t != from
}

// stripe returns the lock ordering applies for key.
func (m *migration) stripe(key string) *sync.Mutex {
	return &m.stripes[stripeIndex(key)]
}

func stripeIndex(key string) int { return int(wal.NameHash(key) % migrationStripes) }

// stripesFor returns the deduplicated stripe set for keys, ordered by
// index — the global stripe acquisition order that keeps multi-stripe
// holders (transactions) deadlock-free against each other and the copier.
func (m *migration) stripesFor(keys []string) []*sync.Mutex {
	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i] = stripeIndex(k)
	}
	slices.Sort(idx)
	idx = slices.Compact(idx)
	out := make([]*sync.Mutex, len(idx))
	for i, j := range idx {
		out[i] = &m.stripes[j]
	}
	return out
}

// mirror double-applies a put or (del) a delete to the moving key's
// recipient, on its shared context. Caller holds the key's stripe and has
// applied the donor write successfully. A delete tolerates absence (the
// copier may not have reached the key yet). A mirror failure is recorded, not
// surfaced: the donor (still authoritative) accepted the write, and the
// recorded failure aborts the migration before the flip could make the stale
// recipient authoritative.
func (sh *Sharded) mirror(m *migration, to int, key string, value []byte, del bool) {
	var err error
	if rc := sh.store(to).shared; del {
		if err = rc.Delete(key); errors.Is(err, ErrNotFound) {
			err = nil
		}
	} else {
		err = rc.Put(key, value)
	}
	if err != nil {
		m.fail(fmt.Errorf("mirror write of %q to shard %d: %w", key, to, err))
	}
}

func (m *migration) fail(err error) {
	m.mu.Lock()
	if m.failed == nil {
		m.failed = err
	}
	m.mu.Unlock()
}

func (m *migration) failedErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed
}

// noteOpened records a moving key opened through a handle mid-migration;
// the flip re-copies these under the barrier since handle writes bypass
// the double-apply path.
func (m *migration) noteOpened(key string) {
	m.mu.Lock()
	if m.opened == nil {
		m.opened = make(map[string]struct{})
	}
	m.opened[key] = struct{}{}
	m.mu.Unlock()
}

// hook invokes the test crashpoint hook; a non-nil error freezes the
// migration exactly where it stands (no teardown — simulating the process
// dying at that instant).
func (sh *Sharded) hook(phase, key string) error {
	if sh.reshardHook == nil {
		return nil
	}
	return sh.reshardHook(phase, key)
}

// errReshard tags membership-change failures.
func errReshard(op string, err error) error {
	return fmt.Errorf("dstore: %s: %w", op, err)
}

// AddShard grows a live store by one shard: it formats a fresh instance
// from the template geometry of shard 0 (fresh in-memory devices, like
// FormatSharded), migrates the keys the new ring assigns to it while the
// store keeps serving, and flips the routing epoch. Returns the new
// shard's index. The first AddShard on a mod-N store converts placement to
// consistent hashing, so it rebalances most of the namespace; subsequent
// membership changes move only ~1/n of the keys. Unsupported on replicated
// stores (the standby pairing of a dynamically added shard is future
// work).
func (sh *Sharded) AddShard() (int, error) {
	sh.reshardMu.Lock()
	defer sh.reshardMu.Unlock()
	if sh.repl != nil {
		return 0, errReshard("AddShard", errors.New("replicated stores cannot reshard"))
	}
	cfgs := sh.configs()
	tmpl := cfgs[0]
	tmpl.PMEM, tmpl.SSD = nil, nil
	s, err := Format(tmpl)
	if err != nil {
		return 0, errReshard("AddShard", err)
	}
	newIdx := len(cfgs)
	// Publish the grown slices before the migration so Stats/Scan/Crash see
	// the shard; the ring does not route to it until the flip.
	stores := append(append([]*Store(nil), sh.stores()...), s)
	ncfgs := append(append([]Config(nil), cfgs...), tmpl)
	sh.setShards(stores, ncfgs)

	cur := sh.ringNow()
	next, err := cur.WithAdd(uint32(newIdx), 1)
	if err != nil {
		return 0, errReshard("AddShard", err)
	}
	if err := sh.migrate(cur, next); err != nil {
		// The formatted shard stays in the slice as an empty drained member
		// (concurrent snapshots may still reference it); Close tears it
		// down with the rest.
		return 0, errReshard("AddShard", err)
	}
	return newIdx, nil
}

// RemoveShard drains shard id out of the ring: its keys migrate to the
// surviving members, the epoch flips, and the shard remains open but empty
// (its slot is never reused — shard IDs are stable for the life of the
// store, and OpenSharded still expects its config at the same position).
// Unsupported on replicated stores.
func (sh *Sharded) RemoveShard(id int) error {
	sh.reshardMu.Lock()
	defer sh.reshardMu.Unlock()
	if sh.repl != nil {
		return errReshard("RemoveShard", errors.New("replicated stores cannot reshard"))
	}
	cur := sh.ringNow()
	if id < 0 || id >= sh.Shards() || !cur.Contains(uint32(id)) {
		return errReshard("RemoveShard", fmt.Errorf("shard %d is not a ring member", id))
	}
	next, err := cur.WithRemove(uint32(id))
	if err != nil {
		return errReshard("RemoveShard", err)
	}
	return sh.migrate(cur, next)
}

// migrate runs the copy/flip/cleanup protocol taking the routing from cur
// to next. Caller holds reshardMu.
func (sh *Sharded) migrate(cur, next *ring.Ring) error {
	// Durable baseline: a crash from here on recovers cur.
	if err := sh.persistRing(cur); err != nil {
		return fmt.Errorf("persist baseline ring: %w", err)
	}
	if err := sh.hook("pre-copy", ""); err != nil {
		return err
	}

	m := &migration{cur: cur, next: next}
	// Exclusive install: after this barrier no routed op can be mid-flight
	// without having seen the migration.
	sh.opMu.Lock()
	sh.migrP.Store(m)
	sh.opMu.Unlock()
	abort := func() {
		sh.opMu.Lock()
		sh.migrP.Store(nil)
		sh.opMu.Unlock()
		// Drop the partial copies; the current ring never routes to them.
		sh.cleanupResidue() //nolint:errcheck // best-effort; OpenSharded repeats it
	}

	// Copy phase: walk each donor's index and copy every key the next ring
	// moves off it, per key under the stripe. The scan holds no index lock
	// while the callback runs, so the copy's device IO stalls no donor writer.
	for _, mem := range cur.Members() {
		d := int(mem.ID)
		var herr, cerr error
		err := sh.store(d).shared.Scan("", func(info ObjectInfo) bool {
			if int(next.Owner(info.Name)) == d {
				return true
			}
			if herr = sh.hook("copy", info.Name); herr != nil {
				return false
			}
			if cerr = sh.copyKey(m, d, info.Name); cerr != nil {
				cerr = fmt.Errorf("copy %q: %w", info.Name, cerr)
			}
			return cerr == nil
		})
		if herr != nil {
			return herr
		}
		if err = cmp.Or(err, cerr); err != nil {
			abort()
			return fmt.Errorf("donor %d: %w", d, err)
		}
	}

	if err := sh.hook("pre-flip", ""); err != nil {
		return err
	}
	if err := m.failedErr(); err != nil {
		abort()
		return fmt.Errorf("mirror failure during copy: %w", err)
	}

	// Flip: the epoch changes for everyone at one barrier, and the on-disk
	// commit point is the single crash-atomic ring write.
	sh.opMu.Lock()
	m.mu.Lock()
	opened := slices.Collect(maps.Keys(m.opened))
	m.mu.Unlock()
	slices.Sort(opened)
	for _, name := range opened {
		if cerr := sh.copyKey(m, int(cur.Owner(name)), name); cerr != nil {
			sh.migrP.Store(nil)
			sh.opMu.Unlock()
			sh.cleanupResidue() //nolint:errcheck // best-effort; OpenSharded repeats it
			return fmt.Errorf("re-copy opened %q: %w", name, cerr)
		}
	}
	if err := sh.persistRing(next); err != nil {
		sh.migrP.Store(nil)
		sh.opMu.Unlock()
		sh.cleanupResidue() //nolint:errcheck // best-effort; OpenSharded repeats it
		return fmt.Errorf("persist ring flip: %w", err)
	}
	sh.ringP.Store(next)
	sh.migrP.Store(nil)
	sh.opMu.Unlock()

	if err := sh.hook("post-flip", ""); err != nil {
		return err
	}
	// Post-flip housekeeping. Failures here leave only garbage (donor
	// residue / a stale cache split), which the next open cleans up.
	if err := sh.cleanupResidue(); err != nil {
		return fmt.Errorf("post-flip cleanup: %w", err)
	}
	sh.rebalanceCache()
	return nil
}

// copyKey copies one key's current donor value to its recipient under the
// key's stripe. Holding the stripe excludes concurrent double-appliers, so
// donor read → recipient write is atomic with respect to writes of the same
// key; a key deleted before the copy reads NotFound and is skipped (the
// deleter's mirror already removed any earlier copy).
func (sh *Sharded) copyKey(m *migration, donor int, name string) error {
	to := m.next.Owner(name)
	if int(to) == donor {
		return nil
	}
	st := m.stripe(name)
	st.Lock()
	defer st.Unlock()
	val, _, err := sh.store(donor).getVersioned(name, nil)
	if errors.Is(err, ErrNotFound) {
		// Deleted (or never created) — make sure the recipient agrees.
		derr := sh.store(int(to)).shared.Delete(name)
		if derr != nil && !errors.Is(derr, ErrNotFound) {
			return derr
		}
		return nil
	}
	if err != nil {
		return err
	}
	return sh.store(int(to)).shared.Put(name, val)
}

// cleanupResidue deletes every user key resident on a shard the current
// ring does not route it to. It runs at OpenSharded (covering crashes at
// any migration point: pre-flip it removes the recipient's partial copies,
// post-flip the donors' leftovers) and after a completed or aborted
// migration. Every shard is scanned — including mod-N member shards, which
// normally hold only their own keys but can carry partial copies from an
// aborted RemoveShard whose baseline was the mod-N ring. The scan reads the
// index and each key's zone entry, no data blocks, so the cost is one zone
// read and one hash per resident key; its callback deletes residue as it goes.
func (sh *Sharded) cleanupResidue() error {
	r := sh.ringNow()
	for i, s := range members(sh) {
		ctx := s.shared
		var derr error
		err := ctx.Scan("", func(info ObjectInfo) bool {
			if int(r.Owner(info.Name)) == i {
				return true
			}
			if e := ctx.Delete(info.Name); e != nil && !errors.Is(e, ErrNotFound) {
				derr = fmt.Errorf("delete residue %q: %w", info.Name, e)
			}
			return derr == nil
		})
		if err = cmp.Or(err, derr); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// rebalanceCache re-divides the original aggregate cache budget across the
// ring's live members, so a grown store doesn't keep the Format-time split
// (which would leave the new shard with zero cache) and a drained shard
// stops hoarding DRAM. The aggregate budget is the sum of the per-shard
// configs — the caller's original CacheBytes, however the store was built.
func (sh *Sharded) rebalanceCache() {
	cfgs := sh.configs()
	var total uint64
	for i := range cfgs {
		total += cfgs[i].CacheBytes
	}
	if total == 0 {
		return
	}
	r := sh.ringNow()
	members := r.Members()
	per := total / uint64(len(members))
	live := make(map[int]bool, len(members))
	for _, mem := range members {
		live[int(mem.ID)] = true
	}
	ncfgs := append([]Config(nil), cfgs...)
	for i := range ncfgs {
		if live[i] {
			ncfgs[i].CacheBytes = per
			sh.store(i).bcache.Resize(per) // a nil cache ignores it
		} else {
			ncfgs[i].CacheBytes = 0
			sh.store(i).bcache.Resize(0)
		}
	}
	sh.cfgsP.Store(&ncfgs)
}
