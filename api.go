package dstore

import "dstore/internal/server"

// This file declares the store surface. *Store is the per-shard engine and
// *Sharded the ring of engines; both implement API, a *Store as a ring of
// one. Everything above the engine — the network backend (net.go), the
// benchmark adapter (kv.go), transactions and batched operations, the cmd
// binaries — is written once against API and Context and serves either
// shape.

// Context is the per-goroutine request surface (paper Table 2: ds_init /
// ds_finalize and the operations between them). *Ctx implements it for a
// single store; *ShardedCtx implements it over N stores with identical
// semantics (same sentinel errors, same ordered-Scan contract).
//
// A context owns what it takes — its olocks and open objects — and those
// operations (Open handles, Lock/Unlock, Finalize) belong to one goroutine.
// Put, Get, Delete, Scan and Begin keep nothing in it and are safe to share:
// routed, they run on each store's one shared, stateless context.
type Context interface {
	// Put stores value under key (oput).
	Put(key string, value []byte) error
	// Get retrieves key's value, appending to buf (oget).
	Get(key string, buf []byte) ([]byte, error)
	// Delete removes key's object (odelete).
	Delete(key string) error
	// Open opens (or creates) an object and returns a stateful handle whose
	// ReadAt/WriteAt implement the filesystem-style API (oopen).
	Open(name string, size uint64, flags OpenFlag) (*Object, error)
	// Scan calls fn for every object whose name starts with prefix, in
	// ascending name order, until fn returns false.
	Scan(prefix string, fn func(info ObjectInfo) bool) error
	// Lock takes an exclusive application-level lock on name (olock).
	Lock(name string) error
	// Unlock releases a lock taken with Lock (ounlock).
	Unlock(name string) error
	// Begin starts a multi-key optimistic transaction (DESIGN.md §12).
	Begin() (Txn, error)
	// Finalize releases the context and any locks it still holds.
	Finalize()
}

// Txn is a multi-key optimistic transaction: reads record per-key commit
// versions, writes buffer in DRAM, and Commit validates the read set and
// applies the write set atomically — durable through a single commit record
// per shard, so a crash at any point leaves all of the transaction's writes
// or none. Commit returns ErrTxnConflict (and applies nothing) when a
// concurrent commit invalidated a read; callers retry the whole transaction.
// A Txn is owned by a single goroutine and is finished by the first Commit
// or Abort; it does not see writes committed after its reads (first-read
// versions win), and its own buffered writes shadow the store
// (read-your-writes).
type Txn interface {
	// Get reads key, observing the transaction's buffered writes first.
	Get(key string, buf []byte) ([]byte, error)
	// Put buffers a write; nothing is visible or durable until Commit.
	Put(key string, value []byte) error
	// Delete buffers a deletion (of an absent key: a no-op at commit).
	Delete(key string) error
	// Commit validates and atomically applies the buffered writes.
	Commit() error
	// Abort discards the transaction.
	Abort() error
}

// API is the store-level surface shared by *Store and *Sharded: context
// creation, checkpointing, integrity checking, lifecycle, and observability.
// On a *Sharded, the mutating and checking entry points fan out to every
// shard in parallel and the observability snapshots aggregate across shards.
type API interface {
	// NewContext creates a request context (Table 2: ds_init).
	NewContext() Context
	// CheckpointNow runs one synchronous checkpoint (on every shard).
	CheckpointNow() error
	// Check verifies the cross-structure invariants (fsck).
	Check() error
	// Scrub verifies live data blocks against their checksums, optionally
	// migrating intact blocks off quarantined media.
	Scrub(repair bool) (ScrubReport, error)
	// Stats snapshots operation and engine counters.
	Stats() Stats
	// CacheStats snapshots the DRAM block-cache counters (all-zero when the
	// cache is disabled; aggregated across shards on a *Sharded).
	CacheStats() CacheStats
	// Breakdown snapshots the write-path timing breakdown.
	Breakdown() Breakdown
	// Footprint measures storage consumption per tier.
	Footprint() Footprint
	// Health reports the fault and integrity status.
	Health() Health
	// Count returns the number of live objects.
	Count() uint64
	// Degraded reports whether the store (any shard) is read-only degraded.
	Degraded() bool
	// Close performs a clean shutdown with a final checkpoint.
	Close() error
	// CloseNoCheckpoint stops the store without the final checkpoint.
	CloseNoCheckpoint() error
	// MPut stores values[i] under keys[i] as independent sub-operations,
	// each its own WAL record, one pipeline pass per owning shard (DESIGN.md
	// §14), and returns one verdict per sub-op. epoch is the ring epoch the
	// caller routed under: a batch routed under another fails with
	// ErrNotMine; 0 skips the check.
	MPut(epoch uint64, keys []string, values [][]byte) []error
	// MGet reads keys, fanned out one sub-op at a time; vals[i] is valid iff
	// errs[i] is nil.
	MGet(epoch uint64, keys []string) (vals [][]byte, errs []error)
	// MDelete removes keys the way MPut stores them.
	MDelete(epoch uint64, keys []string) []error
	// NetBackend exposes the store as a wire-protocol server backend.
	NetBackend() server.Backend
	// NewNetServer returns a wire-protocol TCP server over the store.
	NewNetServer(opt ServeOptions) *server.Server
}

// members returns the engines behind api, in shard order: a bare store is
// its own single member. The adapters above the API (the network backend,
// KV) use it for what only an engine can answer — per-shard rows, devices.
func members(api API) []*Store {
	switch a := api.(type) {
	case *Store:
		return []*Store{a}
	case *Sharded:
		ms := make([]*Store, a.Shards())
		for i := range ms {
			ms[i] = a.store(i)
		}
		return ms
	}
	return nil
}

// NewContext implements API; it is Init under the interface's name (Init
// keeps its concrete *Ctx return for existing callers).
func (s *Store) NewContext() Context { return s.Init() }

var (
	_ API     = (*Store)(nil)
	_ Context = (*Ctx)(nil)
)
