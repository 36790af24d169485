package dstore

import (
	"errors"
	"time"

	"dstore/internal/server"
	"dstore/internal/wire"
)

// This file is the store-side half of the network service layer: a
// server.Backend adapter over Store plus a convenience constructor for a
// wire-protocol TCP server. The adapter lives here (not in internal/server)
// so the server package depends only on internal/wire and stays reusable
// over any backend; the import direction is wire ← server ← dstore ← cmd.

// ServeOptions configures NewNetServer. The zero value uses the server
// package defaults (256 connections, 64-request pipeline window, 1 MiB
// frames).
type ServeOptions struct {
	// MaxConns caps concurrent client connections.
	MaxConns int
	// Window caps pipelined in-flight requests per connection; when full
	// the server stops reading that connection (TCP backpressure).
	Window int
	// MaxScan caps objects returned per SCAN request.
	MaxScan int
	// MaxFrame caps request payload bytes.
	MaxFrame int
	// IdleTimeout drops connections with no inbound frames for this long.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write.
	WriteTimeout time.Duration
}

// newNetServer builds a wire-protocol TCP server over any API.
func newNetServer(api API, opt ServeOptions) *server.Server {
	return server.New(netBackendFor(api), server.Config{
		MaxConns:     opt.MaxConns,
		Window:       opt.Window,
		MaxScan:      opt.MaxScan,
		MaxFrame:     opt.MaxFrame,
		IdleTimeout:  opt.IdleTimeout,
		WriteTimeout: opt.WriteTimeout,
	})
}

// NewNetServer returns a wire-protocol TCP server over the store. Start it
// with Serve on a listener; Shutdown drains in-flight requests and then
// checkpoints the store, so a following Close (or process exit) is cheap
// and the reopened store replays nothing.
func (s *Store) NewNetServer(opt ServeOptions) *server.Server { return newNetServer(s, opt) }

// NewNetServer returns a wire-protocol TCP server over the sharded store.
// STATS and HEALTH replies carry per-shard rows after the aggregates;
// everything else is indistinguishable from a single-store server on the
// wire (keys route to shards behind the opcode).
func (sh *Sharded) NewNetServer(opt ServeOptions) *server.Server { return newNetServer(sh, opt) }

// NetBackend exposes the store as a server.Backend. Methods are safe for
// concurrent use; each call runs under its own request context.
func (s *Store) NetBackend() server.Backend { return netBackendFor(s) }

// NetBackend exposes the sharded store as a server.Backend.
func (sh *Sharded) NetBackend() server.Backend { return netBackendFor(sh) }

// replView is the optional replication surface an API may provide; *Store
// (and *ReplicatedShard) do, *Sharded does not (each shard has its own WAL
// and replicates independently).
type replView interface {
	ExportCommitted(from uint64, max int) ([]wire.Record, error)
	LastLSN() uint64
	AppliedLSN() uint64
	IsStandby() bool
	Promote() error
}

// netBackendFor adapts any API to the wire server, attaching the
// replication surface (server.Replicator + server.Promoter) when the API
// supports it, and the ring surface (server.Ringer) when the API reshards —
// *Sharded does, *Store does not; it feeds the server's OpRing opcode and
// the stale-epoch fence.
func netBackendFor(api API) server.Backend {
	b := &netBackend{api: api}
	if r, ok := api.(replView); ok {
		return &replNetBackend{netBackend: b, replView: r}
	}
	if rg, ok := api.(server.Ringer); ok {
		return &ringNetBackend{netBackend: b, Ringer: rg}
	}
	return b
}

// ringNetBackend overlays the ring surface on netBackend, so the server's
// Ringer type assertion succeeds exactly when the underlying API reshards.
// (*Sharded never implements replView — each shard replicates independently
// — so the ring and replication overlays never need to compose.)
type ringNetBackend struct {
	*netBackend
	server.Ringer
}

// replNetBackend overlays the replication surface on netBackend, so the
// server's Replicator/Promoter type assertions succeed exactly when the
// underlying API replicates.
type replNetBackend struct {
	*netBackend
	replView
}

// Stats attaches the standby-role replication section; the primary-role
// section is the server's to attach (it owns the subscriber bookkeeping).
func (b *replNetBackend) Stats() wire.StatsReply {
	st := b.netBackend.Stats()
	if b.IsStandby() {
		st.Repl = &wire.ReplReply{
			Role:     wire.ReplRoleStandby,
			LastLSN:  b.LastLSN(),
			AckedLSN: b.AppliedLSN(),
		}
	}
	return st
}

type netBackend struct {
	api API
}

func (b *netBackend) Put(key string, value []byte) error {
	c := b.api.NewContext()
	defer c.Finalize()
	return c.Put(key, value)
}

func (b *netBackend) Get(key string) ([]byte, error) {
	c := b.api.NewContext()
	defer c.Finalize()
	return c.Get(key, nil)
}

func (b *netBackend) Delete(key string) error {
	c := b.api.NewContext()
	defer c.Finalize()
	return c.Delete(key)
}

// MPut implements server.BatchBackend: one fan-out call per frame, so the
// store can feed all sub-ops to WAL group commit instead of the server
// looping per key.
func (b *netBackend) MPut(epoch uint64, keys []string, values [][]byte) []error {
	return b.api.MPut(epoch, keys, values)
}

// MGet implements server.BatchBackend.
func (b *netBackend) MGet(epoch uint64, keys []string) ([][]byte, []error) {
	return b.api.MGet(epoch, keys)
}

// MDelete implements server.BatchBackend.
func (b *netBackend) MDelete(epoch uint64, keys []string) []error {
	return b.api.MDelete(epoch, keys)
}

// BeginTxn exposes transactions to the wire server. The session pins its own
// context for the transaction's lifetime; the server serializes calls on it.
func (b *netBackend) BeginTxn() (server.Txn, error) {
	c := b.api.NewContext()
	txn, err := c.Begin()
	if err != nil {
		c.Finalize()
		return nil, err
	}
	return &netTxn{c: c, txn: txn}, nil
}

// netTxn adapts a store transaction to the server's session surface.
type netTxn struct {
	c   Context
	txn Txn
}

func (t *netTxn) Get(key string) ([]byte, error) { return t.txn.Get(key, nil) }
func (t *netTxn) Put(key string, v []byte) error { return t.txn.Put(key, v) }
func (t *netTxn) Delete(key string) error        { return t.txn.Delete(key) }

func (t *netTxn) Commit() error {
	err := t.txn.Commit()
	t.c.Finalize()
	return err
}

func (t *netTxn) Abort() error {
	err := t.txn.Abort()
	t.c.Finalize()
	return err
}

func (b *netBackend) Scan(prefix string, limit int) ([]wire.Object, error) {
	c := b.api.NewContext()
	defer c.Finalize()
	out := []wire.Object{}
	err := c.Scan(prefix, func(info ObjectInfo) bool {
		out = append(out, wire.Object{
			Name:   info.Name,
			Size:   info.Size,
			Blocks: uint32(info.Blocks),
		})
		return len(out) < limit
	})
	return out, err
}

// statRow flattens one store-level snapshot into the wire row (the aggregate
// and each per-shard row are the same type).
func statRow(st Stats, fp Footprint, objects uint64) wire.ShardStat {
	return wire.ShardStat{
		Puts:            st.Puts,
		Gets:            st.Gets,
		Deletes:         st.Deletes,
		Reads:           st.Reads,
		Writes:          st.Writes,
		Opens:           st.Opens,
		Objects:         objects,
		Checkpoints:     st.Engine.Checkpoints,
		RecordsReplayed: st.Engine.RecordsReplayed,
		DRAMBytes:       fp.DRAMBytes,
		PMEMBytes:       fp.PMEMBytes,
		SSDBytes:        fp.SSDBytes,
	}
}

// cacheRow flattens one cache snapshot into the wire row.
func cacheRow(cs CacheStats) wire.CacheStat {
	return wire.CacheStat{
		Hits:      cs.Hits,
		Misses:    cs.Misses,
		Evictions: cs.Evictions,
		Bytes:     cs.Bytes,
		Capacity:  cs.Capacity,
	}
}

// healthRow flattens one health snapshot into the wire row.
func healthRow(h Health) wire.ShardHealth {
	return wire.ShardHealth{
		Degraded:          h.Degraded,
		Reason:            h.Reason,
		IORetries:         h.IORetries,
		WriteErrors:       h.WriteErrors,
		Corruptions:       h.Corruptions,
		Remaps:            h.Remaps,
		QuarantinedBlocks: h.QuarantinedBlocks,
	}
}

// shardRows returns the engines that get per-shard rows after the
// aggregates: none for a single member, whose row would repeat the
// aggregate (and whose frames stay in the pre-sharding layout).
func (b *netBackend) shardRows() []*Store {
	if ms := members(b.api); len(ms) > 1 {
		return ms
	}
	return nil
}

func (b *netBackend) Stats() wire.StatsReply {
	st := b.api.Stats()
	shards := b.shardRows()
	reply := wire.StatsReply{ShardStat: statRow(st, b.api.Footprint(), b.api.Count())}
	for _, s := range shards {
		// Per-shard rows count user-visible keys (userCount), matching the
		// aggregate: ring metadata and txn bookkeeping are invisible.
		reply.Shards = append(reply.Shards, statRow(s.Stats(), s.Footprint(), s.userCount()))
	}
	// Each optional section is attached only when its feature is in use —
	// a cache configured, a transaction seen, a group-commit batch formed —
	// so deployments without the feature emit the frames they always did.
	if cs := b.api.CacheStats(); cs.Capacity > 0 {
		reply.Cache = &wire.CacheReply{CacheStat: cacheRow(cs)}
		for _, s := range shards {
			reply.Cache.Shards = append(reply.Cache.Shards, cacheRow(s.CacheStats()))
		}
	}
	if st.TxnCommits+st.TxnAborts+st.TxnConflicts > 0 {
		reply.Txn = &wire.TxnReply{
			Commits:   st.TxnCommits,
			Aborts:    st.TxnAborts,
			Conflicts: st.TxnConflicts,
		}
	}
	if st.Engine.GCBatches > 0 {
		reply.Batch = &wire.BatchReply{
			Batches: st.Engine.GCBatches,
			Records: st.Engine.GCRecords,
			Parked:  st.Engine.GCParked,
		}
	}
	return reply
}

func (b *netBackend) Health() wire.HealthReply {
	reply := wire.HealthReply{ShardHealth: healthRow(b.api.Health())}
	for _, s := range b.shardRows() {
		reply.Shards = append(reply.Shards, healthRow(s.Health()))
	}
	return reply
}

func (b *netBackend) Checkpoint() error { return b.api.CheckpointNow() }

// ErrorStatus maps store errors onto wire statuses so remote clients can
// reconstruct the matching sentinels (degraded mode in particular must be
// distinguishable from a plain failure: reads keep working, writes do not).
func (b *netBackend) ErrorStatus(err error) (wire.Status, string) {
	switch {
	case errors.Is(err, ErrNotFound):
		return wire.StatusNotFound, ""
	case errors.Is(err, ErrCorrupt):
		return wire.StatusCorrupt, err.Error()
	case errors.Is(err, ErrDegraded):
		return wire.StatusDegraded, err.Error()
	case errors.Is(err, ErrStandby):
		// A standby is read-only for clients exactly like a degraded
		// primary; the message tells the two apart.
		return wire.StatusDegraded, err.Error()
	case errors.Is(err, ErrTxnConflict):
		return wire.StatusTxnConflict, err.Error()
	case errors.Is(err, ErrNotMine):
		return wire.StatusNotMine, err.Error()
	case errors.Is(err, ErrReplGap):
		return wire.StatusReplGap, err.Error()
	case errors.Is(err, ErrClosed):
		return wire.StatusClosed, ""
	default:
		return wire.StatusInternal, err.Error()
	}
}
