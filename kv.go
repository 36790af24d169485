package dstore

import (
	"errors"
	"fmt"

	"dstore/internal/kvapi"
)

// KV adapts any API — a bare Store or a Sharded ring — to the
// benchmark-facing kvapi.Store interface, so the experiment harness drives
// DStore at every shard count, and the comparison systems, identically.
type KV struct {
	api API
	ctx Context
	// cfgs holds one config per member (members), in shard order.
	// Crash and CleanCloseNoCheckpoint store the surviving devices in them
	// for Recover.
	cfgs []Config
}

// NewKV wraps api.
func NewKV(api API) *KV {
	k := &KV{api: api, ctx: api.NewContext()}
	for _, s := range members(api) {
		k.cfgs = append(k.cfgs, s.cfg)
	}
	return k
}

// Store returns the wrapped store (it changes after Recover).
func (k *KV) Store() API { return k.api }

// Label implements kvapi.Store.
func (k *KV) Label() string {
	cfg := k.cfgs[0]
	switch {
	case len(k.cfgs) > 1:
		return fmt.Sprintf("DStore (%d shards)", len(k.cfgs))
	case cfg.Mode == ModeCoW:
		return "DStore (CoW)"
	case cfg.Mode == ModePhysical:
		return "DStore (physical log)"
	case cfg.DisableOE:
		return "DStore (no OE)"
	default:
		return "DStore"
	}
}

// notFound maps the store's not-found sentinel to the harness's.
func notFound(err error) error {
	if errors.Is(err, ErrNotFound) {
		return kvapi.ErrNotFound
	}
	return err
}

// Put implements kvapi.Store.
func (k *KV) Put(key string, value []byte) error { return k.ctx.Put(key, value) }

// Get implements kvapi.Store; absent keys return kvapi.ErrNotFound.
func (k *KV) Get(key string, buf []byte) ([]byte, error) {
	out, err := k.ctx.Get(key, buf)
	if err != nil {
		return nil, notFound(err)
	}
	return out, nil
}

// Delete implements kvapi.Store; absent keys return kvapi.ErrNotFound.
func (k *KV) Delete(key string) error { return notFound(k.ctx.Delete(key)) }

// Close implements kvapi.Store.
func (k *KV) Close() error { return k.api.Close() }

// FootprintBytes implements kvapi.FootprintReporter.
func (k *KV) FootprintBytes() (dram, pmem, ssd uint64) {
	fp := k.api.Footprint()
	return fp.DRAMBytes, fp.PMEMBytes, fp.SSDBytes
}

// IOBytes implements kvapi.IOStatsReporter, summing device traffic across
// members.
func (k *KV) IOBytes() (pmemBytes, ssdBytes uint64) {
	for _, s := range members(k.api) {
		pm, data := s.Devices()
		ps := pm.Stats()
		ds := data.Stats()
		pmemBytes += ps.BytesRead + ps.BytesWritten
		ssdBytes += ds.BytesRead + ds.BytesWritten
	}
	return pmemBytes, ssdBytes
}

// Crash implements kvapi.Crasher: the store stops without a checkpoint
// (volatile state dropped) and every member's devices resolve per their
// crash models, seeds varied per member.
func (k *KV) Crash(seed int64) error {
	err := k.api.CloseNoCheckpoint()
	for i, s := range members(k.api) {
		var cerr error
		k.cfgs[i].PMEM, k.cfgs[i].SSD, cerr = s.Crash(seed + int64(i))
		if cerr != nil && err == nil {
			err = fmt.Errorf("dstore: crash member %d: %w", i, cerr)
		}
	}
	return err
}

// CleanCloseNoCheckpoint stops the store in an orderly way but without the
// final checkpoint, leaving the active log populated — the paper's clean
// shutdown semantics, whose Table 4 recovery includes log replay.
func (k *KV) CleanCloseNoCheckpoint() error {
	err := k.api.CloseNoCheckpoint()
	for i, s := range members(k.api) {
		k.cfgs[i].PMEM, k.cfgs[i].SSD = s.Devices()
	}
	return err
}

// Recover implements kvapi.Crasher: reopen from the surviving devices, in
// the shape the store had, and report the engine's recovery phase breakdown
// — the slowest member's, since members recover in parallel and recovery
// wall-clock is the slowest one, not the sum.
func (k *KV) Recover() (metadataNs, replayNs int64, err error) {
	if k.cfgs[0].PMEM == nil {
		return 0, 0, errors.New("dstore: Recover before Crash/CleanCloseNoCheckpoint")
	}
	var api API
	if _, ring := k.api.(*Sharded); ring {
		api, err = OpenSharded(k.cfgs)
	} else {
		api, err = Open(k.cfgs[0])
	}
	if err != nil {
		return 0, 0, err
	}
	k.api, k.ctx = api, api.NewContext()
	for _, s := range members(api) {
		m, r := s.Engine().RecoveryBreakdown()
		metadataNs, replayNs = max(metadataNs, m), max(replayNs, r)
	}
	return metadataNs, replayNs, nil
}

// Begin implements kvapi.Transactor; on a ring the transaction spans the
// sharded namespace (cross-shard write sets run two-phase commit).
func (k *KV) Begin() (kvapi.Txn, error) {
	t, err := k.ctx.Begin()
	if err != nil {
		return nil, err
	}
	return kvTxn{t: t}, nil
}

// kvTxn adapts a store transaction to kvapi.Txn, mapping the sentinels the
// harness matches on.
type kvTxn struct{ t Txn }

func (x kvTxn) Get(key string, buf []byte) ([]byte, error) {
	out, err := x.t.Get(key, buf)
	if err != nil {
		return nil, notFound(err)
	}
	return out, nil
}

func (x kvTxn) Put(key string, value []byte) error { return x.t.Put(key, value) }
func (x kvTxn) Delete(key string) error            { return x.t.Delete(key) }
func (x kvTxn) Abort() error                       { return x.t.Abort() }

func (x kvTxn) Commit() error {
	err := x.t.Commit()
	if errors.Is(err, ErrTxnConflict) {
		return kvapi.ErrTxnConflict
	}
	return err
}

var _ kvapi.IOStatsReporter = (*KV)(nil)
var _ kvapi.Store = (*KV)(nil)
var _ kvapi.FootprintReporter = (*KV)(nil)
var _ kvapi.Crasher = (*KV)(nil)
var _ kvapi.Transactor = (*KV)(nil)
