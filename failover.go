package dstore

// Phase-one failover: a ReplicatedShard pairs a primary store with a hot
// standby fed from the primary's committed WAL suffix, and converts the
// "degraded shard turns read-only" behavior into "degraded shard fails over
// and stays writable". The standby is either in-process (a second *Store in
// the same address space, fed directly from ExportCommitted) or remote (a
// standby process subscribed over the wire, promoted via OpPromote — see
// internal/replica); this file implements the in-process form used by
// Sharded and by the fault soaks.
//
// Failover safety argument (DESIGN.md §10): only committed records are ever
// exported, the primary keeps serving reads while degraded (degradation
// gates writes only), and export needs nothing but reads — so the committed
// tail the feed had not yet shipped is drained *after* the primary degrades,
// before the standby is promoted. Writes that were in flight when the
// persistence path failed were never committed and are correctly absent on
// both sides.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrFailover is returned when a degraded primary cannot fail over (no
// standby, the feed broke, or the standby itself degraded); the shard then
// stays read-only exactly as an unreplicated degraded shard would.
var ErrFailover = errors.New("dstore: failover unavailable")

// replFeedPoll is the in-process feed's idle poll interval.
const replFeedPoll = time.Millisecond

// replFeedBatch bounds records shipped per feed round.
const replFeedBatch = 128

// ReplicatedShard is a primary *Store with an in-process hot standby. All
// data-path access goes through Active(); Failover swaps it. Safe for
// concurrent use.
type ReplicatedShard struct {
	active atomic.Pointer[Store]

	mu         sync.Mutex // serializes Failover against itself and Close
	primary    *Store
	standby    *Store
	failedOver bool
	broken     atomic.Bool // feed hit a gap or the standby degraded

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewReplicatedShard wires standby as a hot mirror of primary and starts
// the in-process feed. standby must be a fresh Format (it is put into
// standby mode here).
func NewReplicatedShard(primary, standby *Store) *ReplicatedShard {
	standby.BeginStandby()
	rs := &ReplicatedShard{
		primary: primary,
		standby: standby,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	rs.active.Store(primary)
	go rs.feed()
	return rs
}

// Active returns the store currently serving this shard: the primary, or
// the promoted standby after failover.
func (rs *ReplicatedShard) Active() *Store { return rs.active.Load() }

// Standby returns the standby store (nil once promoted — it is then the
// active store). For inspection and tests.
func (rs *ReplicatedShard) Standby() *Store {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.failedOver {
		return nil
	}
	return rs.standby
}

// Lag returns the standby's replication lag in LSNs (primary LastLSN −
// standby applied LSN); 0 after failover.
func (rs *ReplicatedShard) Lag() uint64 {
	rs.mu.Lock()
	p, sb, over := rs.primary, rs.standby, rs.failedOver
	rs.mu.Unlock()
	if over {
		return 0
	}
	last, acked := p.LastLSN(), sb.AppliedLSN()
	if last <= acked {
		return 0
	}
	return last - acked
}

// FailedOver reports whether the standby has been promoted.
func (rs *ReplicatedShard) FailedOver() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.failedOver
}

// feed tails the primary's committed WAL suffix into the standby until
// stopped. A gap (the primary recycled log space past our position) or a
// standby apply failure marks replication broken: the standby can no longer
// be trusted to converge, so failover is refused from then on.
func (rs *ReplicatedShard) feed() {
	defer close(rs.done)
	for {
		select {
		case <-rs.stop:
			return
		default:
		}
		n, err := rs.feedOnce(replFeedBatch)
		if err != nil {
			rs.broken.Store(true)
			return
		}
		if n == 0 {
			select {
			case <-rs.stop:
				return
			case <-time.After(replFeedPoll):
			}
		}
	}
}

// stopFeedAndWait signals the feed goroutine and blocks until it exits.
// Idempotent. Callers must NOT hold rs.mu: the wait can last a full poll
// interval, and holding the lock across it would stall every Standby/Lag/
// FailedOver reader for that long (the exact class of blocking-under-lock
// the lock-order checker flags).
func (rs *ReplicatedShard) stopFeedAndWait() {
	rs.stopOnce.Do(func() { close(rs.stop) })
	<-rs.done
}

// feedOnce ships one batch and returns how many records were applied.
func (rs *ReplicatedShard) feedOnce(batch int) (int, error) {
	recs, err := rs.primary.ExportCommitted(rs.standby.AppliedLSN(), batch)
	if err != nil {
		if errors.Is(err, ErrClosed) {
			return 0, nil // primary closing; the stop signal follows
		}
		return 0, err
	}
	for i := range recs {
		if err := rs.standby.ApplyReplicated(recs[i]); err != nil {
			return i, err
		}
	}
	return len(recs), nil
}

// Failover promotes the standby if the primary is degraded: the feed stops,
// the committed tail the feed had not yet shipped is drained from the
// (still readable) degraded primary, the standby is promoted, and the
// active pointer swaps. Idempotent; concurrent callers serialize and the
// losers observe the completed swap. Returns ErrFailover when no usable
// standby exists.
func (rs *ReplicatedShard) Failover() error {
	rs.mu.Lock()
	if rs.failedOver {
		rs.mu.Unlock()
		return nil
	}
	if !rs.primary.Degraded() {
		rs.mu.Unlock()
		return fmt.Errorf("%w: primary is healthy", ErrFailover)
	}
	if rs.broken.Load() {
		rs.mu.Unlock()
		return fmt.Errorf("%w: replication feed broke before the failure", ErrFailover)
	}
	rs.mu.Unlock()

	// Stop the feed so the drain below is the only applier. Done without
	// rs.mu held — waiting out the feed's poll interval must not block the
	// read-only accessors.
	rs.stopFeedAndWait()

	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.failedOver {
		return nil // lost the race to a concurrent Failover: observe its swap
	}
	if rs.broken.Load() {
		return fmt.Errorf("%w: replication feed broke before the failure", ErrFailover)
	}
	rs.primary.eng.Pair().Seal()
	// Drain the committed tail. Export is read-only and keeps working on a
	// degraded primary; an export/apply failure here leaves the shard
	// read-only (the standby may be missing committed writes, so it must
	// not win).
	for {
		n, err := rs.feedOnce(replFeedBatch)
		if err != nil {
			rs.broken.Store(true)
			return fmt.Errorf("%w: draining committed tail: %v", ErrFailover, err)
		}
		if n == 0 {
			break
		}
	}
	if err := rs.standby.Promote(); err != nil {
		rs.broken.Store(true)
		return fmt.Errorf("%w: promote: %v", ErrFailover, err)
	}
	rs.active.Store(rs.standby)
	rs.failedOver = true
	return nil
}

// Close stops the feed and closes both stores (the retired primary without
// a checkpoint — its persistence path may be the reason for the failover).
func (rs *ReplicatedShard) Close() error {
	rs.stopFeedAndWait()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var first error
	if rs.failedOver {
		first = rs.standby.Close()
		rs.primary.CloseNoCheckpoint() //nolint:errcheck // retired degraded primary
	} else {
		if err := rs.primary.Close(); err != nil {
			first = err
		}
		if err := rs.standby.CloseNoCheckpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CloseNoCheckpoint stops the feed and closes both stores without final
// checkpoints.
func (rs *ReplicatedShard) CloseNoCheckpoint() error {
	rs.stopFeedAndWait()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	err := rs.primary.CloseNoCheckpoint()
	if serr := rs.standby.CloseNoCheckpoint(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// Promote forces a failover regardless of primary health — the operator's
// big red button (dstore-inspect's replicated tour calls it).
func (rs *ReplicatedShard) Promote() error {
	rs.mu.Lock()
	if !rs.failedOver && !rs.primary.Degraded() {
		// Manual promotion of a healthy primary: degrade it first so the
		// ordinary failover path (drain, promote, swap) applies unchanged.
		rs.primary.degrade(fmt.Errorf("manual promotion"))
	}
	rs.mu.Unlock()
	return rs.Failover()
}
