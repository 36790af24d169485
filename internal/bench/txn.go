package bench

// Transactional YCSB-F: the workload's read-modify-write half runs as
// multi-key OCC transactions (read K keys, rewrite all K atomically) instead
// of bare Put calls, against the same three deployments the rest of the
// harness measures — a single embedded store, a sharded store (cross-shard
// write sets run two-phase commit), and a live wire server driven through
// the pooled client's transaction sessions. Reported per system: committed
// transactions per second, the abort (conflict-retry) ratio, and
// client-observed commit latency including retries.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dstore"
	"dstore/internal/hist"
	"dstore/internal/kvapi"
	"dstore/internal/ycsb"
)

// txnKeysPer is the write-set size of each transaction: two zipfian keys, so
// hot-key collisions produce real OCC conflicts and, on the sharded store, a
// healthy fraction of cross-shard commits.
const txnKeysPer = 2

// txnRetryCap bounds conflict retries per transaction; OCC with short
// transactions converges long before this, so hitting it is a bug report.
const txnRetryCap = 1000

// txnRunResult aggregates one transactional run.
type txnRunResult struct {
	commits   uint64
	conflicts uint64
	reads     uint64
	txnH      *hist.H
}

// runTxnWorkload drives the transactional YCSB-F loop: reads stay plain
// Gets, each RMW becomes a Begin/Get×K/Put×K/Commit transaction retried
// whole on conflict. The recorded latency spans first Begin to successful
// Commit, retries included — what a caller waiting for the atomic update
// actually observes.
func runTxnWorkload(s kvapi.Store, o Options) (txnRunResult, error) {
	tx, ok := s.(kvapi.Transactor)
	if !ok {
		return txnRunResult{}, fmt.Errorf("txn bench: %s does not implement kvapi.Transactor", s.Label())
	}
	if err := preload(s, o); err != nil {
		return txnRunResult{}, err
	}

	res := txnRunResult{txnH: &hist.H{}}
	var commits, conflicts, reads atomic.Uint64
	err := drive(o, ycsb.F(o.Records, o.ValueBytes), func(g *ycsb.Generator, running func() bool) error {
		var buf []byte
		keys := make([]string, 0, txnKeysPer)
		for running() {
			op, key := g.Next()
			if op == ycsb.OpRead {
				var err error
				buf, err = s.Get(key, buf[:0])
				if err != nil && err != kvapi.ErrNotFound {
					return err
				}
				reads.Add(1)
				continue
			}
			// RMW: widen to a multi-key write set by drawing the
			// remaining keys from the same zipfian stream.
			keys = append(keys[:0], key)
			for len(keys) < txnKeysPer {
				_, k2 := g.Next()
				keys = append(keys, k2)
			}
			start := time.Now()
			retries := 0
			for {
				committed, err := runOneTxn(tx, keys, g.Value(), &buf)
				if err != nil {
					return err
				}
				if committed {
					break
				}
				conflicts.Add(1)
				if retries++; retries > txnRetryCap {
					return fmt.Errorf("txn bench: %d consecutive conflicts on %v", retries, keys)
				}
			}
			res.txnH.RecordSince(start)
			commits.Add(1)
		}
		return nil
	})
	res.commits = commits.Load()
	res.conflicts = conflicts.Load()
	res.reads = reads.Load()
	return res, err
}

// runOneTxn runs one read-modify-write attempt; false means a commit-time
// conflict (nothing applied, caller retries).
func runOneTxn(tx kvapi.Transactor, keys []string, val []byte, buf *[]byte) (bool, error) {
	t, err := tx.Begin()
	if err != nil {
		return false, err
	}
	for _, k := range keys {
		*buf, err = t.Get(k, (*buf)[:0])
		if err != nil && err != kvapi.ErrNotFound {
			t.Abort() //nolint:errcheck // best-effort release on the error path
			return false, err
		}
		if err := t.Put(k, val); err != nil {
			t.Abort() //nolint:errcheck // best-effort release on the error path
			return false, err
		}
	}
	switch err := t.Commit(); {
	case err == nil:
		return true, nil
	case errors.Is(err, kvapi.ErrTxnConflict):
		return false, nil
	default:
		return false, err
	}
}

// Txns regenerates the transactional YCSB-F comparison across the embedded
// store, the sharded store, and a loopback wire server.
func Txns(o Options) ([]*Table, error) {
	o.setDefaults()
	shards := o.Shards
	if shards <= 1 {
		shards = 4
	}
	t := newTable(fmt.Sprintf("Transactional YCSB-F: %d-key OCC transactions (%d threads, %v/run)",
		txnKeysPer, o.Threads, o.Duration),
		Col{"system", "system", nil}, Col{"threads", "", count}, Col{"commits", "", count}, Col{"conflicts", "", count},
		Col{"txn_per_sec", "txn/s", count}, Col{"abort_ratio", "abort ratio", f4}, Col{"read_kops", "read kops/s", kops},
		Col{"txn_p50_us", "txn p50 us", us}, Col{"txn_p99_us", "txn p99 us", us})
	t.Summary = fields{{"keys_per_txn", txnKeysPer}}
	embedded := func(n int) func() (kvapi.Store, func(), error) {
		return func() (kvapi.Store, func(), error) {
			kv, err := newShardedDStore(o, n, false)
			if err != nil {
				return nil, nil, err
			}
			return kv, func() { kv.Close() }, nil //nolint:errcheck // bench teardown
		}
	}
	systems := []struct {
		name string
		make func() (kvapi.Store, func(), error)
	}{
		{"local", embedded(1)},
		{"sharded", embedded(shards)},
		{"net", func() (kvapi.Store, func(), error) {
			kv, _, stop, err := loopback(dstoreConfig(o, dstore.ModeDIPPER, false, false, false), o.Threads, false)
			return kv, stop, err
		}},
	}
	err := withLatency(o, func() error {
		for _, sys := range systems {
			s, cleanup, err := sys.make()
			if err != nil {
				return fmt.Errorf("txn bench %s: %w", sys.name, err)
			}
			res, err := runTxnWorkload(s, o)
			cleanup()
			if err != nil {
				return fmt.Errorf("txn bench %s: %w", sys.name, err)
			}
			secs := o.Duration.Seconds()
			sum := res.txnH.Summarize()
			abortRatio := 0.0
			if total := res.commits + res.conflicts; total > 0 {
				abortRatio = float64(res.conflicts) / float64(total)
			}
			t.Row(sys.name, o.Threads, res.commits, res.conflicts, float64(res.commits)/secs, abortRatio,
				float64(res.reads)/secs, sum.P50, sum.P99)
		}
		return nil
	})
	t.Note("each RMW is a %d-key OCC transaction retried whole on conflict; abort ratio = conflicts/(commits+conflicts)", txnKeysPer)
	t.Note("sharded point runs %d shards, so multi-key write sets exercise cross-shard two-phase commit", shards)
	t.Note("net point is a loopback dstore-server driven through pooled-client transaction sessions (latency includes the wire)")
	return []*Table{t}, err
}
