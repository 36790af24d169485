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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dstore"
	"dstore/internal/client"
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

// TxnPoint is one system's measurement in the JSON snapshot.
type TxnPoint struct {
	System     string  `json:"system"`
	Threads    int     `json:"threads"`
	Commits    uint64  `json:"commits"`
	Conflicts  uint64  `json:"conflicts"`
	TxnPerSec  float64 `json:"txn_per_sec"`
	AbortRatio float64 `json:"abort_ratio"`
	ReadKops   float64 `json:"read_kops"`
	TxnP50Us   float64 `json:"txn_p50_us"`
	TxnP99Us   float64 `json:"txn_p99_us"`
}

// TxnSnapshot is the BENCH_txn.json layout.
type TxnSnapshot struct {
	Workload    string     `json:"workload"`
	KeysPerTxn  int        `json:"keys_per_txn"`
	DurationSec float64    `json:"duration_sec"`
	ValueBytes  int        `json:"value_bytes"`
	Records     int        `json:"records"`
	Threads     int        `json:"threads"`
	Points      []TxnPoint `json:"points"`
}

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
	deadline := time.Now().Add(o.Duration)
	var wg sync.WaitGroup
	errCh := make(chan error, o.Threads)
	for t := 0; t < o.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			g := ycsb.NewGenerator(ycsb.F(o.Records, o.ValueBytes), o.Seed+int64(t)*7919)
			var buf []byte
			keys := make([]string, 0, txnKeysPer)
			for time.Now().Before(deadline) {
				op, key := g.Next()
				if op == ycsb.OpRead {
					var err error
					buf, err = s.Get(key, buf[:0])
					if err != nil && err != kvapi.ErrNotFound {
						errCh <- err
						return
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
						errCh <- err
						return
					}
					if committed {
						break
					}
					conflicts.Add(1)
					if retries++; retries > txnRetryCap {
						errCh <- fmt.Errorf("txn bench: %d consecutive conflicts on %v", retries, keys)
						return
					}
				}
				res.txnH.RecordSince(start)
				commits.Add(1)
			}
		}(t)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return res, err
	default:
	}
	res.commits = commits.Load()
	res.conflicts = conflicts.Load()
	res.reads = reads.Load()
	return res, nil
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
// store, the sharded store, and a loopback wire server. With o.TxnJSON set,
// the sweep is also written there as a machine-readable snapshot.
func Txns(o Options, w io.Writer) error {
	o.setDefaults()
	shards := o.Shards
	if shards <= 1 {
		shards = 4
	}
	t := Table{
		Title: fmt.Sprintf("Transactional YCSB-F: %d-key OCC transactions (%d threads, %v/run)",
			txnKeysPer, o.Threads, o.Duration),
		Header: []string{"system", "txn/s", "abort ratio", "read kops/s", "txn p50 us", "txn p99 us"},
	}
	snap := TxnSnapshot{
		Workload:    "F",
		KeysPerTxn:  txnKeysPer,
		DurationSec: o.Duration.Seconds(),
		ValueBytes:  o.ValueBytes,
		Records:     o.Records,
		Threads:     o.Threads,
	}
	var err error
	withLatency(o, func() {
		type system struct {
			name string
			make func() (kvapi.Store, func(), error)
		}
		embedded := func(n int) func() (kvapi.Store, func(), error) {
			return func() (kvapi.Store, func(), error) {
				kv, e := newShardedDStore(o, n, false)
				if e != nil {
					return nil, nil, e
				}
				return kv, func() { kv.Close() }, nil //nolint:errcheck // bench teardown
			}
		}
		systems := []system{
			{"local", embedded(1)},
			{"sharded", embedded(shards)},
			{"net", func() (kvapi.Store, func(), error) {
				cfg := dstoreConfig(o, dstore.ModeDIPPER, false, false, false)
				st, e := dstore.Format(cfg)
				if e != nil {
					return nil, nil, e
				}
				srv := st.NewNetServer(dstore.ServeOptions{})
				ln, e := net.Listen("tcp", "127.0.0.1:0")
				if e != nil {
					st.Close() //nolint:errcheck // bench teardown
					return nil, nil, e
				}
				go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
				c, e := client.Dial(client.Config{Addr: ln.Addr().String(), Conns: o.Threads})
				if e != nil {
					ln.Close() //nolint:errcheck // bench teardown
					st.Close() //nolint:errcheck // bench teardown
					return nil, nil, e
				}
				kv := client.NewKV(c, 30*time.Second)
				cleanup := func() {
					kv.Close() //nolint:errcheck // pooled conns; nothing to flush
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					srv.Shutdown(ctx) //nolint:errcheck // bench teardown
					cancel()
					st.Close() //nolint:errcheck // bench teardown
				}
				return kv, cleanup, nil
			}},
		}
		for _, sys := range systems {
			s, cleanup, e := sys.make()
			if e != nil {
				err = fmt.Errorf("txn bench %s: %w", sys.name, e)
				return
			}
			res, e := runTxnWorkload(s, o)
			cleanup()
			if e != nil {
				err = fmt.Errorf("txn bench %s: %w", sys.name, e)
				return
			}
			secs := o.Duration.Seconds()
			sum := res.txnH.Summarize()
			pt := TxnPoint{
				System:    sys.name,
				Threads:   o.Threads,
				Commits:   res.commits,
				Conflicts: res.conflicts,
				TxnPerSec: float64(res.commits) / secs,
				ReadKops:  float64(res.reads) / secs / 1000,
				TxnP50Us:  float64(sum.P50) / 1000,
				TxnP99Us:  float64(sum.P99) / 1000,
			}
			if total := res.commits + res.conflicts; total > 0 {
				pt.AbortRatio = float64(res.conflicts) / float64(total)
			}
			snap.Points = append(snap.Points, pt)
			t.Rows = append(t.Rows, []string{
				sys.name,
				fmt.Sprintf("%.0f", pt.TxnPerSec),
				fmt.Sprintf("%.4f", pt.AbortRatio),
				fmt.Sprintf("%.1f", pt.ReadKops),
				fmt.Sprintf("%.1f", pt.TxnP50Us),
				fmt.Sprintf("%.1f", pt.TxnP99Us),
			})
		}
	})
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("each RMW is a %d-key OCC transaction retried whole on conflict; abort ratio = conflicts/(commits+conflicts)", txnKeysPer),
		fmt.Sprintf("sharded point runs %d shards, so multi-key write sets exercise cross-shard two-phase commit", shards),
		"net point is a loopback dstore-server driven through pooled-client transaction sessions (latency includes the wire)")
	t.Print(w)
	if o.TxnJSON != "" {
		data, e := json.MarshalIndent(&snap, "", "  ")
		if e != nil {
			return e
		}
		if e := os.WriteFile(o.TxnJSON, append(data, '\n'), 0o644); e != nil {
			return fmt.Errorf("write %s: %w", o.TxnJSON, e)
		}
		fmt.Fprintf(w, "  snapshot written to %s\n", o.TxnJSON)
	}
	return nil
}
