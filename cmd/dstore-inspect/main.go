// Command dstore-inspect builds a small DStore, exercises it, and dumps the
// DIPPER persistent layout: the root object state across checkpoints, log
// occupancy, shadow-arena usage, and the recovery breakdown after a
// simulated crash. It serves as an executable tour of the §3 machinery.
//
// With -remote addr it instead connects to a live dstore-server and prints
// its STATS and HEALTH over the wire protocol.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"dstore"
	"dstore/internal/client"
	"dstore/internal/ring"
	"dstore/internal/server"
	"dstore/internal/wal"
	"dstore/internal/wire"
)

// report prints a store's counters and health from its STATS and HEALTH
// replies — the one view of a store that every shape (bare store, ring) and
// both sides of the wire share; rg is its routing ring, nil when it has
// none. Sharded stores carry per-shard rows after the aggregates; those
// print as a table.
func report(title string, st wire.StatsReply, h wire.HealthReply, rg *ring.Ring) {
	fmt.Printf("--- %s ---\n", title)
	fmt.Printf("ops:  puts=%d gets=%d deletes=%d reads=%d writes=%d opens=%d\n",
		st.Puts, st.Gets, st.Deletes, st.Reads, st.Writes, st.Opens)
	fmt.Printf("objs: live=%d ckpts=%d replayed=%d\n",
		st.Objects, st.Checkpoints, st.RecordsReplayed)
	if rg != nil {
		fmt.Printf("ring: epoch=%d mode=%s members=%d\n", rg.Epoch(), rg.Mode(), rg.Len())
	}
	fmt.Printf("foot: dram=%dKiB pmem=%dKiB ssd=%dKiB\n",
		st.DRAMBytes>>10, st.PMEMBytes>>10, st.SSDBytes>>10)
	if st.ServerConns > 0 { // only a server counts connections; ours is one
		fmt.Printf("srv:  conns=%d requests=%d\n", st.ServerConns, st.ServerRequests)
	}
	if c := st.Cache; c != nil {
		fmt.Printf("cache: hits=%d misses=%d ratio=%.1f%% evict=%d bytes=%dKiB/%dKiB\n",
			c.Hits, c.Misses, pct(c.Hits, c.Misses), c.Evictions, c.Bytes>>10, c.Capacity>>10)
	}
	if x := st.Txn; x != nil {
		fmt.Printf("txn:  commits=%d aborts=%d conflicts=%d conflictRate=%.1f%%\n",
			x.Commits, x.Aborts, x.Conflicts, pct(x.Conflicts, x.Commits))
	}
	if b := st.Batch; b != nil {
		fmt.Printf("gc:   batches=%d records=%d parked=%d avg=%.1f recs/fence\n",
			b.Batches, b.Records, b.Parked, float64(b.Records)/float64(b.Batches))
	}
	if r := st.Repl; r != nil {
		role := "primary"
		if r.Role == wire.ReplRoleStandby {
			role = "standby"
		}
		var lag uint64
		if r.LastLSN > r.AckedLSN {
			lag = r.LastLSN - r.AckedLSN
		}
		fmt.Printf("repl: role=%s subscribers=%d slowDrops=%d lastLSN=%d ackedLSN=%d lag=%d\n",
			role, r.Subscribers, r.Drops, r.LastLSN, r.AckedLSN, lag)
	}
	status := "healthy"
	if h.Degraded {
		status = fmt.Sprintf("DEGRADED (%s)", h.Reason)
	}
	fmt.Printf("health: %s retries=%d writeErrs=%d corrupt=%d remaps=%d quarantined=%v\n",
		status, h.IORetries, h.WriteErrors, h.Corruptions, h.Remaps, h.QuarantinedBlocks)
	if len(st.Shards) > 0 {
		fmt.Printf("--- per-shard (%d shards) ---\n", len(st.Shards))
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "shard\tputs\tgets\tdeletes\tobjs\tckpts\treplayed\tpmemKiB\tssdKiB\tcacheHit%\thealth")
		for i, row := range st.Shards {
			hs := "healthy"
			if i < len(h.Shards) {
				sd := h.Shards[i]
				if sd.Degraded {
					hs = fmt.Sprintf("DEGRADED (%s)", sd.Reason)
				} else if sd.IORetries+sd.WriteErrors+sd.Corruptions > 0 {
					hs = fmt.Sprintf("retries=%d writeErrs=%d corrupt=%d",
						sd.IORetries, sd.WriteErrors, sd.Corruptions)
				}
			}
			ch := "-"
			if st.Cache != nil && i < len(st.Cache.Shards) {
				cs := st.Cache.Shards[i]
				ch = fmt.Sprintf("%.1f", pct(cs.Hits, cs.Misses))
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
				i, row.Puts, row.Gets, row.Deletes, row.Objects,
				row.Checkpoints, row.RecordsReplayed,
				row.PMEMBytes>>10, row.SSDBytes>>10, ch, hs)
		}
		tw.Flush()
	}
}

// pct returns part as a percentage of part+rest (0 when both are zero):
// the cache hit ratio of hits and misses, the conflict rate of conflicts and
// commits.
func pct(part, rest uint64) float64 {
	if part+rest == 0 {
		return 0
	}
	return 100 * float64(part) / float64(part+rest)
}

// inspectRemote fetches and prints a live server's counters and health;
// with promote it first asks the server to promote its standby backend for
// writes (the remote failover trigger).
func inspectRemote(addr string, promote bool) {
	c, err := client.Dial(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		log.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if promote {
		if err := c.Promote(ctx); err != nil {
			log.Fatalf("promote: %v", err)
		}
		fmt.Printf("promoted: %s now accepts writes\n", addr)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	// Sharded servers also expose their routing ring; single-store servers
	// refuse OpRing with BAD_REQUEST, which just means there is no ring to
	// print.
	rg, _ := c.Ring(ctx) //nolint:errcheck // no ring is a valid answer
	h, err := c.Health(ctx)
	if err != nil {
		log.Fatalf("health: %v", err)
	}
	report(addr, st, h, rg)
}

// reportLocal prints an in-process store through the same replies a server
// over it would send.
func reportLocal(when string, api dstore.API) {
	b := api.NetBackend()
	var rg *ring.Ring
	if r, ok := b.(server.Ringer); ok {
		rg, _ = ring.Decode(r.RingData()) //nolint:errcheck // the store just encoded it
	}
	report(when, b.Stats(), b.Health(), rg)
}

// engineLine prints a bare store's DIPPER state: the durable root, log
// occupancy, and shadow-arena traffic that no reply carries.
func engineLine(st *dstore.Store) {
	e := st.Engine()
	root, err := e.RootState()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("root: seq=%d activeLog=%d shadowGen=%d ckptInProgress=%d lastCkptLSN=%d\n",
		root.Seq, root.ActiveLog, root.ShadowGen, root.CkptInProgress, root.LastCkptLSN)
	fmt.Printf("log:  lastLSN=%d inflight=%d free=%.0f%% shadowCloned=%dB\n",
		e.Pair().LastLSN(), e.Pair().InFlight(), 100*e.Pair().FreeFraction(), e.Stats().ShadowBytesCloned)
}

// txnTour exercises the transaction path so the txn counters in the
// surrounding dumps are live: a committed two-key swap, then an induced
// commit-time conflict (a plain Put lands between a transaction's read and
// its commit). On a ring the two keys may live on different shards, which
// makes the swap a two-phase commit.
func txnTour(ctx dstore.Context) {
	a, b := "object-000000", "object-000001"
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	txn, err := ctx.Begin()
	must(err)
	va, err := txn.Get(a, nil)
	must(err)
	vb, err := txn.Get(b, nil)
	must(err)
	must(txn.Put(a, vb))
	must(txn.Put(b, va))
	must(txn.Commit())
	txn2, err := ctx.Begin()
	must(err)
	_, err = txn2.Get(a, nil)
	must(err)
	must(txn2.Put(a, va))
	must(ctx.Put(a, vb))
	if err := txn2.Commit(); !errors.Is(err, dstore.ErrTxnConflict) {
		log.Fatalf("expected txn conflict, got %v", err)
	}
	fmt.Println("ran one committed swap transaction and one induced OCC conflict")
}

// dumpActiveLog prints up to n records of a bare store's active log.
func dumpActiveLog(st *dstore.Store, n int) {
	fmt.Printf("--- active log (first %d records) ---\n", n)
	pair := st.Engine().Pair()
	states := map[uint8]string{0: "uncommitted", 1: "committed", 2: "dead"}
	errDone := errors.New("done")
	seen := 0
	if err := pair.Log(pair.ActiveIndex()).IterateAll(func(rv wal.RecordView) error {
		if seen >= n {
			return errDone
		}
		seen++
		fmt.Printf("  lsn=%-6d op=%d state=%-11s name=%q payload=%dB\n",
			rv.LSN, rv.Op, states[rv.State], rv.Name, len(rv.Payload))
		return nil
	}); err != nil && !errors.Is(err, errDone) {
		log.Fatal(err)
	}
	fmt.Println()
}

// inspectLocal builds a local store — a bare one, or with shards > 1 a ring
// — exercises it, dumps it at each step, then power-fails it at the worst
// point and recovers. Both shapes take the same tour; a ring additionally
// grows by one shard while serving, and recovers its shards in parallel.
func inspectLocal(shards, objects, cacheMB, dumpLog int, crash bool) {
	cfg := dstore.Config{TrackPersistence: true, CacheBytes: uint64(cacheMB) << 20}
	var api dstore.API
	var err error
	if shards > 1 {
		api, err = dstore.FormatSharded(shards, cfg)
	} else {
		api, err = dstore.Format(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	dump := func(when string) {
		reportLocal(when, api)
		if st, ok := api.(*dstore.Store); ok {
			engineLine(st)
		}
		fmt.Println()
	}
	key := func(i int) string { return fmt.Sprintf("object-%06d", i) }
	readAll := func(ctx dstore.Context) (ok int) {
		for i := 0; i < objects; i++ {
			if _, err := ctx.Get(key(i), nil); err == nil {
				ok++
			}
		}
		return ok
	}

	dump("fresh store")
	ctx := api.NewContext()
	val := make([]byte, 4096)
	for i := 0; i < objects; i++ {
		if err := ctx.Put(key(i), val); err != nil {
			log.Fatal(err)
		}
	}
	// One batched MPut so the gc: counters are live: the sub-ops fan out
	// across appliers and their records settle through shared group-commit
	// fences.
	keys := make([]string, 64)
	vals := make([][]byte, len(keys))
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("batch-%06d", i), val
	}
	for _, e := range api.MPut(0, keys, vals) {
		if e != nil {
			log.Fatal(e)
		}
	}
	fmt.Printf("applied one %d-key MPut batch (sub-ops share group-commit fences)\n", len(keys))
	if objects >= 2 {
		txnTour(ctx)
	}
	dump(fmt.Sprintf("after %d puts", objects))
	if cacheMB > 0 {
		// The cache is write-through: the puts above published their blocks,
		// so the dump after a read pass shows hits without a warming pass.
		readAll(ctx)
		dump("after a read pass")
	}
	if st, ok := api.(*dstore.Store); ok && dumpLog > 0 {
		dumpActiveLog(st, dumpLog)
	}
	if err := api.CheckpointNow(); err != nil {
		log.Fatal(err)
	}
	dump("after explicit checkpoint")

	if sh, ok := api.(*dstore.Sharded); ok {
		// Live reshard: the migration streams moving keys to the new member
		// and flips the routing epoch; the dump shows the redistributed key
		// counts, and the crash below then proves the flipped ring is what
		// recovery restores.
		fmt.Println("adding a shard live (consistent-hash migration)...")
		start := time.Now()
		idx, err := sh.AddShard()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("shard %d joined in %.2fms (ring epoch %d)\n", idx,
			float64(time.Since(start).Nanoseconds())/1e6, sh.RingEpoch())
		dump("after live AddShard")
	}
	if !crash {
		api.Close()
		return
	}

	fmt.Println("simulating worst-case crash (power loss mid-checkpoint)...")
	var reopen func() (dstore.API, error)
	switch s := api.(type) {
	case *dstore.Store:
		s.PrepareWorstCaseCrash()
		cfg.PMEM, cfg.SSD, err = s.Crash(42)
		reopen = func() (dstore.API, error) { return dstore.Open(cfg) }
	case *dstore.Sharded:
		s.Shard(0).PrepareWorstCaseCrash()
		var cfgs []dstore.Config
		cfgs, err = s.Crash(42)
		reopen = func() (dstore.API, error) { return dstore.OpenSharded(cfgs) }
	}
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if api, err = reopen(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered in %.2fms", float64(time.Since(start).Nanoseconds())/1e6)
	if st, ok := api.(*dstore.Store); ok {
		metaNs, replayNs := st.Engine().RecoveryBreakdown()
		fmt.Printf(" (metadata=%.2fms replay=%.2fms)", float64(metaNs)/1e6, float64(replayNs)/1e6)
	}
	fmt.Printf("\npost-recovery: %d/%d objects readable\n", readAll(api.NewContext()), objects)
	dump("after recovery")
	api.Close()
}

// inspectReplicated builds a local replicated sharded store (every shard a
// primary/standby pair), loads it, shows the standbys' replication lag
// converge, then forces a failover on shard 0 and shows the store staying
// writable — the phase-one failover walk-through (DESIGN.md §10).
func inspectReplicated(shards, objects int) {
	if shards < 1 {
		shards = 2
	}
	sh, err := dstore.FormatShardedReplicated(shards, dstore.Config{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := sh.Init()
	val := make([]byte, 4096)
	for i := 0; i < objects; i++ {
		if err := ctx.Put(fmt.Sprintf("object-%06d", i), val); err != nil {
			log.Fatal(err)
		}
	}
	lagLine := func(when string) {
		fmt.Printf("--- %s ---\nrepl lag (primary LSN - applied LSN):", when)
		for i := 0; i < sh.Shards(); i++ {
			fmt.Printf(" shard%d=%d", i, sh.Replica(i).Lag())
		}
		fmt.Println()
	}
	lagLine(fmt.Sprintf("after %d puts", objects))
	// The in-process feeds poll every millisecond; give them a moment and
	// show the lag draining to zero.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		drained := true
		for i := 0; i < sh.Shards(); i++ {
			if sh.Replica(i).Lag() != 0 {
				drained = false
			}
		}
		if drained {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	lagLine("after feed drain")

	fmt.Println("forcing failover of shard 0 (promote standby)...")
	if err := sh.Replica(0).Promote(); err != nil {
		log.Fatal(err)
	}
	h := sh.Health()
	fmt.Printf("health: degraded=%v degradedShard=%d (failover absorbed the fault)\n",
		h.Degraded, h.DegradedShard)
	errs := 0
	for i := 0; i < objects; i++ {
		if err := ctx.Put(fmt.Sprintf("object-%06d", i), val); err != nil {
			errs++
		}
	}
	ok := 0
	for i := 0; i < objects; i++ {
		if _, err := ctx.Get(fmt.Sprintf("object-%06d", i), nil); err == nil {
			ok++
		}
	}
	fmt.Printf("post-failover: rewrote %d/%d objects (%d errors), %d/%d readable\n",
		objects-errs, objects, errs, ok, objects)
	if err := sh.Close(); err != nil {
		log.Fatal(err)
	}
}

func main() {
	var (
		objects = flag.Int("objects", 2000, "objects to load")
		crash   = flag.Bool("crash", true, "simulate a worst-case crash and recover")
		dumpLog = flag.Int("dumplog", 0, "dump up to N records of the active log after loading")
		remote  = flag.String("remote", "", "inspect a live dstore-server at this address instead of building a local store")
		promote = flag.Bool("promote", false, "with -remote: promote the server's standby backend for writes before printing stats")
		repl    = flag.Bool("replicated", false, "build a local replicated sharded store and walk through a failover")
		shards  = flag.Int("shards", 1, "build a sharded local store (a ring of this many engines) instead of a bare one")
		cacheMB = flag.Int("cache-mb", 0, "DRAM block cache size in MiB for the local store (0 disables)")
	)
	flag.Parse()

	if *remote != "" {
		inspectRemote(*remote, *promote)
		return
	}
	if *repl {
		inspectReplicated(*shards, *objects)
		return
	}
	inspectLocal(*shards, *objects, *cacheMB, *dumpLog, *crash)
}
