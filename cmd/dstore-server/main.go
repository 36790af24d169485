// Command dstore-server serves a DStore over TCP with the wire protocol
// (see internal/wire and DESIGN.md §7). The store lives on the simulated
// PMEM and SSD devices; clients connect with internal/client,
// `dstore-bench -net`, or `dstore-inspect -remote`.
//
// Usage:
//
//	dstore-server -addr :7421 -blocks 65536 -max-objects 16384
//
// With -replicate-from the process runs as a hot standby instead: it tails
// the named primary's committed WAL over the wire, serves reads, refuses
// writes, and is promoted to a writable primary by OpPromote (e.g.
// `dstore-inspect -remote addr -promote`) — the phase-one failover path.
//
// SIGTERM/SIGINT triggers a graceful drain: in-flight requests finish,
// responses flush, the store checkpoints, and the process exits with the
// persistent state current (reopening replays nothing).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dstore"
	"dstore/internal/latency"
	"dstore/internal/replica"
	"dstore/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7421", "TCP listen address")
		blocks   = flag.Uint64("blocks", 65536, "SSD data blocks")
		objects  = flag.Uint64("max-objects", 16384, "object capacity")
		logBytes = flag.Uint64("log-bytes", 4<<20, "PMEM log size per log (bytes)")
		conns    = flag.Int("max-conns", 0, "max concurrent client connections (default 256)")
		window   = flag.Int("window", 0, "pipelined requests in flight per connection (default 64)")
		maxScan  = flag.Int("max-scan", 0, "objects returned per SCAN (default 1024)")
		idle     = flag.Duration("idle-timeout", 0, "drop connections idle this long (default none)")
		drain    = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget before connections are closed hard")
		simlat   = flag.Bool("latency", false, "enable calibrated device latency injection")
		shards   = flag.Int("shards", 1, "independent store shards behind the one address (keys hash-partition across them)")
		cacheMB  = flag.Int("cache-mb", 0, "DRAM block cache size in MiB, split across shards (0 disables)")
		replFrom = flag.String("replicate-from", "", "run as a hot standby tailing the primary dstore-server at this address (requires -shards 1)")
		replHot  = flag.Bool("replicated", false, "pair every shard with an in-process hot standby that is promoted transparently when the shard degrades")
		batch    = flag.Bool("batch", true, "WAL group commit: concurrent commits share one flush+fence (false reverts to a fence per record)")
	)
	flag.Parse()

	if *simlat {
		latency.Enable()
	}
	cfg := dstore.Config{
		Blocks:             *blocks,
		MaxObjects:         *objects,
		LogBytes:           *logBytes,
		CacheBytes:         uint64(*cacheMB) << 20,
		DisableGroupCommit: !*batch,
	}
	var st dstore.API
	var single *dstore.Store
	var err error
	switch {
	case *replHot:
		st, err = dstore.FormatShardedReplicated(*shards, cfg)
	case *shards > 1:
		st, err = dstore.FormatSharded(*shards, cfg)
	default:
		single, err = dstore.Format(cfg)
		st = single
	}
	if err != nil {
		log.Fatalf("format store: %v", err)
	}

	// Standby mode: tail the primary's committed WAL into this store and
	// serve it read-only until OpPromote arrives.
	var tailer *replica.Standby
	if *replFrom != "" {
		if single == nil {
			log.Fatalf("-replicate-from requires -shards 1 (a standby mirrors exactly one WAL)")
		}
		single.BeginStandby()
		tailer, err = replica.Start(replica.Config{
			Addr:  *replFrom,
			Store: single,
			Logf:  log.Printf,
		})
		if err != nil {
			log.Fatalf("replicate from %s: %v", *replFrom, err)
		}
		// OpPromote lands on the store behind the server's back; once the
		// standby gate lifts, stop tailing (applies would be refused anyway).
		go func() {
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for range tick.C {
				if !single.IsStandby() {
					log.Printf("promoted: standby is now a writable primary")
					tailer.Stop() //nolint:errcheck // promotion path; verdict logged by the tailer
					return
				}
				select {
				case <-tailer.Done():
					if err := tailer.Err(); err != nil {
						log.Printf("replication ended: %v", err)
					}
					return
				default:
				}
			}
		}()
	}

	srv := st.NewNetServer(dstore.ServeOptions{
		MaxConns:    *conns,
		Window:      *window,
		MaxScan:     *maxScan,
		IdleTimeout: *idle,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	role := "primary"
	if *replFrom != "" {
		role = "standby of " + *replFrom
	} else if *replHot {
		role = "replicated"
	}
	log.Printf("dstore-server listening on %s (%s shards=%d blocks=%d objects=%d cacheMB=%d groupcommit=%v)", ln.Addr(), role, *shards, *blocks, *objects, *cacheMB, *batch)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Printf("draining (budget %v)...", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			log.Printf("drain: %v", err)
		}
	}()

	if err := srv.Serve(ln); err != nil && !errors.Is(err, server.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
	<-done
	if tailer != nil {
		tailer.Stop() //nolint:errcheck // shutdown path; the tailer logged its verdict
	}
	ss := srv.Stats()
	log.Printf("served %d requests over %d connections", ss.Requests, ss.Accepted)
	if ss.ReplSubscribers > 0 || ss.ReplDrops > 0 {
		log.Printf("replication: subscribers=%d slow-follower-drops=%d", ss.ReplSubscribers, ss.ReplDrops)
	}
	if err := st.Close(); err != nil {
		log.Printf("close store: %v", err)
	}
}
