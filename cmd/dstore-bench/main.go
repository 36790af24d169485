// Command dstore-bench regenerates the paper's evaluation tables and
// figures (§5) on the simulated devices.
//
// Usage:
//
//	dstore-bench -exp fig7 -threads 8 -duration 10s
//	dstore-bench -exp all -objects 100000
//	dstore-bench -exp shards -threads 8 -json shards.json
//	dstore-bench -net 127.0.0.1:7421
//
// Experiment ids: fig1 fig5 fig6 table3 fig7 fig8 fig9 table4 fig10 table5
// ycsbfull shards cache txn reshard batch.
// Defaults are laptop-scaled; raise -records/-objects/-duration/-threads to
// approach the paper's 2M-object, 28-thread, 60-second runs.
//
// With -net, the embedded experiments are skipped and YCSB A/B run against
// a live dstore-server at the given address, reporting client-observed
// latency (wire round trip included).
//
// With -json, every table printed is also written to one JSON snapshot: the
// same cells under their column keys, the options of the run, the GC percent
// each table's windows ran under, and a fingerprint of the host.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dstore/internal/bench"
)

func main() {
	var ids []string
	for _, e := range bench.Experiments {
		ids = append(ids, e.ID)
	}
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+") or 'all'")
		threads  = flag.Int("threads", 0, "client threads (default GOMAXPROCS)")
		duration = flag.Duration("duration", 5*time.Second, "measured run length per data point")
		sample   = flag.Duration("sample", time.Second, "throughput/bandwidth sample interval (fig7)")
		records  = flag.Int("records", 10000, "YCSB key-space size")
		value    = flag.Int("value", 4096, "object size in bytes")
		objects  = flag.Int("objects", 20000, "objects loaded for table4/fig10/table5 (paper: 2000000)")
		nolat    = flag.Bool("nolatency", false, "disable calibrated device latency injection")
		seed     = flag.Int64("seed", 1, "workload seed")
		faults   = flag.Int64("faults", 0, "SSD fault-plan seed for DStore instances (used with -fault-rate)")
		frate    = flag.Float64("fault-rate", 0, "per-op transient SSD read/write error probability (0 disables)")
		netAddr  = flag.String("net", "", "benchmark a live dstore-server at this address instead of the embedded experiments")
		shards   = flag.Int("shards", 0, "shard count for the shards experiment sweep (adds it to 1,4,8 when outside)")
		cacheMB  = flag.Int("cache-mb", 0, "DRAM block cache MiB on DStore instances; the cache experiment adds it to its 0,8,64 sweep when outside")
		batch    = flag.Bool("batch", false, "with -net, coalesce concurrent threads' ops into MPUT/MGET frames")
		jsonPath = flag.String("json", "", "write every table of the run, with its options and a host fingerprint, to this JSON file")
	)
	flag.Parse()

	o := bench.Options{
		Threads:        *threads,
		Duration:       *duration,
		SampleInterval: *sample,
		Records:        *records,
		ValueBytes:     *value,
		Objects:        *objects,
		NoLatency:      *nolat,
		Seed:           *seed,
		FaultSeed:      *faults,
		FaultRate:      *frate,
		Shards:         *shards,
		CacheMB:        *cacheMB,
		NetBatch:       *batch,
	}

	// run runs one experiment, prints its tables, keeps them for -json, and
	// returns how long it took.
	var results []bench.Result
	run := func(id string, f func(bench.Options) ([]*bench.Table, error)) time.Duration {
		start := time.Now()
		tables, err := f(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Print(os.Stdout)
		}
		took := time.Since(start)
		results = append(results, bench.Result{ID: id, Seconds: took.Seconds(), Tables: tables})
		return took
	}

	switch {
	case *netAddr != "":
		run("net", func(o bench.Options) ([]*bench.Table, error) { return bench.RunNet(*netAddr, o) })
	case *exp != "all" && bench.Find(*exp) == nil:
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n", *exp, strings.Join(ids, ", "))
		os.Exit(2)
	default:
		for _, e := range bench.Experiments {
			if *exp != "all" && *exp != e.ID {
				continue
			}
			fmt.Printf("# running %s ...\n", e.ID)
			fmt.Printf("# %s done in %.1fs\n", e.ID, run(e.ID, e.Run).Seconds())
		}
	}

	if *jsonPath != "" {
		if err := bench.WriteSnapshot(*jsonPath, o, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  snapshot written to %s\n", *jsonPath)
	}
}
