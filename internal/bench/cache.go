package bench

import (
	"fmt"
	"strings"

	"dstore"
	"dstore/internal/ycsb"
)

// This file is the DRAM block-cache experiment: YCSB over a single DIPPER
// instance as the cache (internal/cache) is swept from off to larger than the
// working set. A hit serves the block from DRAM — no simulated NVMe read, no
// CRC re-verification — so the read-side win is bounded only by the hit
// ratio. YCSB-C (100% read) is the ceiling; YCSB-B (95/5) and YCSB-A (50/50)
// show what updates do to it: the cache is write-through, so an update's block
// takes the room its old version left, and costs the readers nothing.

// Cache regenerates the block-cache comparison: YCSB-A, -B and -C read
// throughput, read latency, and hit ratio as the DRAM cache grows: off, a
// fraction of the working set, and larger than the working set, extended
// with o.CacheMB when the caller asked for a size outside it. The headline
// ratios are the largest cache against cache-off; the working set (records x
// value bytes) against that size tells whether the top point is
// capacity-bound or fully resident.
func Cache(o Options) ([]*Table, error) {
	o.setDefaults()
	std := ycsbCols(map[string]string{"read_kops": "read kops/s", "total_kops": "total kops/s",
		"read_mean_us": "read mean", "read_p99_us": "read p99"})
	for i := range std {
		if strings.HasSuffix(std[i].Key, "_us") {
			std[i].Fmt = usSfx // this table prints its latencies with the unit attached
		}
	}
	cols := append([]Col{{"workload", "workload", nil}, {"cache_mb", "cache MB", count}, {"threads", "", count}}, std...)
	t := newTable("Block cache: YCSB-A/B/C read throughput and hit ratio vs cache size",
		append(cols, Col{"hits", "", count}, Col{"misses", "", count}, Col{"hit_ratio", "hit%", pct},
			Col{"evictions", "evict", count}, Col{"read_speedup_vs_off", "speedup", times})...)
	sizes := sweep([]int{0, 8, 64}, o.CacheMB)
	largest := sizes[len(sizes)-1]
	workingSetMB := float64(o.Records) * float64(o.ValueBytes) / (1 << 20)
	err := withLatency(o, func() error {
		for _, wl := range []ycsb.Workload{ycsb.A(o.Records, o.ValueBytes), ycsb.B(o.Records, o.ValueBytes), ycsb.C(o.Records, o.ValueBytes)} {
			var baseReads float64
			for _, mb := range sizes {
				oo := o
				oo.CacheMB = mb
				kv, err := newDStore(oo, dstore.ModeDIPPER, false, false, false)
				if err != nil {
					return err
				}
				res, err := runWorkload(kv, wl, oo)
				cs := kv.Store().CacheStats()
				kv.Close()
				if err != nil {
					return err
				}
				var speedup, hitRatio float64
				if lookups := cs.Hits + cs.Misses; lookups > 0 {
					hitRatio = float64(cs.Hits) / float64(lookups)
				}
				if mb == 0 {
					baseReads = float64(res.Read.Count)
				}
				if baseReads > 0 {
					speedup = float64(res.Read.Count) / baseReads
				}
				row := append([]any{wl.Name, mb, o.Threads}, ycsbCells(res, o)...)
				t.Row(append(row, cs.Hits, cs.Misses, hitRatio, cs.Evictions, speedup)...)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The headline ratios are the largest cache vs cache-off: the last row
	// of each workload's sweep.
	t.Summary = fields{{"working_set_mb", workingSetMB}, {"largest_cache_mb", largest}}
	var headline []string
	for w, name := range []string{"a", "b", "c"} {
		row := (w+1)*len(sizes) - 1
		speedup, hit := t.Num(row, "read_speedup_vs_off"), t.Num(row, "hit_ratio")
		t.Summary = append(t.Summary, field{"ycsb_" + name + "_read_speedup", speedup}, field{"ycsb_" + name + "_hit_ratio", hit})
		headline = append(headline, fmt.Sprintf("YCSB-%s reads %.2fx cache-off (hit ratio %.1f%%)", strings.ToUpper(name), speedup, 100*hit))
	}
	if t.Num(3*len(sizes)-1, "read_speedup_vs_off") > 0 {
		t.Note("%dMB cache: %s", largest, strings.Join(headline, ", "))
	}
	t.Note("working set %.0fMB: the %dMB point is fully resident after warmup; the 8MB point measures CLOCK with frequency admission under capacity pressure",
		workingSetMB, largest)
	t.Note("expected shape: hit ratio near 100%% for all three at the resident size (an update publishes the block it wrote, so the read after it hits); under pressure YCSB-C > YCSB-B > YCSB-A (an updated block is cached only where its old version was, and a one-off miss evicts nothing, so a rewritten block that was out stays out until it is read more than a resident); hits skip both the simulated NVMe read and CRC verification")
	return []*Table{t}, nil
}
