package bench

// Network benchmark: drive YCSB workloads against a live dstore-server over
// TCP through the pooled wire-protocol client, reporting client-observed
// latency — framing, the round trip, server queueing, and the store itself
// all land in the histogram, unlike the embedded runs which time only the
// store call.

import (
	"fmt"
	"time"

	"dstore/internal/client"
	"dstore/internal/ycsb"
)

// RunNet preloads and runs YCSB A and B against the dstore-server at addr,
// reporting throughput and client-observed read/update percentiles.
func RunNet(addr string, o Options) ([]*Table, error) {
	o.setDefaults()

	mode := "singleton ops"
	if o.NetBatch {
		mode = "batched ops"
	}
	t := newTable(fmt.Sprintf("Network YCSB against %s (client-observed latency, %d threads, %v/workload, %s)",
		addr, o.Threads, o.Duration, mode),
		append([]Col{{"workload", "workload", nil}, {"op", "op", nil}, {"total_kops", "kops/s", kops}},
			pctlCols("p50 us", "p90 us", "p99 us", "p999 us", "")...)...)
	for _, wl := range []ycsb.Workload{
		ycsb.A(o.Records, o.ValueBytes),
		ycsb.B(o.Records, o.ValueBytes),
	} {
		c, err := client.Dial(client.Config{Addr: addr, Conns: o.Threads})
		if err != nil {
			return nil, fmt.Errorf("netbench: %w", err)
		}
		kv := netKV(c, o.NetBatch)
		res, err := runWorkload(kv, wl, o)
		kv.Close() //nolint:errcheck // pooled conns; nothing to flush
		if err != nil {
			return nil, fmt.Errorf("netbench %s: %w", wl.Name, err)
		}
		// The workload's total rate goes on its first row only.
		t.Row(append([]any{wl.Name, "read", float64(res.TotalOps) / o.Duration.Seconds()}, pctlCells(res.Read)...)...)
		t.Row(append([]any{wl.Name, "update", ""}, pctlCells(res.Update)...)...)
	}
	t.Note("latencies include the wire round trip; compare against table4/fig10 embedded numbers for the network overhead")
	if o.NetBatch {
		t.Note("batched mode coalesces concurrent threads' ops into MPUT/MGET frames (latency includes the coalescing window)")
	}
	return []*Table{t}, nil
}

// netKV builds the kvapi adapter RunNet and the loopback fixture drive:
// singleton frames by default, the auto-coalescing Batcher when batched.
// The Batcher defaults (no idle window, frames sized by backpressure) are
// the recommended production setting, so the bench measures exactly those.
func netKV(c *client.Client, batched bool) *client.KV {
	if !batched {
		return client.NewKV(c, 30*time.Second)
	}
	return client.NewBatchedKV(c, 30*time.Second)
}
