package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"dstore"
	"dstore/internal/hist"
	"dstore/internal/ycsb"
)

// YCSBFull is an extension beyond the paper's evaluation: DStore across the
// complete standard YCSB suite (A–F), including workload E's ordered scans
// over the object namespace (via the Scan API) and workload F's
// read-modify-writes. It demonstrates that the decoupled design handles all
// six canonical access patterns; registered as experiment id "ycsbfull".
func YCSBFull(o Options, w io.Writer) error {
	o.setDefaults()
	t := Table{
		Title:  "Extension: full YCSB suite on DStore (avg / p99, us)",
		Header: []string{"workload", "mix", "op", "avg", "p99"},
	}
	workloads := []struct {
		wl  ycsb.Workload
		mix string
	}{
		{ycsb.A(o.Records, o.ValueBytes), "50r/50u"},
		{ycsb.B(o.Records, o.ValueBytes), "95r/5u"},
		{ycsb.C(o.Records, o.ValueBytes), "100r"},
		{ycsb.D(o.Records, o.ValueBytes), "95r/5i"},
		{ycsb.E(o.Records, o.ValueBytes), "95scan/5i"},
		{ycsb.F(o.Records, o.ValueBytes), "50r/50rmw"},
	}
	// Workloads D and E insert beyond the loaded set (bounded per generator
	// by Records); size the store for the worst case.
	oo := o
	if min := o.Threads * o.Records; oo.Objects < min {
		oo.Objects = min
	}
	var err error
	withLatency(o, func() {
		for _, entry := range workloads {
			var kv *dstore.KV
			kv, err = newDStore(oo, dstore.ModeDIPPER, false, false, false)
			if err != nil {
				return
			}
			var hists map[string]*hist.H
			hists, err = runFullWorkload(kv, entry.wl, o)
			kv.Close()
			if err != nil {
				return
			}
			for _, op := range []string{"read", "update", "insert", "scan", "rmw"} {
				h := hists[op]
				if h == nil || h.Count() == 0 {
					continue
				}
				s := h.Summarize()
				t.Rows = append(t.Rows, []string{entry.wl.Name, entry.mix, op,
					usF(s.MeanNs), us(s.P99)})
			}
		}
	})
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes,
		"workload E scans use the ordered prefix-scan API; scan latency grows with scan length, point ops stay flat")
	t.Print(w)
	return nil
}

// runFullWorkload drives all five op kinds against a DStore.
func runFullWorkload(kv *dstore.KV, wl ycsb.Workload, o Options) (map[string]*hist.H, error) {
	if err := preload(kv, o); err != nil {
		return nil, err
	}
	hists := map[string]*hist.H{
		"read": {}, "update": {}, "insert": {}, "scan": {}, "rmw": {},
	}
	for k := range hists {
		hists[k] = &hist.H{}
	}
	deadline := time.Now().Add(o.Duration)
	var wg sync.WaitGroup
	errCh := make(chan error, o.Threads)
	for th := 0; th < o.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			ctx := kv.Store().NewContext()
			defer ctx.Finalize()
			g := ycsb.NewGenerator(wl, o.Seed+int64(th)*104729)
			var buf []byte
			for time.Now().Before(deadline) {
				op, key := g.Next()
				start := time.Now()
				var err error
				switch op {
				case ycsb.OpRead:
					buf, err = ctx.Get(key, buf[:0])
					if err == dstore.ErrNotFound {
						err = nil
					}
					hists["read"].RecordSince(start)
				case ycsb.OpUpdate:
					err = ctx.Put(key, g.Value())
					hists["update"].RecordSince(start)
				case ycsb.OpInsert:
					err = ctx.Put(key, g.Value())
					hists["insert"].RecordSince(start)
				case ycsb.OpScan:
					want := g.ScanLen()
					n := 0
					err = ctx.Scan(key, func(dstore.ObjectInfo) bool {
						n++
						return n < want
					})
					hists["scan"].RecordSince(start)
				case ycsb.OpRMW:
					buf, err = ctx.Get(key, buf[:0])
					if err == dstore.ErrNotFound {
						err = nil
						buf = append(buf[:0], g.Value()...)
					}
					if err == nil {
						if len(buf) > 0 {
							buf[0]++
						}
						err = ctx.Put(key, buf)
					}
					hists["rmw"].RecordSince(start)
				}
				if err != nil {
					errCh <- fmt.Errorf("%s op: %w", wl.Name, err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
		return hists, nil
	}
}
