package bench

import (
	"fmt"
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
func YCSBFull(o Options) ([]*Table, error) {
	o.setDefaults()
	t := newTable("Extension: full YCSB suite on DStore (avg / p99, us)",
		Col{"workload", "workload", nil}, Col{"mix", "mix", nil}, Col{"op", "op", nil},
		Col{"mean_us", "avg", us}, Col{"p99_us", "p99", us})
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
	err := withLatency(o, func() error {
		for _, entry := range workloads {
			kv, err := newDStore(oo, dstore.ModeDIPPER, false, false, false)
			if err != nil {
				return err
			}
			hists, err := runFullWorkload(kv, entry.wl, o)
			kv.Close()
			if err != nil {
				return err
			}
			for _, op := range []string{"read", "update", "insert", "scan", "rmw"} {
				if h := hists[op]; h.Count() > 0 {
					s := h.Summarize()
					t.Row(entry.wl.Name, entry.mix, op, s.MeanNs, s.P99)
				}
			}
		}
		return nil
	})
	t.Note("workload E scans use the ordered prefix-scan API; scan latency grows with scan length, point ops stay flat")
	return []*Table{t}, err
}

// runFullWorkload drives all five op kinds against a DStore.
func runFullWorkload(kv *dstore.KV, wl ycsb.Workload, o Options) (map[string]*hist.H, error) {
	if err := preload(kv, o); err != nil {
		return nil, err
	}
	hists := map[string]*hist.H{
		"read": {}, "update": {}, "insert": {}, "scan": {}, "rmw": {},
	}
	err := drive(o, wl, func(g *ycsb.Generator, running func() bool) error {
		ctx := kv.Store().NewContext()
		defer ctx.Finalize()
		var buf []byte
		for running() {
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
				return fmt.Errorf("%s op: %w", wl.Name, err)
			}
		}
		return nil
	})
	return hists, err
}
