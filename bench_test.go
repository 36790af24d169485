package dstore_test

// One testing.B entry per table and figure of the paper's evaluation (§5),
// delegating to internal/bench at reduced scale, plus micro-benchmarks of
// the DStore fast paths. Full-scale regeneration: cmd/dstore-bench.

import (
	"fmt"
	"testing"
	"time"

	"dstore"
	"dstore/internal/bench"
)

// benchOptions scales an experiment to something a `go test -bench` run can
// afford while preserving the calibrated device latencies.
func benchOptions(b *testing.B) bench.Options {
	return bench.Options{
		Threads:        4,
		Duration:       400 * time.Millisecond,
		SampleInterval: 100 * time.Millisecond,
		Records:        2000,
		ValueBytes:     4096,
		Objects:        3000,
		Seed:           1,
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Find(id).Run(benchOptions(b)); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkFig1 regenerates Figure 1 (checkpoint tail-latency overhead).
func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig5 regenerates Figure 5 (YCSB average latency).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (DAX filesystem metadata overhead).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkTable3 regenerates Table 3 (write time breakdown).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig7 regenerates Figure 7 (throughput/bandwidth over time).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (tail-latency curves).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (optimization ablation).
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkTable4 regenerates Table 4 (recovery time).
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig10 regenerates Figure 10 (storage footprint).
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkTable5 regenerates Table 5 (SLO summary).
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }

// ---------------------------------------------------- fast-path micros
// (device latency injection off: these measure software path length)

func newBenchStore(b *testing.B) *dstore.Store {
	b.Helper()
	s, err := dstore.Format(dstore.Config{
		Blocks:     1 << 16,
		MaxObjects: 1 << 15,
		LogBytes:   16 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkPut4K measures the full logged write pipeline (Fig. 4) without
// device latency.
func BenchmarkPut4K(b *testing.B) {
	s := newBenchStore(b)
	defer s.Close()
	ctx := s.Init()
	val := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.Put(fmt.Sprintf("key-%06d", i%10000), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGet4K measures the read path.
func BenchmarkGet4K(b *testing.B) {
	s := newBenchStore(b)
	defer s.Close()
	ctx := s.Init()
	val := make([]byte, 4096)
	for i := 0; i < 1000; i++ {
		if err := ctx.Put(fmt.Sprintf("key-%06d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = ctx.Get(fmt.Sprintf("key-%06d", i%1000), buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetHit4K measures the read path when every block is resident in
// the block cache and the caller recycles its buffer: CC, index lookup, zone
// entry and a cache copy, with no device read and nothing left to allocate
// (run with -benchmem; the keys are built outside the timer).
func BenchmarkGetHit4K(b *testing.B) {
	s, err := dstore.Format(dstore.Config{
		Blocks:     1 << 16,
		MaxObjects: 1 << 15,
		LogBytes:   16 << 20,
		CacheBytes: 16 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := s.Init()
	val := make([]byte, 4096)
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
		if err := ctx.Put(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = ctx.Get(keys[i%len(keys)], buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.CacheStats(); st.Misses != 0 {
		b.Fatalf("%d cache misses: the benchmark no longer measures the hit path", st.Misses)
	}
}

// BenchmarkPutParallel measures logged-write scalability across goroutines
// (the OE concurrency path).
func BenchmarkPutParallel(b *testing.B) {
	s := newBenchStore(b)
	defer s.Close()
	var n int64
	b.RunParallel(func(pb *testing.PB) {
		ctx := s.Init()
		defer ctx.Finalize()
		val := make([]byte, 1024)
		i := n
		n += 1 << 32
		for pb.Next() {
			if err := ctx.Put(fmt.Sprintf("key-%08x", i%8192), val); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkCheckpoint measures one full quiescent-free checkpoint (clone +
// replay + flush + root flip) over a populated store.
func BenchmarkCheckpoint(b *testing.B) {
	s := newBenchStore(b)
	defer s.Close()
	ctx := s.Init()
	val := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 500; j++ {
			if err := ctx.Put(fmt.Sprintf("key-%06d", j), val); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := s.CheckpointNow(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures crash recovery (checkpoint redo + volatile
// rebuild + active-log replay) for a 2000-object store.
func BenchmarkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := dstore.Config{
			Blocks:           1 << 14,
			MaxObjects:       1 << 13,
			LogBytes:         8 << 20,
			TrackPersistence: true,
		}
		s, err := dstore.Format(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ctx := s.Init()
		val := make([]byte, 4096)
		for j := 0; j < 2000; j++ {
			if err := ctx.Put(fmt.Sprintf("key-%06d", j), val); err != nil {
				b.Fatal(err)
			}
		}
		s.PrepareWorstCaseCrash()
		var cerr error
		cfg.PMEM, cfg.SSD, cerr = s.Crash(int64(i))
		if cerr != nil {
			b.Fatal(cerr)
		}
		b.StartTimer()
		s2, err := dstore.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s2.Close()
	}
}
