package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"dstore"
	"dstore/internal/dipper"
	"dstore/internal/pmem"
	"dstore/internal/server"
	"dstore/internal/ssd"
	"dstore/internal/ycsb"
)

// options are the knobs of one run. The defaults are what BENCHMARK.json's
// command runs; the smoke test shrinks them.
type options struct {
	seed   int64
	window time.Duration
	warmup time.Duration
	trace  bool
	outDir string
	// setups is how many times the set-up (Format, preload, listen, dial)
	// runs; setup_s is their median and the last one is measured on.
	setups int
	// recoverCycles and fixedPuts shape the recovery phase.
	recoverCycles int
	fixedPuts     int
	// slice cuts the measured window: throughput, CPU per op and the
	// percentiles below the tail are quartiles over the slices.
	slice time.Duration
}

func defaultOptions() options {
	return options{
		seed: 1, window: 20 * time.Second, warmup: time.Second, outDir: ".bench_build/results",
		setups: 5, recoverCycles: 5, fixedPuts: 20000, slice: time.Second,
	}
}

// expectOps sizes the preallocated latency and span slices of one thread for
// a window of d, at a rate no workload reaches (400 kops/s over the threads).
func expectOps(d time.Duration) int {
	return int(d.Seconds()*400e3/clients) + 1024
}

// counters is one reading of every free counter the program exports, summed
// over the store's engines.
type counters struct {
	cpu    time.Duration
	stolen uint64
	pmem   pmem.Stats
	ssd    ssd.Stats
	engine dipper.Stats
	cache  dstore.CacheStats
	bd     dstore.Breakdown
	server server.Stats
	mem    runtime.MemStats
}

func (s *sut) read() counters {
	c := counters{cpu: cpuTime(), stolen: stolenTicks(), cache: s.api.CacheStats(), bd: s.api.Breakdown(), engine: s.api.Stats().Engine}
	for _, e := range s.engines {
		pm, sd := e.Devices()
		p, d := pm.Stats(), sd.Stats()
		c.pmem.BytesWritten += p.BytesWritten
		c.pmem.LinesFlushed += p.LinesFlushed
		c.pmem.Fences += p.Fences
		c.ssd.BytesWritten += d.BytesWritten
		c.ssd.BytesRead += d.BytesRead
	}
	if s.srv != nil {
		c.server = s.srv.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// window is what one measured window produced.
type window struct {
	elapsed       time.Duration
	before, after counters
	reads         []uint32 // sorted call latencies, ns
	updates       []uint32
	ops, failed   uint64 // logical operations
	slow          uint64 // calls over the slow limit, or failed
	userBytes     uint64 // value bytes the window's Puts carried
	slices        []slice
}

// slice is what one slice of the window saw: logical ops per second, CPU
// time per logical op, and the call-latency percentiles of the calls that
// finished in it.
type slice struct {
	Kops        float64 `json:"kops"`
	CPUUsPerOp  float64 `json:"cpu_us_per_op"`
	StealPct    float64 `json:"steal_pct"`
	ReadP50Us   float64 `json:"read_p50_us"`
	ReadP99Us   float64 `json:"read_p99_us"`
	UpdateP50Us float64 `json:"update_p50_us"`
	UpdateP99Us float64 `json:"update_p99_us"`
}

// cut splits the threads' samples at their slice marks.
func cut(ts []*thread, start counters, sliceLen time.Duration) []slice {
	n := len(ts[0].marks)
	for _, t := range ts[1:] {
		n = min(n, len(t.marks))
	}
	out := make([]slice, n)
	var reads, updates []uint32
	for k := range out {
		reads, updates = reads[:0], updates[:0]
		var ops uint64
		for _, t := range ts {
			var from mark
			if k > 0 {
				from = t.marks[k-1]
			}
			to := t.marks[k]
			reads = append(reads, t.readNs[from.reads:to.reads]...)
			updates = append(updates, t.updateNs[from.updates:to.updates]...)
			ops += to.ops - from.ops
		}
		cpu, stolen := ts[0].marks[k].cpu, ts[0].marks[k].stolen
		if k > 0 {
			cpu, stolen = cpu-ts[0].marks[k-1].cpu, stolen-ts[0].marks[k-1].stolen
		} else {
			cpu, stolen = cpu-start.cpu, stolen-start.stolen
		}
		slices.Sort(reads)
		slices.Sort(updates)
		pct := func(sorted []uint32, p float64) float64 { ns, _ := percentile(sorted, p); return finite(ns / 1e3) }
		out[k] = slice{
			Kops:       float64(ops) / sliceLen.Seconds() / 1e3,
			CPUUsPerOp: finite(ratio(float64(cpu)/1e3, float64(ops))),
			StealPct:   stealPct(stolen, sliceLen),
			ReadP50Us:  pct(reads, 50), ReadP99Us: pct(reads, 99),
			UpdateP50Us: pct(updates, 50), UpdateP99Us: pct(updates, 99),
		}
	}
	return out
}

// stealPct is the share of d's CPU time, over all CPUs, that stolen ticks
// (of 10 ms) are.
func stealPct(stolen uint64, d time.Duration) float64 {
	return 100 * float64(stolen) / (d.Seconds() * 100 * float64(runtime.NumCPU()))
}

// noteSteal records the window's steal in the fingerprint.
func (w *window) noteSteal(h *fingerprint) {
	h.StealPct = max(h.StealPct, stealPct(w.after.stolen-w.before.stolen, w.elapsed))
	h.CalibrationOK = h.CalibrationOK && h.StealPct <= maxStealPct
}

// quiet returns the slices in which the hypervisor took no more than
// maxStealPct of the CPU time for other guests: stolen seconds are not the
// program's. With fewer than five of them the window stands as it is.
func (w *window) quiet() []slice {
	var q []slice
	for _, sl := range w.slices {
		if sl.StealPct <= maxStealPct {
			q = append(q, sl)
		}
	}
	if len(q) < 5 {
		return w.slices
	}
	return q
}

func (w *window) calls() uint64 { return uint64(len(w.reads) + len(w.updates)) }

func (w *window) kops() float64 { return float64(w.ops) / w.elapsed.Seconds() / 1e3 }

// measure warms the store up and runs one measured window on it.
func measure(s *sut, ts []*thread, opt options, d time.Duration, tr *tracer) window {
	runtime.GC() // every window starts from a collected heap, whatever the set-up left
	drive(ts, opt.warmup, false)
	var w window
	if tr != nil {
		tr.begin(s.engines)
	}
	w.before = s.read()
	w.elapsed = drive(ts, d, true)
	w.after = s.read()
	if tr != nil {
		tr.end()
	}
	w.slices = cut(ts, w.before, opt.slice)
	for _, t := range ts {
		w.reads = append(w.reads, t.readNs...)
		w.updates = append(w.updates, t.updateNs...)
		w.ops += t.ops
		w.failed += t.failed
		w.slow += t.slow
		w.userBytes += t.userBytes
	}
	slices.Sort(w.reads)
	slices.Sort(w.updates)
	return w
}

// tally accumulates what a run attempted and what failed of it, across the
// window, the sweeps, the recovery checks and the durability check.
type tally struct{ attempted, failed uint64 }

func (t *tally) add(attempted, failed uint64) {
	t.attempted += attempted
	t.failed += failed
}

// runWorkload runs one workload once, untraced for the end-to-end metrics
// or traced for the per-layer ones, and verifies what the store returned.
func runWorkload(w spec, opt options) (*result, error) {
	cal := calibrate()
	res := &result{Workload: w.Name, Trace: opt.trace, Host: newFingerprint(opt, cal), Samples: map[string]int{}}
	var m metrics
	var t tally
	var err error
	if opt.trace {
		m, err = runTraced(w, opt, cal, res, &t)
	} else {
		m, err = runUntraced(w, opt, res, &t)
	}
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Host.GCCycles = ms.NumGC
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	if res.Metrics, err = m.render(defs); err != nil {
		return nil, err
	}
	for _, vs := range res.Info {
		for i := range vs {
			vs[i] = finite(vs[i])
		}
	}
	res.Attempted, res.Failed, res.Correct = t.attempted, t.failed, t.failed == 0
	return res, nil
}

// runUntraced takes the end-to-end metrics: durability check (emb_a),
// set-up, warm-up, window, sweep, recovery phase, sweep.
func runUntraced(w spec, opt options, res *result, t *tally) (metrics, error) {
	m := metrics{}
	if w.Name == "emb_a" {
		attempted, failed, err := durabilityCheck(opt.seed)
		if err != nil {
			return nil, fmt.Errorf("durability check: %w", err)
		}
		t.add(attempted, failed)
	}

	var s *sut
	var setups []float64
	for i := 0; i < opt.setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("set-up %d: close: %w", i, err)
			}
			s = nil
		}
		// Every set-up starts from a collected heap given back to the
		// system: they then cost the same, and peak_rss_mb does not count
		// the devices of the ones before.
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if s, err = format(w, nil); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	m["setup_s"] = median(setups)
	res.Info = map[string][]float64{"setup_s": setups}

	ts := newThreads(s, opt, nil, expectOps(opt.window))
	win := measure(s, ts, opt, opt.window, nil)
	t.add(win.ops, win.failed)
	win.noteSteal(&res.Host)
	if len(win.slices) == 0 {
		return nil, fmt.Errorf("the window of %v is shorter than one %v slice", opt.window, opt.slice)
	}
	endToEndMetrics(s, &win, m, res)
	res.Slices = win.slices

	checked, bad := s.sweep(ts, fixedState{})
	t.add(checked, bad)
	if err := s.stopServing(); err != nil {
		return nil, fmt.Errorf("stop serving: %w", err)
	}
	rec, err := s.recoverCycles(opt.recoverCycles, opt.fixedPuts)
	if err != nil {
		return nil, err
	}
	t.add(rec.checked, rec.bad)
	res.Info["recover_ms"] = []float64{rec.totalMs}
	res.Info["recover_ms_cycles"] = rec.cycles
	checked, bad = s.sweep(ts, rec.state)
	t.add(checked, bad)
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	m["peak_rss_mb"] = peakRSSMiB()
	return m, nil
}

// quietQuartile is the quartile of vs on its better side: the upper one where
// higher is better, the lower one where lower is (see thread.marks).
func quietQuartile(vs []float64, better string) float64 {
	if better == "higher" {
		return quantile(vs, 0.75)
	}
	return quantile(vs, 0.25)
}

// endToEndMetrics derives what the window says a user saw.
func endToEndMetrics(s *sut, win *window, m metrics, res *result) {
	quiet := win.quiet()
	for _, f := range []struct {
		name   string
		better string
		of     func(slice) float64
		calls  int     // timings behind a percentile, 0 for the rest
		beyond float64 // share of them beyond it
	}{
		{"throughput_kops", "higher", func(sl slice) float64 { return sl.Kops }, 0, 0},
		{"cpu_us_per_op", "lower", func(sl slice) float64 { return sl.CPUUsPerOp }, 0, 0},
		{"read_p50_us", "lower", func(sl slice) float64 { return sl.ReadP50Us }, len(win.reads), 0.5},
		{"read_p99_us", "lower", func(sl slice) float64 { return sl.ReadP99Us }, len(win.reads), 0.01},
		{"update_p50_us", "lower", func(sl slice) float64 { return sl.UpdateP50Us }, len(win.updates), 0.5},
		{"update_p99_us", "lower", func(sl slice) float64 { return sl.UpdateP99Us }, len(win.updates), 0.01},
	} {
		per := make([]float64, len(quiet))
		for i, sl := range quiet {
			per[i] = f.of(sl)
		}
		m[f.name] = quietQuartile(per, f.better)
		if f.calls > 0 {
			res.Samples[f.name] = f.calls
			if float64(f.calls)*f.beyond < 10 {
				res.Unsupported = append(res.Unsupported, f.name)
			}
		}
	}
	d := func(a, b uint64) float64 { return float64(b - a) }
	m["write_amp"] = ratio(d(win.before.pmem.BytesWritten, win.after.pmem.BytesWritten)+
		d(win.before.ssd.BytesWritten, win.after.ssd.BytesWritten), float64(win.userBytes))
	fp := s.api.Footprint()
	m["space_amp"] = float64(fp.DRAMBytes+fp.PMEMBytes+fp.SSDBytes) / float64(s.spec.Records*s.spec.ValueBytes)

	// Reported, not gated: the tail (like recover_ms) moves with the host
	// more than with the program (README.md), and the whole-window figures
	// show what the quartiles above leave out.
	slow, p9999, n := win.tail()
	res.Info["slow_ops_ppm"] = []float64{slow}
	res.Info["update_p9999_us"] = []float64{p9999}
	res.Info["update_p9999_samples"] = []float64{float64(n)}
	res.Info["window_throughput_kops"] = []float64{win.kops()}
	res.Info["window_cpu_us_per_op"] = []float64{ratio(float64(win.after.cpu-win.before.cpu)/1e3, float64(win.ops))}
}

// tail is the window's slow calls (over the workload's limit, or failed) per
// million calls, and the 99.99th percentile of its update calls with the
// number of update calls behind it.
func (w *window) tail() (slowPpm, updateP9999Us float64, updates int) {
	ns, _ := percentile(w.updates, 99.99)
	return ratio(float64(w.slow)*1e6, float64(w.calls())), ns / 1e3, len(w.updates)
}

// durabilityCheck is the crash test the embedded headline workload rests
// on: a small store with the PMEM crash model on takes seeded Puts and
// Deletes, loses every line it had not flushed, is reopened from what is
// left, and must hold every acknowledged write and pass its own fsck.
func durabilityCheck(seed int64) (attempted, failed uint64, err error) {
	const keys, ops, size = 256, 2000, 512
	cfg := dstore.Config{Blocks: 1024, MaxObjects: 512, MaxBlocksPerObject: 4, LogBytes: 1 << 20, TrackPersistence: true}
	st, err := dstore.Format(cfg)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	want := make([]uint64, keys) // last acknowledged version, 0 = absent
	c := st.NewContext()
	val := make([]byte, size)
	for i := 1; i <= ops; i++ {
		k := rng.Intn(keys)
		key := ycsb.Key(k)
		if want[k] != 0 && rng.Intn(4) == 0 {
			if err := c.Delete(key); err != nil {
				return 0, 0, fmt.Errorf("delete %s: %w", key, err)
			}
			want[k] = 0
			continue
		}
		stamp(val, key, 1, uint64(i))
		if err := c.Put(key, val); err != nil {
			return 0, 0, fmt.Errorf("put %s: %w", key, err)
		}
		want[k] = uint64(i)
	}
	c.Finalize()
	cfg.PMEM, cfg.SSD, err = st.Crash(seed)
	if err != nil {
		return 0, 0, fmt.Errorf("crash: %w", err)
	}
	st, err = dstore.Open(cfg)
	if err != nil {
		return keys, keys, nil // nothing acknowledged is readable
	}
	defer st.Close() //nolint:errcheck // the check is over; nothing more is written
	c = st.NewContext()
	defer c.Finalize()
	for k, v := range want {
		key := ycsb.Key(k)
		got, gerr := c.Get(key, nil)
		attempted++
		if v == 0 {
			if !errors.Is(gerr, dstore.ErrNotFound) {
				failed++
			}
			continue
		}
		if _, version, ok := check(got, key, size); gerr != nil || !ok || version != v {
			failed++
		}
	}
	attempted++
	if st.Check() != nil {
		failed++
	}
	return attempted, failed, nil
}
