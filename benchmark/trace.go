package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dstore"
	"dstore/internal/hist"
	"dstore/internal/server"
)

// The traced window records a span at every layer boundary the benchmark
// can reach from outside the program: around each call a load thread makes
// (the client call on the net workloads, the store call on the embedded
// ones), around each call the server makes into the store (a wrapper
// implementing server.Backend, handed to server.New), and around each
// checkpoint (rebuilt by polling the engine's counters). Spans inside the
// program are a later change.
const (
	spanStorePut = iota
	spanStoreGet
	spanClientPut
	spanClientGet
	spanClientMPut
	spanClientMGet
	spanBackendPut
	spanBackendGet
	spanBackendMPut
	spanBackendMGet
	spanCheckpoint
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"store.put", "store.get",
	"client.put", "client.get", "client.mput", "client.mget",
	"server.backend_put", "server.backend_get", "server.backend_mput", "server.backend_mget",
	"dipper.checkpoint",
}

// span is one fixed-size trace record. Times are ns since the tracer began.
type span struct {
	start, end int64
	// key is the FNV-1a of the op's (first) key: with time containment it
	// finds a server-side span's caller, since the wire carries no span id.
	key    uint64
	parent int32 // index of the causing span among the run's spans (finish), -1 for a root
	name   uint8
	thread int8 // load thread, or -1 for the server side and the checkpointer
}

func (sp span) dur() int64 { return sp.end - sp.start }

// pollEvery is how often the checkpoint poller reads the engine counters.
const pollEvery = 500 * time.Microsecond

// sampleEvery keeps one span in this many in the written trace, besides
// every span slower than a quarter of the workload's slow limit.
const sampleEvery = 64

type tracer struct {
	w     spec
	t0    time.Time
	hists [numSpanNames]hist.H

	// Server goroutines claim backend slots with an atomic cursor; spans
	// past the preallocated room are counted, not kept. recording gates
	// them to the measured window, or the warm-up would use up the room.
	backend   []span
	backendN  atomic.Int64
	recording atomic.Bool

	checkpoints []span
	stop        chan struct{}
	polled      sync.WaitGroup
}

func newTracer(w spec, expectOps int) *tracer {
	return &tracer{w: w, t0: time.Now(), backend: make([]span, clients*expectOps)}
}

func (tr *tracer) span(name uint8, thread int8, key uint64, start, end time.Time) span {
	sp := span{start: int64(start.Sub(tr.t0)), end: int64(end.Sub(tr.t0)), key: key, parent: -1, name: name, thread: thread}
	tr.hists[name].Record(sp.dur())
	return sp
}

// meanUs is the mean duration of the spans recorded under name, NaN when
// there were none.
func (tr *tracer) meanUs(name uint8) float64 {
	if tr.hists[name].Count() == 0 {
		return math.NaN()
	}
	return tr.hists[name].Mean() / 1e3
}

// tracedBackend is the benchmark's span-recording server.Backend and
// server.BatchBackend around the store's own.
type tracedBackend struct {
	server.Backend
	server.BatchBackend
	tr *tracer
}

// tracedRingBackend adds server.Ringer, so that the server's stale-epoch
// fence and OpRing keep working over a sharded store.
type tracedRingBackend struct {
	*tracedBackend
	server.Ringer
}

func (tr *tracer) wrapBackend(b server.Backend) server.Backend {
	tb := &tracedBackend{Backend: b, BatchBackend: b.(server.BatchBackend), tr: tr}
	if rg, ok := b.(server.Ringer); ok {
		return &tracedRingBackend{tracedBackend: tb, Ringer: rg}
	}
	return tb
}

func (b *tracedBackend) record(name uint8, key string, start time.Time) {
	if !b.tr.recording.Load() {
		return
	}
	sp := b.tr.span(name, -1, keyHash(key), start, time.Now())
	if i := b.tr.backendN.Add(1) - 1; int(i) < len(b.tr.backend) {
		b.tr.backend[i] = sp
	}
}

func (b *tracedBackend) Put(key string, value []byte) error {
	start := time.Now()
	err := b.Backend.Put(key, value)
	b.record(spanBackendPut, key, start)
	return err
}

func (b *tracedBackend) Get(key string) ([]byte, error) {
	start := time.Now()
	v, err := b.Backend.Get(key)
	b.record(spanBackendGet, key, start)
	return v, err
}

func (b *tracedBackend) MPut(epoch uint64, keys []string, values [][]byte) []error {
	start := time.Now()
	errs := b.BatchBackend.MPut(epoch, keys, values)
	b.record(spanBackendMPut, keys[0], start)
	return errs
}

func (b *tracedBackend) MGet(epoch uint64, keys []string) ([][]byte, []error) {
	start := time.Now()
	vals, errs := b.BatchBackend.MGet(epoch, keys)
	b.record(spanBackendMGet, keys[0], start)
	return vals, errs
}

// begin opens the traced window: backend spans are kept from now on and a
// poller rebuilds checkpoint intervals from the engines' counters, which
// advance by one checkpoint and its duration when a checkpoint ends.
func (tr *tracer) begin(engines []*dstore.Store) {
	tr.recording.Store(true)
	tr.stop = make(chan struct{})
	tr.polled.Add(1)
	go func() {
		defer tr.polled.Done()
		type seen struct{ n, ns uint64 }
		last := make([]seen, len(engines))
		for i, e := range engines {
			st := e.Engine().Stats()
			last[i] = seen{st.Checkpoints, st.CheckpointNanos}
		}
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-tr.stop:
				return
			case now := <-tick.C:
				for i, e := range engines {
					st := e.Engine().Stats()
					if st.Checkpoints == last[i].n {
						continue
					}
					took := time.Duration(st.CheckpointNanos - last[i].ns)
					last[i] = seen{st.Checkpoints, st.CheckpointNanos}
					tr.checkpoints = append(tr.checkpoints,
						tr.span(spanCheckpoint, -1, uint64(i), now.Add(-took), now))
				}
			}
		}
	}()
}

// end closes the traced window and waits for the poller.
func (tr *tracer) end() {
	tr.recording.Store(false)
	close(tr.stop)
	tr.polled.Wait()
}

// traceSummary is what the traced window yields beyond per-name means.
type traceSummary struct {
	slowOps        int
	slowInCkpt     int
	backendDropped int64
	file           string
}

// finish links every server-side span to the call that caused it, counts
// the slow calls that overlapped a checkpoint, and writes the slow and
// sampled spans to trace-<workload>.json in dir.
func (tr *tracer) finish(ts []*thread, dir string) (traceSummary, error) {
	var sum traceSummary
	kept := int(min(tr.backendN.Load(), int64(len(tr.backend))))
	sum.backendDropped = tr.backendN.Load() - int64(kept)
	backend := tr.backend[:kept]

	// A load thread's calls follow one another, so at most one span per
	// thread can contain a given instant: binary search finds it.
	var all []span
	base := make([]int, len(ts))
	for i, t := range ts {
		base[i] = len(all)
		all = append(all, t.spans...)
	}
	roots := len(all)
	children := make([]int64, roots) // ns of each call covered by its server-side spans
	for _, b := range backend {
		b.parent = -1
		for i, t := range ts {
			j := sort.Search(len(t.spans), func(j int) bool { return t.spans[j].start > b.start }) - 1
			if j >= 0 && t.spans[j].key == b.key && t.spans[j].end >= b.end {
				b.parent = int32(base[i] + j)
				children[b.parent] += b.dur()
				break
			}
		}
		all = append(all, b)
	}
	all = append(all, tr.checkpoints...)

	// Slow calls against checkpoint intervals.
	slowNs := int64(tr.w.SlowLimit)
	for _, sp := range all[:roots] {
		if sp.dur() <= slowNs {
			continue
		}
		sum.slowOps++
		for _, c := range tr.checkpoints {
			if sp.start < c.end && c.start < sp.end {
				sum.slowInCkpt++
				break
			}
		}
	}

	// The written trace: every checkpoint, every call over a quarter of the
	// slow limit, one call in sampleEvery, and the children of those.
	keepNs := slowNs / 4
	index := make([]int32, len(all)) // position in the written trace, -1 when dropped
	var out []traceSpan
	for i, sp := range all {
		index[i] = -1
		keep := sp.name == spanCheckpoint
		if i < roots {
			keep = sp.dur() > keepNs || i%sampleEvery == 0
		} else if sp.parent >= 0 {
			keep = index[sp.parent] >= 0
		} else if sp.name != spanCheckpoint {
			keep = sp.dur() > keepNs
		}
		if !keep {
			continue
		}
		index[i] = int32(len(out))
		rec := traceSpan{
			Name: spanNames[sp.name], Thread: int(sp.thread), Parent: -1,
			StartUs: float64(sp.start) / 1e3, EndUs: float64(sp.end) / 1e3, SelfUs: float64(sp.dur()) / 1e3,
		}
		if i < roots {
			rec.SelfUs = float64(sp.dur()-children[i]) / 1e3
		}
		if sp.parent >= 0 {
			rec.Parent = int(index[sp.parent])
		}
		out = append(out, rec)
	}

	file := traceFile{Workload: tr.w.Name, SlowLimitUs: float64(slowNs) / 1e3, KeepOverUs: float64(keepNs) / 1e3, SampleEvery: sampleEvery}
	for n := range tr.hists {
		h := &tr.hists[n]
		if h.Count() == 0 {
			continue
		}
		file.Names = append(file.Names, traceName{
			Name: spanNames[n], Count: h.Count(), MeanUs: h.Mean() / 1e3,
			P50Us: float64(h.Percentile(50)) / 1e3, P99Us: float64(h.Percentile(99)) / 1e3, MaxUs: float64(h.Max()) / 1e3,
		})
	}
	file.Spans = out
	data, err := json.Marshal(&file)
	if err != nil {
		return sum, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sum, err
	}
	sum.file = filepath.Join(dir, fmt.Sprintf("trace-%s.json", tr.w.Name))
	return sum, os.WriteFile(sum.file, append(data, '\n'), 0o644)
}

// traceFile is the layout of trace-<workload>.json (README.md says how to
// read it).
type traceFile struct {
	Workload    string      `json:"workload"`
	SlowLimitUs float64     `json:"slow_limit_us"`
	KeepOverUs  float64     `json:"keep_over_us"`
	SampleEvery int         `json:"sample_every"`
	Names       []traceName `json:"names"`
	Spans       []traceSpan `json:"spans"`
}

// traceName summarises every span recorded under one name, kept or not.
type traceName struct {
	Name   string  `json:"name"`
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

// traceSpan is one kept span. Parent indexes Spans (-1: a root); SelfUs is
// the span minus the part its children cover.
type traceSpan struct {
	Name    string  `json:"name"`
	Thread  int     `json:"thread"`
	Parent  int     `json:"parent"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	SelfUs  float64 `json:"self_us"`
}
