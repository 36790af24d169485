package dstore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the store-side half of batched operations (DESIGN.md §14):
// MPut/MGet/MDelete apply a batch of independent sub-operations with
// per-sub-op verdicts. Each shard runs its group of a write batch as one pass
// of the write pipeline (write.go), each sub-op still its own record; reads
// fan out one sub-op at a time across the pool below.

// mopWorkers bounds the concurrency of one batch: the shard groups of a
// write batch, the sub-ops of a read batch. A variable, not a const: the
// crash-point sweep pins it to 1 so every PMEM mutation happens on the
// sweep's own goroutine and crash indices stay deterministic.
var mopWorkers = 4

// mopPool is a small set of long-lived helper goroutines that fan one
// batch's jobs out across appliers. The workers are persistent because
// spawning fresh goroutines per frame made the runtime grow (and discard)
// each worker's stack on every batch, over 10% of server CPU in profiles at
// high frame rates; warm workers keep their grown stacks across frames.
type mopPool struct {
	start sync.Once // lazy worker spawn on first fan-out
	halt  sync.Once
	jobs  chan *mopJob
	done  chan struct{}
}

// mopJob is one fan-out: a shared index counter drained cooperatively by
// the submitting goroutine and every helper that picked the job up.
type mopJob struct {
	next  atomic.Int64
	n     int
	apply func(i int)
	wg    sync.WaitGroup // one count per helper; settled before run returns
}

// drain applies indices until the counter runs out. It yields every few
// sub-ops: an applier burning through a long batch never blocks, and
// without an explicit yield everything else on the core — the other
// in-flight frame, conn readers — waits for the runtime's async
// preemption quantum, which shows up directly as a p9999 cliff. Yielding
// on every op costs measurable throughput, so the yield is amortized.
func (j *mopJob) drain() {
	for applied := 1; ; applied++ {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		j.apply(i)
		if applied%4 == 0 {
			runtime.Gosched()
		}
	}
}

// run applies n independent jobs with bounded concurrency. Each
// index is applied exactly once; apply must write only its own slot of any
// shared result slice. The caller always participates, so a busy — or
// already stopped — pool degrades to inline application, never to waiting.
func (p *mopPool) run(n int, apply func(i int)) {
	helpers := min(mopWorkers, n) - 1
	if helpers <= 0 {
		for i := 0; i < n; i++ {
			apply(i)
		}
		return
	}
	// If stop() won the init race, its Once claim leaves jobs nil and the
	// sends below fall through to their defaults: fully inline, still
	// correct.
	p.start.Do(func() {
		p.jobs = make(chan *mopJob)
		p.done = make(chan struct{})
		// The pool is shared by every connection's frames, so park more
		// workers than one job's helper cap: concurrent frames each still
		// get helpers.
		for w := 0; w < 2*mopWorkers; w++ {
			go p.worker()
		}
	})
	j := &mopJob{n: n, apply: apply}
	for h := 0; h < helpers; h++ {
		j.wg.Add(1)
		select {
		case p.jobs <- j: // a parked worker took it
		default: // pool busy or stopped: the caller covers this share
			j.wg.Done()
		}
	}
	j.drain()
	j.wg.Wait()
}

// worker parks on the job channel until stop.
func (p *mopPool) worker() {
	for {
		select {
		case j := <-p.jobs:
			j.drain()
			j.wg.Done()
		case <-p.done:
			return
		}
	}
}

// stop retires the workers. Safe if the pool never started, and fan-outs
// after stop still complete — inline on the calling goroutine.
func (p *mopPool) stop() {
	p.halt.Do(func() {
		p.start.Do(func() { p.done = make(chan struct{}) }) // nothing listening
		close(p.done)
	})
}

// MPut, MGet and MDelete on a bare store are the sharded ones over its ring
// of one. The epoch is dropped: a bare store has no routing ring for a
// caller to have fallen behind.
func (s *Store) MPut(_ uint64, keys []string, values [][]byte) []error {
	return s.self.MPut(0, keys, values)
}

func (s *Store) MGet(_ uint64, keys []string) ([][]byte, []error) { return s.self.MGet(0, keys) }

func (s *Store) MDelete(_ uint64, keys []string) []error { return s.self.MDelete(0, keys) }

// epochGuard fails a sub-op routed under a ring epoch the store has moved
// past: it would land under routing the client never saw, so it fails with
// ErrNotMine and the client re-routes it, exactly like a singleton op. A
// write batch is checked once, under opMu; a read batch sub-op by sub-op, so
// an AddShard landing mid-batch fails only the reads after it.
func (sh *Sharded) epochGuard(epoch uint64) error {
	if epoch == 0 {
		return nil
	}
	if cur := sh.RingEpoch(); cur != epoch {
		return fmt.Errorf("%w: batch routed at ring epoch %d, store at %d", ErrNotMine, epoch, cur)
	}
	return nil
}

// mwrite runs a write batch — puts of values, or deletes when values is nil
// — under opMu shared, so neither the ring nor a migration changes mid-batch;
// epoch is the ring epoch the caller routed under (0 skips the check). Each
// owning shard's keys, in issue order, are one job (ShardedCtx.routed); with
// mopWorkers = 1 the jobs run on the caller, in the order their shards' first
// keys were issued.
func (sh *Sharded) mwrite(epoch uint64, keys []string, values [][]byte) []error {
	sh.opMu.RLock() //nolint:lock-order // held shared across the batch so the epoch cannot flip mid-batch; the flip is the only writer
	defer sh.opMu.RUnlock()
	if err := sh.epochGuard(epoch); err != nil {
		return refuseAll(len(keys), err)
	}
	errs := make([]error, len(keys))
	var shards []int
	var idxs [][]int
	for j, k := range keys {
		o, g := sh.owner(k), 0
		for g < len(shards) && shards[g] != o {
			g++
		}
		if g == len(shards) {
			shards, idxs = append(shards, o), append(idxs, nil)
		}
		idxs[g] = append(idxs[g], j)
	}
	c := ShardedCtx{sh: sh}
	sh.mops.run(len(shards), func(g int) { c.routed(shards[g], keys, values, idxs[g], errs) })
	return errs
}

// writeBatch writes keys[j] for each j in js — puts of values, or deletes
// when values is nil — in one pipeline pass, each its own write set; errs[j]
// receives each verdict.
func (c *Ctx) writeBatch(keys []string, values [][]byte, js []int, errs []error) {
	var wbuf [1]*oneWrite
	var sbuf [1]*writeSet
	ws, sets := wbuf[:0], sbuf[:0]
	if len(js) > 1 {
		ws, sets = make([]*oneWrite, 0, len(js)), make([]*writeSet, 0, len(js))
	}
	for _, j := range js {
		w, err := c.s.userSet(keys[j], valueAt(values, j), values == nil, c.locks)
		if errs[j] = err; err == nil {
			ws, sets = append(ws, w), append(sets, &w.writeSet)
		}
	}
	c.s.write(sets)
	for _, j := range js {
		if errs[j] == nil {
			errs[j] = ws[0].err
			recycle(ws[0])
			ws = ws[1:]
		}
	}
}

// valueAt is the value a write batch gives keys[j]: nil for a delete batch.
func valueAt(values [][]byte, j int) []byte {
	if values == nil {
		return nil
	}
	return values[j]
}

// refuseAll is the verdict on a batch of n sub-ops refused whole: err, n times.
func refuseAll(n int, err error) []error {
	errs := make([]error, n)
	for j := range errs {
		errs[j] = err
	}
	return errs
}

// MPut applies the puts, one pipeline pass per shard. A batch whose values do
// not pair one to one with its keys is refused whole, before routing: mwrite
// reads nil values as MDelete's.
func (sh *Sharded) MPut(epoch uint64, keys []string, v [][]byte) []error {
	if len(v) != len(keys) {
		return refuseAll(len(keys), fmt.Errorf("dstore: MPut of %d keys with %d values", len(keys), len(v)))
	}
	return sh.mwrite(epoch, keys, v)
}

// MDelete removes the keys, one pipeline pass per shard.
func (sh *Sharded) MDelete(epoch uint64, keys []string) []error { return sh.mwrite(epoch, keys, nil) }

// MGet reads the keys with per-sub-op fan-out across the pool; vals[i] is
// valid iff errs[i] is nil. Every sub-op runs on its store's shared context.
func (sh *Sharded) MGet(epoch uint64, keys []string) ([][]byte, []error) {
	vals, errs := make([][]byte, len(keys)), make([]error, len(keys))
	c := ShardedCtx{sh: sh}
	sh.mops.run(len(keys), func(i int) {
		if errs[i] = sh.epochGuard(epoch); errs[i] == nil {
			vals[i], errs[i] = c.Get(keys[i], nil)
		}
	})
	return vals, errs
}
