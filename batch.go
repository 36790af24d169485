package dstore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the store-side half of batched operations (DESIGN.md §14):
// MPut/MGet/MDelete apply a batch of independent sub-operations with
// per-sub-op verdicts. The point of the fan-out below is to feed the WAL
// group-commit layer — sub-operations applied concurrently park on one
// batch leader and share a single flush+fence — so a batch of N writes
// costs far fewer fences than N singleton writes.

// mopWorkers is the per-shard apply concurrency for one batch: enough
// concurrent committers to let WAL group commit amortize the fence, small
// enough that a single batch cannot monopolize a shard. A variable, not a
// const: the crash-point sweep pins it to 1 so every PMEM mutation happens
// on the sweep's own goroutine and crash indices stay deterministic.
var mopWorkers = 4

// mopPool is a small set of long-lived helper goroutines that fan one
// batch's sub-operations out across appliers. The workers are persistent
// for a reason beyond tidiness: spawning fresh goroutines per frame made
// the runtime grow (and discard) each worker's stack on every batch, and at
// high frame rates that stack churn was over 10% of server CPU in profiles.
// Warm workers keep their grown stacks across frames.
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

// run applies n independent sub-operations with bounded concurrency. Each
// index is applied exactly once; apply must write only its own slot of any
// shared result slice. The caller always participates, so a busy — or
// already stopped — pool degrades to inline application, never to waiting.
func (p *mopPool) run(n int, apply func(i int)) {
	helpers := mopWorkers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
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
		// get helpers, which keeps enough committers in flight for the WAL
		// group-commit leader to merge fences across frames.
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
// past. Batches are not atomic with respect to resharding: an AddShard can
// land mid-batch, and every sub-op applied after the flip would land under
// routing the client never saw — so those sub-ops fail with ErrNotMine and
// the client re-routes just them, exactly like singleton ops.
func (sh *Sharded) epochGuard(epoch uint64) error {
	if epoch == 0 {
		return nil
	}
	if cur := sh.RingEpoch(); cur != epoch {
		return fmt.Errorf("%w: batch routed at ring epoch %d, store at %d", ErrNotMine, epoch, cur)
	}
	return nil
}

// mrun fans a batch's sub-ops across the pool. Indices are reordered so
// runs owned by the same shard are adjacent — appliers pulling consecutive
// indices land on one shard together, keeping that shard's group-commit
// leader fed. The shared context is safe here: Put/Get/Delete keep no
// per-call state (see Context).
func (sh *Sharded) mrun(epoch uint64, keys []string, apply func(c Context, i int) error) []error {
	errs := make([]error, len(keys))
	c := sh.Init()
	defer c.Finalize()
	groups := make(map[int][]int, len(sh.stores()))
	for i, k := range keys {
		o := sh.owner(k)
		groups[o] = append(groups[o], i)
	}
	flat := make([]int, 0, len(keys))
	for _, idxs := range groups {
		flat = append(flat, idxs...)
	}
	sh.mops.run(len(flat), func(j int) {
		i := flat[j]
		if err := sh.epochGuard(epoch); err != nil {
			errs[i] = err
			return
		}
		errs[i] = apply(c, i)
	})
	return errs
}

// MPut applies the puts with per-shard fan-out; epoch is the ring epoch the
// caller routed under (0 skips the check).
func (sh *Sharded) MPut(epoch uint64, keys []string, values [][]byte) []error {
	return sh.mrun(epoch, keys, func(c Context, i int) error {
		return c.Put(keys[i], values[i])
	})
}

// MGet reads the keys with per-shard fan-out; vals[i] is valid iff errs[i]
// is nil.
func (sh *Sharded) MGet(epoch uint64, keys []string) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := sh.mrun(epoch, keys, func(c Context, i int) error {
		v, err := c.Get(keys[i], nil)
		vals[i] = v
		return err
	})
	return vals, errs
}

// MDelete removes the keys with per-shard fan-out.
func (sh *Sharded) MDelete(epoch uint64, keys []string) []error {
	return sh.mrun(epoch, keys, func(c Context, i int) error {
		return c.Delete(keys[i])
	})
}
