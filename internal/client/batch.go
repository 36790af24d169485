package client

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dstore"
	"dstore/internal/wire"
)

// This file is the client half of batched operations: explicit MPut / MGet /
// MDelete (one wire frame per wire.MaxBatch sub-ops instead of one per op)
// and a Batcher that transparently coalesces concurrent singleton calls into
// those frames. Error semantics are strictly per-sub-op: a failed sub-op
// fails only its own caller; batch-mates see their own verdicts. Only a
// frame-level failure (transport death after retries, a malformed frame) is
// shared by the sub-ops that rode that frame.

// MPut stores values[i] under keys[i] for every i, batching the puts into
// MPUT frames. It returns one verdict per sub-op: errs[i] is nil iff sub-op
// i was applied, and maps onto the same sentinels as singleton Put
// (dstore.ErrDegraded and friends). Sub-ops rejected with ErrNotMine (the
// routing ring moved mid-batch) are re-sent after a ring refresh, bounded by
// Config.Attempts, exactly like singleton retries.
func (c *Client) MPut(ctx context.Context, keys []string, values [][]byte) []error {
	if len(keys) != len(values) {
		errs := make([]error, len(keys))
		err := fmt.Errorf("client: mput: %d keys, %d values", len(keys), len(values))
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	_, errs := c.mdo(ctx, wire.OpMPut, keys, values)
	return errs
}

// MGet reads every key, batching the reads into MGET frames. vals[i] is
// valid iff errs[i] is nil; an absent key yields dstore.ErrNotFound for its
// own slot only.
func (c *Client) MGet(ctx context.Context, keys []string) ([][]byte, []error) {
	return c.mdo(ctx, wire.OpMGet, keys, nil)
}

// MDelete removes every key, batching the deletions into MDELETE frames.
func (c *Client) MDelete(ctx context.Context, keys []string) []error {
	_, errs := c.mdo(ctx, wire.OpMDelete, keys, nil)
	return errs
}

// mdo drives one logical batch: chunk into ≤ wire.MaxBatch frames, send each
// through the singleton retry engine (which handles transport retries and
// frame-level NOT_MINE with ring refresh), apply per-sub verdicts, and
// re-send just the NOT_MINE sub-ops after a ring refresh.
func (c *Client) mdo(ctx context.Context, op wire.Op, keys []string, values [][]byte) ([][]byte, []error) {
	n := len(keys)
	errs := make([]error, n)
	var vals [][]byte
	if op == wire.OpMGet {
		vals = make([][]byte, n)
	}
	if n == 0 {
		return vals, errs
	}
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	for attempt := 0; ; attempt++ {
		var stale []int
		for start := 0; start < len(pending); start += wire.MaxBatch {
			end := start + wire.MaxBatch
			end = min(end, len(pending))
			chunk := pending[start:end]
			subs := make([]wire.BatchSub, len(chunk))
			for j, i := range chunk {
				subs[j].Key = keys[i]
				if op == wire.OpMPut {
					subs[j].Value = values[i]
				}
			}
			resp, err := c.do(ctx, &wire.Request{Op: op, Subs: subs}, nil)
			if err != nil && !isPartial(err) {
				// Frame-level failure: every sub-op on this frame shares it.
				for _, i := range chunk {
					errs[i] = err
				}
				continue
			}
			if len(resp.Batch) != len(chunk) {
				err := fmt.Errorf("%w: batch response rows %d, want %d",
					wire.ErrMalformed, len(resp.Batch), len(chunk))
				for _, i := range chunk {
					errs[i] = err
				}
				continue
			}
			for j, i := range chunk {
				serr := subErr(&resp.Batch[j])
				errs[i] = serr
				if serr == nil {
					if op == wire.OpMGet {
						vals[i] = resp.Batch[j].Value
					}
					continue
				}
				if errors.Is(serr, dstore.ErrNotMine) && attempt < c.cfg.Attempts {
					stale = append(stale, i)
				}
			}
		}
		if len(stale) == 0 {
			return vals, errs
		}
		if rerr := c.refreshRing(ctx); rerr != nil {
			// The ErrNotMine verdicts are already in errs; surface them.
			return vals, errs
		}
		pending = stale
	}
}

// isPartial reports the mixed-verdict frame status, which is not an error at
// the frame level: the per-sub rows carry the real outcomes.
func isPartial(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Status == wire.StatusPartial
}

// subErr maps one batch row's status onto the store sentinels, reusing the
// singleton mapping so errors.Is behaves identically for batched and
// unbatched calls.
func subErr(r *wire.BatchResult) error {
	return statusErr(&wire.Response{Status: r.Status, Msg: r.Msg})
}

// ----------------------------------------------------------------- batcher

// Batcher transparently coalesces concurrent Put/Get/Delete calls into
// MPUT/MGET/MDELETE frames — the client-side mirror of the server's WAL
// group commit, using the same backpressure discipline. When no frame of an
// op kind is in flight, a call flushes immediately (a batch of one: nothing
// to wait for). While a frame is in flight, arrivals accumulate into the
// next frame, whose leader drains it the instant the slot frees. Batch size
// therefore adapts to load — idle callers pay no coalescing delay, loaded
// callers share frames sized by the round trip — with no timers and no
// background goroutine: whoever detaches a batch sends it. A frame carries
// up to wire.MaxBatch sub-ops.
//
// Error semantics are per-caller: each caller receives exactly its own
// sub-op's verdict. A frame-level transport failure is the only shared
// outcome, just as it is for pipelined singleton calls on one connection.
type Batcher struct {
	c *Client

	put opQueue
	get opQueue
	del opQueue
}

// maxInflight is how many leader-flushed frames of one op kind may be on the
// wire at once. One slot would couple consecutive frames head-to-tail — a
// single slow frame delays the whole next batch, so tail events cascade. Two
// slots break that chain while still applying enough backpressure for frames
// to coalesce. (Frames detached full bypass the gate entirely.)
const maxInflight = 3

// opQueue is the forming-batch state for one op kind. cur and inflight are
// guarded by mu; free is signaled whenever a flush slot clears or the
// forming batch is detached by a filler, so a parked leader re-checks.
type opQueue struct {
	mu       sync.Mutex
	free     *sync.Cond
	cur      *pendingBatch
	inflight int
}

// pendingBatch is one forming frame. The slices are guarded by the queue's
// mu until the batch is detached; results are written by the flusher before
// done is closed (the channel close publishes them).
type pendingBatch struct {
	keys []string
	vals [][]byte
	done chan struct{}
	out  [][]byte
	errs []error
}

// NewBatcher wraps c with an auto-coalescing batch layer.
func NewBatcher(c *Client) *Batcher {
	b := &Batcher{c: c}
	for _, q := range []*opQueue{&b.put, &b.get, &b.del} {
		q.free = sync.NewCond(&q.mu)
	}
	return b
}

// queue maps an op kind to its forming-batch state.
func (b *Batcher) queue(op wire.Op) *opQueue {
	switch op {
	case wire.OpMPut:
		return &b.put
	case wire.OpMGet:
		return &b.get
	default:
		return &b.del
	}
}

// Put stores value under key, riding a shared MPUT frame when concurrent
// callers allow.
func (b *Batcher) Put(ctx context.Context, key string, value []byte) error {
	_, err := b.submit(ctx, wire.OpMPut, key, value)
	return err
}

// Get reads key, riding a shared MGET frame when concurrent callers allow.
func (b *Batcher) Get(ctx context.Context, key string) ([]byte, error) {
	return b.submit(ctx, wire.OpMGet, key, nil)
}

// Delete removes key, riding a shared MDELETE frame when concurrent callers
// allow.
func (b *Batcher) Delete(ctx context.Context, key string) error {
	_, err := b.submit(ctx, wire.OpMDelete, key, nil)
	return err
}

// submit joins (or opens) the forming batch for op and waits for its own
// verdict.
func (b *Batcher) submit(ctx context.Context, op wire.Op, key string, value []byte) ([]byte, error) {
	q := b.queue(op)
	q.mu.Lock()
	pb := q.cur
	leader := pb == nil
	if leader {
		pb = &pendingBatch{done: make(chan struct{})}
		q.cur = pb
	}
	idx := len(pb.keys)
	pb.keys = append(pb.keys, key)
	if op == wire.OpMPut {
		pb.vals = append(pb.vals, value)
	}
	full := len(pb.keys) >= wire.MaxBatch
	if full {
		// A full frame bypasses the in-flight gate: pipelined connections
		// carry overlapping frames fine, and holding a full batch helps
		// nobody. This caller flushes; a new batch can form behind it.
		q.cur = nil
		q.free.Broadcast() // a parked leader re-checks and finds its batch gone
	}
	q.mu.Unlock()

	if full {
		b.flush(ctx, op, pb)
	} else if leader {
		b.lead(ctx, op, q, pb)
	}

	select {
	case <-pb.done:
	case <-ctx.Done():
		// Abandon our slot; the flusher still completes the frame for the
		// batch-mates (results for this slot are simply dropped).
		if !leader {
			return nil, ctx.Err()
		}
		// The leader cannot abandon: it may still be the only flusher.
		<-pb.done
	}
	if err := pb.errs[idx]; err != nil {
		return nil, err
	}
	if pb.out != nil {
		return pb.out[idx], nil
	}
	return nil, nil
}

// lead is the leader's side of the backpressure protocol: wait for the op
// kind's flush slot, then detach and send whatever accumulated behind it.
// When the slot is already free (idle path) the batch flushes immediately,
// so an uncontended call costs the same round trip a singleton would.
func (b *Batcher) lead(ctx context.Context, op wire.Op, q *opQueue, pb *pendingBatch) {
	q.mu.Lock()
	for q.inflight >= maxInflight && q.cur == pb {
		q.free.Wait()
	}
	if q.cur != pb {
		// A filler detached the batch while we were parked; it flushes.
		q.mu.Unlock()
		return
	}
	q.cur = nil
	q.inflight++
	q.mu.Unlock()

	b.flush(ctx, op, pb)

	q.mu.Lock()
	q.inflight--
	q.free.Broadcast()
	q.mu.Unlock()
}

// flush sends a detached batch and publishes per-sub verdicts via done.
func (b *Batcher) flush(ctx context.Context, op wire.Op, pb *pendingBatch) {
	switch op {
	case wire.OpMPut:
		pb.errs = b.c.MPut(ctx, pb.keys, pb.vals)
	case wire.OpMGet:
		pb.out, pb.errs = b.c.MGet(ctx, pb.keys)
	default:
		pb.errs = b.c.MDelete(ctx, pb.keys)
	}
	close(pb.done)
}
