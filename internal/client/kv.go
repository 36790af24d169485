package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dstore"
	"dstore/internal/kvapi"
	"dstore/internal/wire"
)

// KV adapts a Client to the kvapi.Store interface so the benchmark harness
// can drive a remote store through the same workload loops it uses for the
// embedded engines. Latencies recorded around KV calls are client-observed:
// they include framing, the network round trip, and server queueing.
//
// Each call is bounded by the timeout without a timer of its own: its context
// only carries the deadline, which the connection enforces with the socket's
// read deadline while the caller reads its reply. A caller parked behind
// another's read is held to that reader's deadline and then, taking over the
// read, to its own — one bound where callers share a timeout, as a KV's do.
type KV struct {
	c       *Client
	timeout time.Duration
	b       *Batcher // nil: singleton frames (NewKV); set by NewBatchedKV
}

// NewKV wraps c. timeout bounds each call (default 30s).
func NewKV(c *Client, timeout time.Duration) *KV {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &KV{c: c, timeout: timeout}
}

// NewBatchedKV wraps c like NewKV but routes Put/Get/Delete through an
// auto-coalescing Batcher, so concurrent workload threads share
// MPUT/MGET/MDELETE frames. Latencies recorded around its calls include the
// coalescing window — what a caller of the batched path actually observes.
func NewBatchedKV(c *Client, timeout time.Duration) *KV {
	kv := NewKV(c, timeout)
	kv.b = NewBatcher(c)
	return kv
}

// deadlineCtx is a context that is nothing but a deadline: no timer, no Done
// channel, no cancel to call.
type deadlineCtx struct {
	context.Context
	at time.Time
}

func (d deadlineCtx) Deadline() (time.Time, bool) { return d.at, true }

func within(timeout time.Duration) context.Context {
	return deadlineCtx{context.Background(), time.Now().Add(timeout)}
}

// Label identifies the engine in benchmark tables.
func (k *KV) Label() string { return "DStore (net)" }

// Put stores value under key.
func (k *KV) Put(key string, value []byte) error {
	ctx := within(k.timeout)
	if k.b != nil {
		return k.b.Put(ctx, key, value)
	}
	return k.c.Put(ctx, key, value)
}

// Get appends key's value to buf.
func (k *KV) Get(key string, buf []byte) ([]byte, error) {
	ctx := within(k.timeout)
	var err error
	if k.b != nil {
		var v []byte
		v, err = k.b.Get(ctx, key)
		buf = append(buf, v...)
	} else {
		// The value goes from the connection's read buffer into buf, once.
		_, err = k.c.do(ctx, &wire.Request{Op: wire.OpGet, Key: key}, &buf)
	}
	if err != nil {
		if errors.Is(err, dstore.ErrNotFound) {
			return buf, kvapi.ErrNotFound
		}
		return buf, fmt.Errorf("net get %q: %w", key, err)
	}
	return buf, nil
}

// Delete removes key.
func (k *KV) Delete(key string) error {
	ctx := within(k.timeout)
	if k.b != nil {
		return k.b.Delete(ctx, key)
	}
	return k.c.Delete(ctx, key)
}

// Close releases the underlying client's connections.
func (k *KV) Close() error { return k.c.Close() }

// MPut implements kvapi.BulkStore over MPUT frames; errors map per slot
// exactly like Put's.
func (k *KV) MPut(keys []string, values [][]byte) []error {
	return k.c.MPut(within(k.timeout), keys, values)
}

// MGet implements kvapi.BulkStore; absent keys yield kvapi.ErrNotFound in
// their own slots.
func (k *KV) MGet(keys []string) ([][]byte, []error) {
	vals, errs := k.c.MGet(within(k.timeout), keys)
	for i, err := range errs {
		if errors.Is(err, dstore.ErrNotFound) {
			errs[i] = kvapi.ErrNotFound
		}
	}
	return vals, errs
}

// MDelete implements kvapi.BulkStore.
func (k *KV) MDelete(keys []string) []error {
	return k.c.MDelete(within(k.timeout), keys)
}

// Begin implements kvapi.Transactor: one wire transaction session, pinned to
// a pooled connection for its lifetime.
func (k *KV) Begin() (kvapi.Txn, error) {
	t, err := k.c.BeginTxn(within(k.timeout))
	if err != nil {
		return nil, err
	}
	return netKVTxn{t: t, timeout: k.timeout}, nil
}

// netKVTxn adapts a wire transaction to kvapi.Txn, mapping the sentinels the
// harness matches on.
type netKVTxn struct {
	t       *Txn
	timeout time.Duration
}

func (x netKVTxn) Get(key string, buf []byte) ([]byte, error) {
	v, err := x.t.Get(within(x.timeout), key)
	if err != nil {
		if errors.Is(err, dstore.ErrNotFound) {
			return buf, kvapi.ErrNotFound
		}
		return buf, err
	}
	return append(buf, v...), nil
}

func (x netKVTxn) Put(key string, value []byte) error {
	return x.t.Put(within(x.timeout), key, value)
}

func (x netKVTxn) Delete(key string) error {
	return x.t.Delete(within(x.timeout), key)
}

func (x netKVTxn) Commit() error {
	err := x.t.Commit(within(x.timeout))
	if errors.Is(err, dstore.ErrTxnConflict) {
		return kvapi.ErrTxnConflict
	}
	return err
}

func (x netKVTxn) Abort() error {
	return x.t.Abort(within(x.timeout))
}

var _ kvapi.Store = (*KV)(nil)
var _ kvapi.Transactor = (*KV)(nil)
var _ kvapi.BulkStore = (*KV)(nil)
