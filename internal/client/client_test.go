package client_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dstore"
	"dstore/internal/client"
	"dstore/internal/fault"
	"dstore/internal/kvapi"
	"dstore/internal/server"
	"dstore/internal/wire"
)

// memBackend is a map-backed server.Backend for exercising the client
// without a real store.
type memBackend struct {
	mu       sync.Mutex
	objects  map[string][]byte // guarded by mu
	degraded bool              // guarded by mu
	ckpts    int               // guarded by mu
}

var errMemNotFound = errors.New("mem: not found")

func newMemBackend() *memBackend {
	return &memBackend{objects: make(map[string][]byte)}
}

func (b *memBackend) Put(key string, value []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.degraded {
		return errors.New("mem: degraded")
	}
	b.objects[key] = append([]byte(nil), value...)
	return nil
}

func (b *memBackend) Get(key string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.objects[key]
	if !ok {
		return nil, errMemNotFound
	}
	return append([]byte(nil), v...), nil
}

func (b *memBackend) Delete(key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.objects[key]; !ok {
		return errMemNotFound
	}
	delete(b.objects, key)
	return nil
}

func (b *memBackend) Scan(prefix string, limit int) ([]wire.Object, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []wire.Object
	for k, v := range b.objects {
		if strings.HasPrefix(k, prefix) && len(out) < limit {
			out = append(out, wire.Object{Name: k, Size: uint64(len(v)), Blocks: 1})
		}
	}
	return out, nil
}

func (b *memBackend) Stats() wire.StatsReply {
	b.mu.Lock()
	defer b.mu.Unlock()
	return wire.StatsReply{ShardStat: wire.ShardStat{Objects: uint64(len(b.objects))}}
}

func (b *memBackend) Health() wire.HealthReply {
	b.mu.Lock()
	defer b.mu.Unlock()
	return wire.HealthReply{ShardHealth: wire.ShardHealth{Degraded: b.degraded}}
}

func (b *memBackend) Checkpoint() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ckpts++
	return nil
}

func (b *memBackend) ErrorStatus(err error) (wire.Status, string) {
	switch {
	case errors.Is(err, errMemNotFound):
		return wire.StatusNotFound, ""
	case strings.Contains(err.Error(), "degraded"):
		return wire.StatusDegraded, err.Error()
	default:
		return wire.StatusInternal, err.Error()
	}
}

func (b *memBackend) setDegraded(v bool) {
	b.mu.Lock()
	b.degraded = v
	b.mu.Unlock()
}

// startServer serves a memBackend on a loopback listener and returns its
// address plus the backend for direct manipulation.
func startServer(t *testing.T) (string, *memBackend, *server.Server) {
	t.Helper()
	b := newMemBackend()
	srv := server.New(b, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // test teardown
	})
	return ln.Addr().String(), b, srv
}

func dialTest(t *testing.T, addr string, conns int) *client.Client {
	t.Helper()
	c, err := client.Dial(client.Config{Addr: addr, Conns: conns, Backoff: time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck // test teardown
	return c
}

func TestClientBasicOps(t *testing.T) {
	addr, _, _ := startServer(t)
	c := dialTest(t, addr, 2)
	ctx := context.Background()

	if err := c.Put(ctx, "obj/a", []byte("alpha")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := c.Put(ctx, "obj/b", []byte("beta")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := c.Get(ctx, "obj/a")
	if err != nil || string(v) != "alpha" {
		t.Fatalf("Get: %q, %v", v, err)
	}
	objs, err := c.Scan(ctx, "obj/", 0)
	if err != nil || len(objs) != 2 {
		t.Fatalf("Scan: %v objects, %v", objs, err)
	}
	st, err := c.Stats(ctx)
	if err != nil || st.Objects != 2 {
		t.Fatalf("Stats: %+v, %v", st, err)
	}
	h, err := c.Health(ctx)
	if err != nil || h.Degraded {
		t.Fatalf("Health: %+v, %v", h, err)
	}
	if err := c.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := c.Delete(ctx, "obj/a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get(ctx, "obj/a"); !errors.Is(err, dstore.ErrNotFound) {
		t.Fatalf("Get after delete: %v, want ErrNotFound", err)
	}
}

// Status codes map back onto the store's sentinel errors so remote and
// embedded callers share one error vocabulary.
func TestClientSentinelMapping(t *testing.T) {
	addr, b, _ := startServer(t)
	c := dialTest(t, addr, 1)
	ctx := context.Background()

	if _, err := c.Get(ctx, "missing"); !errors.Is(err, dstore.ErrNotFound) {
		t.Fatalf("missing key: %v, want ErrNotFound", err)
	}
	b.setDegraded(true)
	if err := c.Put(ctx, "k", []byte("v")); !errors.Is(err, dstore.ErrDegraded) {
		t.Fatalf("degraded put: %v, want ErrDegraded", err)
	}
	if err := c.Put(ctx, "", []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	} else {
		var se *client.ServerError
		if !errors.As(err, &se) || se.Status != wire.StatusBadRequest {
			t.Fatalf("empty key: %v, want StatusBadRequest ServerError", err)
		}
	}
}

// Concurrent calls pipeline over the shared pool without cross-talk.
func TestClientConcurrent(t *testing.T) {
	addr, _, _ := startServer(t)
	c := dialTest(t, addr, 2)
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				key := "w/" + string(rune('a'+i))
				val := []byte{byte(i), byte(j)}
				if err := c.Put(ctx, key, val); err != nil {
					errs <- err
					return
				}
				got, err := c.Get(ctx, key)
				if err != nil {
					errs <- err
					return
				}
				if got[0] != byte(i) {
					errs <- errors.New("cross-talk: wrong writer byte")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A dropped connection fails in-flight calls with a transient error and the
// pool re-dials transparently on the next attempt.
func TestClientReconnect(t *testing.T) {
	addr, _, srv := startServer(t)
	c := dialTest(t, addr, 1)
	ctx := context.Background()

	if err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	srv.CloseConns()
	// The retry loop should absorb the broken connection: first attempt may
	// fail transiently, the re-dial succeeds.
	if _, err := c.Get(ctx, "k"); err != nil {
		t.Fatalf("Get after conn drop: %v", err)
	}
}

// Transport errors carry the fault package's transient class so callers can
// classify them with fault.IsTransient.
func TestClientTransientClassification(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck // freeing the port is the point
	_, err = client.Dial(client.Config{Addr: addr, DialTimeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if !fault.IsTransient(err) {
		t.Fatalf("dial error not transient: %v", err)
	}
}

func TestClientContextCancel(t *testing.T) {
	addr, _, _ := startServer(t)
	c := dialTest(t, addr, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Put(ctx, "k", []byte("v")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled put: %v, want context.Canceled", err)
	}
	// The connection stays healthy for later calls.
	if err := c.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatalf("put after cancel: %v", err)
	}
}

func TestClientClosed(t *testing.T) {
	addr, _, _ := startServer(t)
	c := dialTest(t, addr, 1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), "k", nil); !errors.Is(err, client.ErrClientClosed) {
		t.Fatalf("put on closed client: %v, want ErrClientClosed", err)
	}
}

// The KV adapter satisfies kvapi.Store semantics (ErrNotFound mapping,
// buffer append) so the bench harness can drive the network path.
func TestClientKVAdapter(t *testing.T) {
	addr, _, _ := startServer(t)
	c := dialTest(t, addr, 1)
	kv := client.NewKV(c, time.Second)

	if kv.Label() == "" {
		t.Fatal("empty label")
	}
	if err := kv.Put("k", []byte("value")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	buf := []byte("prefix-")
	got, err := kv.Get("k", buf)
	if err != nil || string(got) != "prefix-value" {
		t.Fatalf("Get: %q, %v", got, err)
	}
	if _, err := kv.Get("missing", nil); !errors.Is(err, kvapi.ErrNotFound) {
		t.Fatalf("missing: %v, want kvapi.ErrNotFound", err)
	}
	if err := kv.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
}

// A request is encoded into its connection's recycled buffer, so what a round
// trip allocates does not depend on how many bytes the frame carries.
// (Encoding from a nil slice grew an MPUT frame by doublings, one allocation
// each: 32 sub-ops of 1 KiB cost half a dozen more than 32 of one byte.) The
// count covers the whole process — client, loopback server and backend —
// which handle 32 sub-ops of either size with the same number of allocations.
func TestRequestEncodeDoesNotAllocatePerSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race measure sync.Pool's random drops")
	}
	addr, _, _ := startServer(t)
	c := dialTest(t, addr, 1)
	ctx := context.Background()
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = "k" + string(rune('a'+i))
	}
	mput := func(size int) float64 {
		values := make([][]byte, len(keys))
		for i := range values {
			values[i] = make([]byte, size)
		}
		return testing.AllocsPerRun(100, func() {
			for _, err := range c.MPut(ctx, keys, values) {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	mput(1024) // the connection's buffer has grown to the larger frame
	if small, large := mput(1), mput(1024); large > small {
		t.Fatalf("an MPUT of 1 KiB values allocates %v times per round trip, one of 1-byte values %v: the frame is not built in a recycled buffer", large, small)
	}
}
