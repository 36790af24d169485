package dstore_test

// End-to-end tests of the network service layer against a real store:
// concurrent workloads over loopback TCP, degraded mode surfaced to remote
// clients as a typed wire error while reads keep serving, graceful
// shutdown that checkpoints before exit, and pipelining that keeps GETs
// flowing while a PUT is stalled at an injected device fault.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dstore"
	"dstore/internal/client"
	"dstore/internal/fault"
	"dstore/internal/server"
	"dstore/internal/wire"
)

func netTestConfig() dstore.Config {
	return dstore.Config{
		Blocks:           2048,
		MaxObjects:       512,
		LogBytes:         1 << 18,
		TrackPersistence: true,
	}
}

// serveStore starts a wire server over st on a loopback listener.
func serveStore(t *testing.T, st *dstore.Store, opt dstore.ServeOptions) (string, *server.Server) {
	t.Helper()
	srv := st.NewNetServer(opt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	return ln.Addr().String(), srv
}

// serveBackend starts a wire server over an arbitrary backend (for tests
// that wrap the store's backend).
func serveBackend(t *testing.T, b server.Backend, cfg server.Config) (string, *server.Server) {
	t.Helper()
	srv := server.New(b, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	return ln.Addr().String(), srv
}

func shutdownServer(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestNetEndToEnd drives a concurrent mixed workload through the full
// stack — client pool, wire protocol, server, store — and verifies data,
// scan, stats, and health round trips.
func TestNetEndToEnd(t *testing.T) {
	st, err := dstore.Format(netTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr, srv := serveStore(t, st, dstore.ServeOptions{})
	defer shutdownServer(t, srv)

	c, err := client.Dial(client.Config{Addr: addr, Conns: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	const workers, rounds = 6, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("net/%d/%03d", w, i)
				val := bytes.Repeat([]byte{byte(w + 1)}, 100+i*13)
				if err := c.Put(ctx, key, val); err != nil {
					errs <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				got, err := c.Get(ctx, key)
				if err != nil || !bytes.Equal(got, val) {
					errs <- fmt.Errorf("get %s: %d bytes, %v", key, len(got), err)
					return
				}
				if i%5 == 4 {
					if err := c.Delete(ctx, key); err != nil {
						errs <- fmt.Errorf("delete %s: %w", key, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Each worker kept 20 of its 25 keys; prefix scans see exactly them.
	objs, err := c.Scan(ctx, "net/0/", 0)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(objs) != 20 {
		t.Fatalf("Scan net/0/: %d objects, want 20", len(objs))
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if want := uint64(workers * 20); stats.Objects != want {
		t.Fatalf("Stats.Objects = %d, want %d", stats.Objects, want)
	}
	if stats.Puts < workers*rounds || stats.ServerRequests == 0 || stats.ServerConns == 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
	h, err := c.Health(ctx)
	if err != nil || h.Degraded {
		t.Fatalf("Health: %+v, %v", h, err)
	}
	if _, err := c.Get(ctx, "net/0/004"); !errors.Is(err, dstore.ErrNotFound) {
		t.Fatalf("deleted key: %v, want ErrNotFound", err)
	}
}

// TestNetDegradedMode injects persistent PMEM write failures so the store
// enters degraded read-only mode, and asserts remote clients observe it as
// the typed ErrDegraded while committed objects stay readable over the
// wire — the paper's graceful-degradation contract, network edition.
func TestNetDegradedMode(t *testing.T) {
	st, err := dstore.Format(netTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr, srv := serveStore(t, st, dstore.ServeOptions{})
	defer shutdownServer(t, srv)

	c, err := client.Dial(client.Config{Addr: addr, Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	committed := map[string][]byte{}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("deg/%02d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 200+i*37)
		if err := c.Put(ctx, k, v); err != nil {
			t.Fatal(err)
		}
		committed[k] = v
	}

	// Every PMEM log append now fails, exhausting the bounded retries: the
	// next write degrades the store.
	pm, _ := st.Devices()
	pm.SetFaultPlan(fault.NewPlan(fault.Config{Seed: 7, WriteErrRate: 1}))

	err = c.Put(ctx, "victim", []byte("doomed"))
	if !errors.Is(err, dstore.ErrDegraded) {
		t.Fatalf("put into degraded store: %v, want ErrDegraded", err)
	}
	if err := c.Delete(ctx, "deg/00"); !errors.Is(err, dstore.ErrDegraded) {
		t.Fatalf("delete in degraded store: %v, want ErrDegraded", err)
	}
	// Reads keep serving every committed object.
	for k, v := range committed {
		got, err := c.Get(ctx, k)
		if err != nil {
			t.Fatalf("degraded Get(%s): %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("degraded Get(%s): wrong data", k)
		}
	}
	// And HEALTH reports the state with its reason, remotely.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if !h.Degraded || h.Reason == "" {
		t.Fatalf("remote health does not report degradation: %+v", h)
	}
}

// TestNetGracefulShutdown drains in-flight requests, checkpoints, and
// leaves a store that reopens cleanly with nothing to replay.
func TestNetGracefulShutdown(t *testing.T) {
	cfg := netTestConfig()
	st, err := dstore.Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := serveStore(t, st, dstore.ServeOptions{})

	c, err := client.Dial(client.Config{Addr: addr, Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	want := map[string][]byte{}
	for i := 0; i < 15; i++ {
		k := fmt.Sprintf("drain/%02d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 150+i*29)
		if err := c.Put(ctx, k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}

	before := st.Stats().Engine.Checkpoints
	shutdownServer(t, srv)
	if after := st.Stats().Engine.Checkpoints; after <= before {
		t.Fatalf("shutdown did not checkpoint: %d -> %d", before, after)
	}
	// New connections are refused after the drain.
	if _, err := client.Dial(client.Config{
		Addr: addr, DialTimeout: 200 * time.Millisecond, Attempts: 1,
	}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}

	// The shutdown checkpoint made the persistent state current: reopening
	// on the same devices replays nothing and passes fsck with every
	// object intact.
	if err := st.CloseNoCheckpoint(); err != nil {
		t.Fatal(err)
	}
	cfg.PMEM, cfg.SSD = st.Devices()
	re, err := dstore.Open(cfg)
	if err != nil {
		t.Fatalf("reopen after shutdown: %v", err)
	}
	defer re.Close()
	if n := re.Stats().Engine.RecordsReplayed; n != 0 {
		t.Fatalf("reopen replayed %d records after checkpointing shutdown", n)
	}
	if err := re.Check(); err != nil {
		t.Fatalf("fsck after shutdown+reopen: %v", err)
	}
	rctx := re.Init()
	defer rctx.Finalize()
	for k, v := range want {
		got, err := rctx.Get(k, nil)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("reopened Get(%s): %d bytes, %v", k, len(got), err)
		}
	}
}

// stallBackend wraps a store backend and blocks Put(stallKey) on a gate
// until released, signalling entry on started.
type stallBackend struct {
	server.Backend
	stallKey string
	started  chan struct{}
	gate     chan struct{}
}

func (b *stallBackend) Put(key string, value []byte) error {
	if key == b.stallKey {
		close(b.started)
		<-b.gate
	}
	return b.Backend.Put(key, value)
}

// TestNetPipelinedGetsNotBlockedByStalledPut is the head-of-line-blocking
// acceptance test: on a single connection, GETs pipelined behind a PUT that
// is stalled (and then retried through injected transient SSD faults) must
// complete while the PUT is still outstanding. Pipelined means written
// together: a PUT that reached an idle connection alone would run on the
// connection's reader, and what arrived after it would wait for that one op
// (internal/server's TestServerLoneRequestRunsOnReader pins that bound).
func TestNetPipelinedGetsNotBlockedByStalledPut(t *testing.T) {
	st, err := dstore.Format(netTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sb := &stallBackend{
		Backend:  st.NetBackend(),
		stallKey: "stalled",
		started:  make(chan struct{}),
		gate:     make(chan struct{}),
	}
	addr, srv := serveBackend(t, sb, server.Config{})
	defer shutdownServer(t, srv)

	c, err := client.Dial(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	for i := 0; i < 8; i++ {
		if err := c.Put(ctx, fmt.Sprintf("hot/%d", i), []byte("cached")); err != nil {
			t.Fatal(err)
		}
	}

	// One connection, one write: the PUT and the GETs share a single
	// pipelined stream, so ordered (head-of-line-blocked) handling would
	// stall the GETs too.
	pipe, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close() //nolint:errcheck
	frames, err := wire.AppendRequest(nil, &wire.Request{ID: 100, Op: wire.OpPut, Key: "stalled", Value: bytes.Repeat([]byte{0xAB}, 4096)})
	for i := 0; i < 8 && err == nil; i++ {
		frames, err = wire.AppendRequest(frames, &wire.Request{ID: uint64(i + 1), Op: wire.OpGet, Key: fmt.Sprintf("hot/%d", i)})
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Write(frames); err != nil {
		t.Fatal(err)
	}
	recv := func() wire.Response {
		t.Helper()
		pipe.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		payload, err := wire.ReadFrame(pipe, 0)
		if err != nil {
			t.Fatalf("pipelined response blocked behind the stalled PUT: %v", err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	<-sb.started // the PUT is in the backend, holding its window slot

	for i := 0; i < 8; i++ {
		if resp := recv(); resp.ID == 100 || resp.Status != wire.StatusOK || string(resp.Value) != "cached" {
			t.Fatalf("response %d while the PUT is stalled: %+v", i, resp)
		}
	}

	// While it is stalled (and with the GETs off the device), the SSD starts
	// failing its next writes transiently: when released, the PUT must retry
	// through real injected faults before completing.
	_, data := st.Devices()
	data.SetFaultPlan(fault.NewPlan(fault.Config{FailWriteAt: []uint64{1, 2}}))

	close(sb.gate)
	if resp := recv(); resp.ID != 100 || resp.Status != wire.StatusOK {
		t.Fatalf("released PUT: %+v", resp)
	}
	got, err := c.Get(ctx, "stalled")
	if err != nil || len(got) != 4096 {
		t.Fatalf("Get(stalled): %d bytes, %v", len(got), err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.IORetries == 0 {
		t.Fatalf("PUT did not exercise the injected-fault retry path: %+v", h)
	}

	// Protocol-level sanity on the same live server: a garbage frame on a
	// raw connection is dropped without disturbing the store.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("GET / HTTP/1.1\r\n\r\n")) //nolint:errcheck // fire-and-forget garbage
	raw.Close()                                 //nolint:errcheck
	if _, err := c.Get(ctx, "stalled"); err != nil {
		t.Fatalf("store disturbed by garbage connection: %v", err)
	}
}

// TestNetServeOptionsPropagate checks NewNetServer wires the options
// through (a tiny MaxScan is observable via SCAN truncation).
func TestNetServeOptionsPropagate(t *testing.T) {
	st, err := dstore.Format(netTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr, srv := serveStore(t, st, dstore.ServeOptions{MaxScan: 3})
	defer shutdownServer(t, srv)

	c, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := c.Put(ctx, fmt.Sprintf("cap/%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	objs, err := c.Scan(ctx, "cap/", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("MaxScan=3 returned %d objects", len(objs))
	}
	// An explicit lower limit also holds.
	objs, err = c.Scan(ctx, "cap/", 2)
	if err != nil || len(objs) != 2 {
		t.Fatalf("Scan limit 2: %d objects, %v", len(objs), err)
	}
}
