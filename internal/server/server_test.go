package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstore/internal/server"
	"dstore/internal/wire"
)

// fakeBackend is an in-memory Backend with hooks for stalling writes and
// observing concurrency, so the pipelining and backpressure properties can
// be tested deterministically without a real store.
type fakeBackend struct {
	mu   sync.Mutex
	m    map[string][]byte
	errs map[string]error // per-key injected errors

	putGate     chan struct{}            // when non-nil, Put blocks until closed
	keyGates    map[string]chan struct{} // Put of a listed key blocks until its gate closes
	inflight    atomic.Int64
	maxInflight atomic.Int64
	checkpoints atomic.Uint64
}

var errBackendNotFound = errors.New("fake: not found")

func newFake() *fakeBackend { return &fakeBackend{m: map[string][]byte{}} }

func (f *fakeBackend) track() func() {
	n := f.inflight.Add(1)
	for {
		m := f.maxInflight.Load()
		if n <= m || f.maxInflight.CompareAndSwap(m, n) {
			break
		}
	}
	return func() { f.inflight.Add(-1) }
}

func (f *fakeBackend) Put(key string, value []byte) error {
	defer f.track()()
	if f.putGate != nil {
		<-f.putGate
	}
	if g := f.keyGates[key]; g != nil {
		<-g
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.errs[key]; err != nil {
		return err
	}
	f.m[key] = append([]byte(nil), value...)
	return nil
}

func (f *fakeBackend) Get(key string) ([]byte, error) {
	defer f.track()()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.errs[key]; err != nil {
		return nil, err
	}
	v, ok := f.m[key]
	if !ok {
		return nil, errBackendNotFound
	}
	return append([]byte(nil), v...), nil
}

func (f *fakeBackend) Delete(key string) error {
	defer f.track()()
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.m[key]; !ok {
		return errBackendNotFound
	}
	delete(f.m, key)
	return nil
}

func (f *fakeBackend) Scan(prefix string, limit int) ([]wire.Object, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []wire.Object
	for k, v := range f.m {
		if len(out) >= limit {
			break
		}
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, wire.Object{Name: k, Size: uint64(len(v)), Blocks: 1})
		}
	}
	return out, nil
}

func (f *fakeBackend) Stats() wire.StatsReply {
	f.mu.Lock()
	defer f.mu.Unlock()
	return wire.StatsReply{ShardStat: wire.ShardStat{Objects: uint64(len(f.m))}}
}

func (f *fakeBackend) Health() wire.HealthReply { return wire.HealthReply{} }

func (f *fakeBackend) Checkpoint() error {
	f.checkpoints.Add(1)
	return nil
}

func (f *fakeBackend) ErrorStatus(err error) (wire.Status, string) {
	if errors.Is(err, errBackendNotFound) {
		return wire.StatusNotFound, ""
	}
	return wire.StatusInternal, err.Error()
}

// waitInflight waits until n operations are inside the backend.
func waitInflight(t *testing.T, f *fakeBackend, n int64) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); f.inflight.Load() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d operations in the backend, want %d", f.inflight.Load(), n)
		}
	}
}

// startServer runs srv on a loopback listener and returns its address.
func startServer(t *testing.T, srv *server.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
	})
	return ln.Addr().String()
}

// rawConn is a minimal test client speaking raw frames.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() }) //nolint:errcheck
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

// send writes reqs in one Write, so the server's reader finds them
// pipelined: with the first decoded the rest are already buffered.
func (r *rawConn) send(reqs ...*wire.Request) {
	r.t.Helper()
	var frames []byte
	for _, req := range reqs {
		var err error
		if frames, err = wire.AppendRequest(frames, req); err != nil {
			r.t.Fatal(err)
		}
	}
	if _, err := r.nc.Write(frames); err != nil {
		r.t.Fatalf("send: %v", err)
	}
}

func (r *rawConn) recv() wire.Response {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	payload, err := wire.ReadFrame(r.br, 0)
	if err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		r.t.Fatalf("decode: %v", err)
	}
	return resp
}

func TestServerBasicOps(t *testing.T) {
	fb := newFake()
	addr := startServer(t, server.New(fb, server.Config{}))
	c := dialRaw(t, addr)

	c.send(&wire.Request{ID: 1, Op: wire.OpPut, Key: "a", Value: []byte("va")})
	c.send(&wire.Request{ID: 2, Op: wire.OpPut, Key: "b", Value: []byte("vb")})
	for i := 0; i < 2; i++ {
		if resp := c.recv(); resp.Status != wire.StatusOK {
			t.Fatalf("put: %v %s", resp.Status, resp.Msg)
		}
	}
	c.send(&wire.Request{ID: 3, Op: wire.OpGet, Key: "a"})
	resp := c.recv()
	if resp.ID != 3 || resp.Status != wire.StatusOK || string(resp.Value) != "va" {
		t.Fatalf("get: %+v", resp)
	}
	c.send(&wire.Request{ID: 4, Op: wire.OpGet, Key: "missing"})
	if resp = c.recv(); resp.Status != wire.StatusNotFound {
		t.Fatalf("get missing: %v", resp.Status)
	}
	c.send(&wire.Request{ID: 5, Op: wire.OpScan, Key: "", Limit: 10})
	if resp = c.recv(); resp.Status != wire.StatusOK || len(resp.Objects) != 2 {
		t.Fatalf("scan: %+v", resp)
	}
	c.send(&wire.Request{ID: 6, Op: wire.OpDelete, Key: "b"})
	if resp = c.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("delete: %v", resp.Status)
	}
	c.send(&wire.Request{ID: 7, Op: wire.OpStats})
	resp = c.recv()
	if resp.Status != wire.StatusOK || resp.Stats == nil || resp.Stats.Objects != 1 {
		t.Fatalf("stats: %+v", resp)
	}
	if resp.Stats.ServerConns == 0 || resp.Stats.ServerRequests < 7 {
		t.Fatalf("server overlay counters missing: %+v", resp.Stats)
	}
	c.send(&wire.Request{ID: 8, Op: wire.OpHealth})
	if resp = c.recv(); resp.Status != wire.StatusOK || resp.Health == nil {
		t.Fatalf("health: %+v", resp)
	}
	c.send(&wire.Request{ID: 9, Op: wire.OpCheckpoint})
	if resp = c.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("checkpoint: %v", resp.Status)
	}
	if fb.checkpoints.Load() != 1 {
		t.Fatalf("checkpoints = %d", fb.checkpoints.Load())
	}
}

// Responses must ship in completion order, not request order: a stalled PUT
// at the head of the pipeline does not block the GETs queued behind it.
func TestServerOutOfOrderPipelining(t *testing.T) {
	fb := newFake()
	fb.m["hot"] = []byte("cached")
	gate := make(chan struct{})
	fb.putGate = gate
	addr := startServer(t, server.New(fb, server.Config{Window: 16}))
	c := dialRaw(t, addr)

	// One write: a PUT that arrived alone would run on the reader, and what
	// follows it onto the idle connection waits for it (see
	// TestServerLoneRequestRunsOnReader).
	const gets = 8
	reqs := []*wire.Request{{ID: 100, Op: wire.OpPut, Key: "slow", Value: []byte("x")}}
	for i := 1; i <= gets; i++ {
		reqs = append(reqs, &wire.Request{ID: uint64(i), Op: wire.OpGet, Key: "hot"})
	}
	c.send(reqs...)
	// All GET responses must arrive while the PUT is still gated.
	for i := 0; i < gets; i++ {
		resp := c.recv()
		if resp.ID == 100 {
			t.Fatal("PUT response arrived while stalled — gate broken?")
		}
		if resp.Status != wire.StatusOK || string(resp.Value) != "cached" {
			t.Fatalf("get resp: %+v", resp)
		}
	}
	close(gate)
	if resp := c.recv(); resp.ID != 100 || resp.Status != wire.StatusOK {
		t.Fatalf("put resp after release: %+v", resp)
	}
}

// A singleton that arrives alone runs on the connection's reader, which pins
// the head-of-line bound that buys: what reaches the idle connection next
// waits for that one op — and for nothing else, since what is pipelined
// behind it spawns and is answered out of order as ever.
func TestServerLoneRequestRunsOnReader(t *testing.T) {
	fb := newFake()
	fb.m["hot"] = []byte("cached")
	first, second := make(chan struct{}), make(chan struct{})
	fb.keyGates = map[string]chan struct{}{"first": first, "second": second}
	addr := startServer(t, server.New(fb, server.Config{}))
	c := dialRaw(t, addr)

	c.send(&wire.Request{ID: 1, Op: wire.OpPut, Key: "first", Value: []byte("x")})
	waitInflight(t, fb, 1) // the reader is inside it
	c.send(&wire.Request{ID: 2, Op: wire.OpPut, Key: "second", Value: []byte("y")},
		&wire.Request{ID: 3, Op: wire.OpGet, Key: "hot"})
	// Nobody reads the socket while the reader runs the first op: neither
	// frame reaches the backend, not even the GET.
	time.Sleep(50 * time.Millisecond)
	if n := fb.maxInflight.Load(); n != 1 {
		t.Fatalf("%d operations reached the backend behind a reader-run op, want it alone", n)
	}
	close(first)
	if resp := c.recv(); resp.ID != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("first response: %+v, want the reader-run PUT", resp)
	}
	// The two frames written together are pipelined: both spawn, and the GET
	// overtakes the PUT stalled in front of it.
	if resp := c.recv(); resp.ID != 3 || string(resp.Value) != "cached" {
		t.Fatalf("second response: %+v, want the GET pipelined behind the stalled PUT", resp)
	}
	close(second)
	if resp := c.recv(); resp.ID != 2 || resp.Status != wire.StatusOK {
		t.Fatalf("third response: %+v, want the released PUT", resp)
	}
}

// A malformed frame behind a reader-run op closes the connection exactly as
// behind a spawned one: one protocol error, nothing else disturbed.
func TestServerMalformedAfterLoneRequest(t *testing.T) {
	fb := newFake()
	fb.m["k"] = []byte("v")
	srv := server.New(fb, server.Config{})
	addr := startServer(t, srv)
	c := dialRaw(t, addr)
	c.send(&wire.Request{ID: 1, Op: wire.OpGet, Key: "k"})
	if resp := c.recv(); resp.ID != 1 || string(resp.Value) != "v" {
		t.Fatalf("get: %+v", resp)
	}
	if _, err := c.nc.Write(wire.AppendFrame(nil, []byte{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := wire.ReadFrame(c.br, 0); err == nil {
		t.Fatal("a frame came back for a malformed request")
	}
	if n := srv.Stats().ProtocolErrors; n != 1 {
		t.Fatalf("protocol errors = %d, want 1", n)
	}
}

// The in-flight window bounds backend concurrency per connection; excess
// pipelined requests wait in the socket, not in server memory. The frames go
// out in one write so the reader finds them pipelined and spawns up to the
// window; Window 1 is the same bound with nothing to spawn beside.
func TestServerWindowBackpressure(t *testing.T) {
	for _, tc := range []struct {
		window    int
		loneFirst bool // the first frame arrives alone and runs on the reader
	}{{4, false}, {1, false}, {1, true}} {
		window := tc.window
		t.Run(fmt.Sprintf("window=%d,loneFirst=%v", window, tc.loneFirst), func(t *testing.T) {
			fb := newFake()
			gate := make(chan struct{})
			fb.putGate = gate
			addr := startServer(t, server.New(fb, server.Config{Window: window}))
			c := dialRaw(t, addr)

			const total = 32
			reqs := make([]*wire.Request, total)
			for i := range reqs {
				reqs[i] = &wire.Request{ID: uint64(i + 1), Op: wire.OpPut, Key: fmt.Sprintf("k%d", i), Value: bytes.Repeat([]byte("v"), 512)}
			}
			if tc.loneFirst {
				c.send(reqs[0])
				waitInflight(t, fb, 1)
				reqs = reqs[1:]
			}
			c.send(reqs...)

			// Let requests pour in against the closed gate, then check the cap.
			deadline := time.Now().Add(2 * time.Second)
			for fb.inflight.Load() < int64(window) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := fb.inflight.Load(); got != int64(window) {
				t.Fatalf("backend concurrency %d against the closed gate, want the window %d", got, window)
			}
			time.Sleep(50 * time.Millisecond) // give any over-admission a chance to show
			close(gate)
			seen := map[uint64]bool{}
			for i := 0; i < total; i++ {
				resp := c.recv()
				if resp.Status != wire.StatusOK {
					t.Fatalf("put %d: %v %s", resp.ID, resp.Status, resp.Msg)
				}
				if seen[resp.ID] {
					t.Fatalf("duplicate response id %d", resp.ID)
				}
				seen[resp.ID] = true
			}
			if got := fb.maxInflight.Load(); got > int64(window) {
				t.Fatalf("backend concurrency %d exceeded window %d", got, window)
			}
		})
	}
}

// Malformed input — garbage, truncation, oversized frames, bad CRC — must
// drop that connection only; the server keeps serving others and never
// panics.
func TestServerSurvivesMalformedInput(t *testing.T) {
	fb := newFake()
	fb.m["k"] = []byte("v")
	// The short IdleTimeout also covers inputs the server cannot classify
	// until more bytes arrive (a truncated frame, a silent connection).
	srv := server.New(fb, server.Config{IdleTimeout: 100 * time.Millisecond})
	addr := startServer(t, srv)

	good, err := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpGet, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), good...)
	corrupted[len(corrupted)-1] ^= 0xff

	// A header announcing one byte more than the protocol's frame cap.
	oversized := make([]byte, wire.FrameHeader)
	binary.LittleEndian.PutUint32(oversized, wire.MaxFrame+1)

	// A structurally valid frame whose payload is not a request.
	junkPayload := wire.AppendFrame(nil, []byte{1, 2, 3})

	cases := map[string][]byte{
		"garbage":        []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
		"bad-crc":        corrupted,
		"oversized":      oversized,
		"truncated":      good[:len(good)-3],
		"short-payload":  junkPayload,
		"zero-op":        wire.AppendFrame(nil, make([]byte, 19)), // valid shape, op=0
		"empty-then-eof": {},
	}
	for name, input := range cases {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		if len(input) > 0 {
			if _, err := nc.Write(input); err != nil {
				t.Fatalf("%s: write: %v", name, err)
			}
		}
		// The server must close the connection (or answer BAD_REQUEST for
		// well-framed junk with a parseable request); either way the stream
		// ends without a hang.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		buf := make([]byte, 4096)
		for {
			if _, err := nc.Read(buf); err != nil {
				break
			}
		}
		nc.Close() //nolint:errcheck
	}

	// The server is still healthy for a fresh, well-behaved connection.
	c := dialRaw(t, addr)
	c.send(&wire.Request{ID: 9, Op: wire.OpGet, Key: "k"})
	if resp := c.recv(); resp.Status != wire.StatusOK || string(resp.Value) != "v" {
		t.Fatalf("post-abuse get: %+v", resp)
	}
	if srv.Stats().ProtocolErrors == 0 {
		t.Fatal("expected protocol errors to be counted")
	}
}

// A well-formed frame with an undefined opcode earns a typed BAD_REQUEST
// response (the stream itself is still trustworthy).
func TestServerUnknownOpcode(t *testing.T) {
	addr := startServer(t, server.New(newFake(), server.Config{}))
	c := dialRaw(t, addr)
	c.send(&wire.Request{ID: 42, Op: wire.Op(200), Key: "k"})
	resp := c.recv()
	if resp.ID != 42 || resp.Status != wire.StatusBadRequest {
		t.Fatalf("unknown opcode: %+v", resp)
	}
	// Connection remains usable.
	c.send(&wire.Request{ID: 43, Op: wire.OpPut, Key: "k", Value: []byte("v")})
	if resp := c.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("follow-up put: %+v", resp)
	}
}

func TestServerEmptyKeyRejected(t *testing.T) {
	addr := startServer(t, server.New(newFake(), server.Config{}))
	c := dialRaw(t, addr)
	for i, op := range []wire.Op{wire.OpPut, wire.OpGet, wire.OpDelete} {
		c.send(&wire.Request{ID: uint64(i), Op: op})
		if resp := c.recv(); resp.Status != wire.StatusBadRequest {
			t.Fatalf("%s with empty key: %v", op, resp.Status)
		}
	}
}

// MaxConns rejects excess connections immediately instead of queueing them.
func TestServerMaxConns(t *testing.T) {
	fb := newFake()
	fb.m["k"] = []byte("v")
	srv := server.New(fb, server.Config{MaxConns: 2})
	addr := startServer(t, srv)

	c1, c2 := dialRaw(t, addr), dialRaw(t, addr)
	c1.send(&wire.Request{ID: 1, Op: wire.OpGet, Key: "k"})
	c1.recv()
	c2.send(&wire.Request{ID: 1, Op: wire.OpGet, Key: "k"})
	c2.recv()

	// The third connection must be closed by the server.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()                                    //nolint:errcheck
	nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := nc.Read(make([]byte, 1)); err == nil { // EOF expected
		t.Fatal("over-limit connection was not closed")
	}
	if srv.Stats().Rejected == 0 {
		t.Fatal("expected a rejected-connection count")
	}
}

// Shutdown completes in-flight requests, flushes their responses, and
// checkpoints the backend; Serve returns ErrServerClosed. The one request
// here arrives alone, so the drain finds the reader itself inside the op:
// its response is written before the reader sees the drain.
func TestServerShutdownDrains(t *testing.T) {
	fb := newFake()
	gate := make(chan struct{})
	fb.putGate = gate
	srv := server.New(fb, server.Config{Window: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c := dialRaw(t, ln.Addr().String())
	c.send(&wire.Request{ID: 1, Op: wire.OpPut, Key: "inflight", Value: []byte("v")})

	// Wait until the request is actually in the backend.
	deadline := time.Now().Add(2 * time.Second)
	for fb.inflight.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fb.inflight.Load() == 0 {
		t.Fatal("put never reached the backend")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Give the drain a moment, then release the stalled PUT.
	time.Sleep(20 * time.Millisecond)
	close(gate)

	// The in-flight PUT's response must still be delivered.
	if resp := c.recv(); resp.ID != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("drained put response: %+v", resp)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if fb.checkpoints.Load() == 0 {
		t.Fatal("Shutdown did not checkpoint the backend")
	}
	if got := fb.m["inflight"]; string(got) != "v" {
		t.Fatalf("in-flight put not applied: %q", got)
	}
	// New connections are refused after shutdown.
	if nc, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		nc.Close() //nolint:errcheck
		t.Fatal("dial succeeded after shutdown")
	}
}
