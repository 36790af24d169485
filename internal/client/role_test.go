package client_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstore"
	"dstore/internal/client"
	"dstore/internal/fault"
	"dstore/internal/server"
	"dstore/internal/wire"
)

// The tests here are about the reader role: a connection has no goroutine of
// its own, so whichever caller finds nobody reading reads for all of them.

// jitterBackend delays a random share of its operations, so handlers on one
// connection finish — and the server answers — out of request order.
type jitterBackend struct{ *memBackend }

func jitter() {
	if rand.Intn(4) == 0 {
		time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
	}
}

func (b jitterBackend) Put(key string, value []byte) error {
	jitter()
	return b.memBackend.Put(key, value)
}
func (b jitterBackend) Get(key string) ([]byte, error) { jitter(); return b.memBackend.Get(key) }
func (b jitterBackend) Delete(key string) error        { jitter(); return b.memBackend.Delete(key) }

// Many callers over one connection, replies out of order: whoever holds the
// role routes the others' replies, every caller gets its own, none hangs.
// Half the callers bring a context that can be cancelled (the AfterFunc
// path), half one that cannot.
func TestReaderRoleRoutesEveryReply(t *testing.T) {
	srv := server.New(jitterBackend{newMemBackend()}, server.Config{})
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
	c := dialTest(t, ln.Addr().String(), 1)

	const callers, ops = 64, 2000
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			if w%2 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 2*time.Minute)
				defer cancel()
			}
			key := fmt.Sprintf("caller-%d", w)
			var want []byte
			for i := 0; i < ops; i++ {
				switch i % 4 {
				case 0, 2:
					want = []byte(fmt.Sprintf("%d/%d", w, i))
					if err := c.Put(ctx, key, want); err != nil {
						t.Errorf("caller %d op %d: put: %v", w, i, err)
						return
					}
				case 1:
					got, err := c.Get(ctx, key)
					if err != nil || string(got) != string(want) {
						t.Errorf("caller %d op %d: get %q, %v; want %q", w, i, got, err, want)
						return
					}
				case 3:
					if err := c.Delete(ctx, key); err != nil {
						t.Errorf("caller %d op %d: delete: %v", w, i, err)
						return
					}
					if _, err := c.Get(ctx, key); !errors.Is(err, dstore.ErrNotFound) {
						t.Errorf("caller %d op %d: get after delete: %v", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// scriptedServer is a one-connection peer the test drives frame by frame.
type scriptedServer struct {
	t        *testing.T
	ln       net.Listener
	accepted atomic.Int32
	conn     chan net.Conn
}

func newScriptedServer(t *testing.T) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{t: t, ln: ln, conn: make(chan net.Conn, 8)}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				close(s.conn)
				return
			}
			s.accepted.Add(1)
			s.conn <- nc
		}
	}()
	t.Cleanup(func() { ln.Close() }) //nolint:errcheck // test teardown
	return s
}

func (s *scriptedServer) addr() string { return s.ln.Addr().String() }

// next reads one request off nc.
func (s *scriptedServer) next(nc net.Conn) wire.Request {
	s.t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	payload, err := wire.ReadFrame(nc, 0)
	if err != nil {
		s.t.Fatalf("scripted server: read: %v", err)
	}
	req, err := wire.DecodeRequest(payload)
	if err != nil {
		s.t.Fatalf("scripted server: decode: %v", err)
	}
	return req
}

func reply(req wire.Request, value string) []byte {
	resp := wire.Response{ID: req.ID, Op: req.Op}
	if req.Op == wire.OpGet {
		resp.Value = []byte(value)
	}
	return wire.AppendResponse(nil, &resp)
}

// A caller whose context ends while it holds the role in the middle of a
// frame costs the call, not the connection: the frame's first half stays
// with the connection, the next reader finishes it, and nothing is re-dialed.
func TestReaderRoleSurvivesCancelMidFrame(t *testing.T) {
	s := newScriptedServer(t)
	c, err := client.Dial(client.Config{Addr: s.addr(), Conns: 1, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	nc := <-s.conn

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() { _, err := c.Get(ctxA, "a"); errA <- err }()
	reqA := s.next(nc)
	time.Sleep(20 * time.Millisecond) // A has written, so by now it holds the role

	type result struct {
		v   []byte
		err error
	}
	resB := make(chan result, 1)
	go func() { v, err := c.Get(context.Background(), "b"); resB <- result{v, err} }()
	reqB := s.next(nc)

	frameB := reply(reqB, "for-b")
	half := len(frameB) / 2
	if _, err := nc.Write(frameB[:half]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // A is inside the frame
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled reader: %v, want context.Canceled", err)
	}
	select {
	case r := <-resB:
		t.Fatalf("the parked call returned on half a frame: %q, %v", r.v, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	// The rest of B's frame, then the reply A no longer waits for, then a
	// third call's: B's arrives whole, A's is dropped, the stream stays in
	// step.
	if _, err := nc.Write(append(frameB[half:], reply(reqA, "for-a")...)); err != nil {
		t.Fatal(err)
	}
	if r := <-resB; r.err != nil || string(r.v) != "for-b" {
		t.Fatalf("parked call: %q, %v; want its own reply", r.v, r.err)
	}
	resC := make(chan result, 1)
	go func() { v, err := c.Get(context.Background(), "c"); resC <- result{v, err} }()
	if _, err := nc.Write(reply(s.next(nc), "for-c")); err != nil {
		t.Fatal(err)
	}
	if r := <-resC; r.err != nil || string(r.v) != "for-c" {
		t.Fatalf("call after the cancellation: %q, %v", r.v, r.err)
	}
	if n := s.accepted.Load(); n != 1 {
		t.Fatalf("%d connections dialed, want the one", n)
	}
}

// A deadline-only context (what KV makes) ends a read the same way: through
// the socket's read deadline, leaving the connection usable.
func TestReaderRoleDeadlineOnlyContext(t *testing.T) {
	s := newScriptedServer(t)
	c, err := client.Dial(client.Config{Addr: s.addr(), Conns: 1, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	kv := client.NewKV(c, 50*time.Millisecond)
	defer kv.Close() //nolint:errcheck
	nc := <-s.conn

	errA := make(chan error, 1)
	go func() { errA <- kv.Put("a", []byte("v")) }()
	reqA := s.next(nc)
	if err := <-errA; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unanswered put: %v, want context.DeadlineExceeded", err)
	}
	// The late reply is dropped; the next call is answered on the same
	// connection, its deadline armed afresh.
	done := make(chan error, 1)
	go func() { done <- kv.Put("b", []byte("v")) }()
	if _, err := nc.Write(append(reply(reqA, ""), reply(s.next(nc), "")...)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("put after a timed-out one: %v", err)
	}
	if n := s.accepted.Load(); n != 1 {
		t.Fatalf("%d connections dialed, want the one", n)
	}
}

// pending starts n calls against a peer that never answers and returns once
// the peer has all n requests: one caller reads, the rest are parked.
func pending(t *testing.T, s *scriptedServer, c *client.Client, nc net.Conn, n int) chan error {
	t.Helper()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errs <- c.Put(context.Background(), fmt.Sprintf("k%d", i), []byte("v")) }(i)
	}
	for i := 0; i < n; i++ {
		s.next(nc)
	}
	return errs
}

// The server dying fails every pending call — the reader and the parked —
// exactly once each, with a transient error.
func TestReaderRoleServerDeath(t *testing.T) {
	s := newScriptedServer(t)
	c, err := client.Dial(client.Config{Addr: s.addr(), Conns: 1, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	nc := <-s.conn
	const n = 16
	errs := pending(t, s, c, nc, n)
	nc.Close() //nolint:errcheck // the death
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !fault.IsTransient(err) {
				t.Fatalf("pending call failed with %v, want a transient error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d pending calls still hang after the server died", n-i, n)
		}
	}
	select {
	case err := <-errs:
		t.Fatalf("a call returned twice: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
}

// Close returns every call, reader and parked, and leaves no goroutine
// behind: there is no reader to join.
func TestReaderRoleClose(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newScriptedServer(t)
	c, err := client.Dial(client.Config{Addr: s.addr(), Conns: 1, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	nc := <-s.conn
	const n = 16
	errs := pending(t, s, c, nc, n)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, client.ErrClientClosed) && !fault.IsTransient(err) {
				t.Fatalf("call ended by Close with %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d calls still hang after Close", n-i, n)
		}
	}
	nc.Close()   //nolint:errcheck
	s.ln.Close() //nolint:errcheck
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines: %d before, %d after Close\n%s", base, now, buf[:runtime.Stack(buf, true)])
	}
}

// Two callers over two connections each find a quiet one: no call waits
// behind another's read. (With round-robin alone they shared a connection
// about half the time.)
func TestQuietConnectionFirst(t *testing.T) {
	s := newScriptedServer(t)
	c, err := client.Dial(client.Config{Addr: s.addr(), Conns: 2, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	// Requests from whichever connection they arrive on.
	type arrival struct {
		nc  net.Conn
		req wire.Request
	}
	arrivals := make(chan arrival)
	go func() {
		for nc := range s.conn {
			go func(nc net.Conn) {
				for {
					payload, err := wire.ReadFrame(nc, 0)
					if err != nil {
						return
					}
					req, err := wire.DecodeRequest(payload)
					if err != nil {
						return
					}
					arrivals <- arrival{nc, req}
				}
			}(nc)
		}
	}()
	next := func() arrival {
		select {
		case a := <-arrivals:
			return a
		case <-time.After(10 * time.Second):
			t.Fatal("no request arrived")
			panic("unreachable")
		}
	}

	errs := make(chan error, 1)
	put := func(key string) { errs <- c.Put(context.Background(), key, nil) }
	go put("held")
	held := next() // one call stays in flight on its connection …
	for i := 0; i < 6; i++ {
		// … so every later one takes the other, whatever its round-robin slot.
		go put("free")
		a := next()
		if a.nc == held.nc {
			t.Fatalf("call %d shares the busy connection while the other is quiet", i)
		}
		if _, err := a.nc.Write(reply(a.req, "")); err != nil {
			t.Fatal(err)
		}
		if err := <-errs; err != nil {
			t.Fatalf("put on the quiet connection: %v", err)
		}
	}
	if _, err := held.nc.Write(reply(held.req, "")); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("put on the busy connection: %v", err)
	}
}

// KV.Put's allocations, whole process (client, loopback server, backend): a
// per-call timer (context.WithTimeout: three) or reply channel (one) coming
// back shows here.
func TestKVPutAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race measure sync.Pool's random drops")
	}
	addr, _, _ := startServer(t)
	c := dialTest(t, addr, 1)
	kv := client.NewKV(c, 0)
	value := make([]byte, 4096)
	if err := kv.Put("k", value); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := kv.Put("k", value); err != nil {
			t.Fatal(err)
		}
	})
	// Today's four: the deadline context, the server's decoded key and its
	// response, the backend's copy of the value.
	if allocs > 4 {
		t.Fatalf("KV.Put: %v allocations per call, want at most 4", allocs)
	}
}
