package server_test

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"dstore/internal/client"
	"dstore/internal/replica"
	"dstore/internal/server"
	"dstore/internal/wire"
)

// memApplier is a minimal replica.Applier for the leak test.
type memApplier struct {
	mu      sync.Mutex
	applied uint64
}

func (a *memApplier) ApplyReplicated(rec wire.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if rec.LSN == a.applied+1 {
		a.applied = rec.LSN
	}
	return nil
}

func (a *memApplier) AppliedLSN() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

// waitGoroutines polls until the process goroutine count drops to max or
// the timeout expires, returning the final count.
func waitGoroutines(max int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	n := runtime.NumGoroutine()
	for n > max && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestGoroutineStabilization is the runtime twin of the goroutine-lifecycle
// checker: it drives every goroutine-spawning path in the server, client,
// and replica layers — pipelined client traffic, a well-behaved replication
// subscriber, a subscriber that dies mid-stream, and a standby stuck in its
// resubscribe loop against a dead address — then tears everything down and
// requires the process goroutine count to return to its baseline. A leak on
// any error path shows up here as a count that never settles.
func TestGoroutineStabilization(t *testing.T) {
	base := runtime.NumGoroutine()

	fr := newFakeRepl()
	fr.appendRecs(32)
	srv := server.New(fr, server.Config{ReplicaPoll: time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	// Client traffic across the pool: sequential calls find a quiet connection
	// and run on the server conn's reader, the concurrent ones spawn handlers.
	// Neither side has any other goroutine to leave behind — the client's
	// callers read their own replies, the server's responders write their own.
	cl, err := client.Dial(client.Config{Addr: addr, Conns: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("leak-%d", i)
		if err := cl.Put(ctx, key, []byte("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
		if _, err := cl.Get(ctx, key); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				if _, err := cl.Get(ctx, fmt.Sprintf("leak-%d", i)); err != nil {
					t.Errorf("concurrent get: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	// A well-behaved subscriber: tail the whole committed log, then stop.
	ap := &memApplier{}
	st, err := replica.Start(replica.Config{Addr: addr, Store: ap, AckEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ap.AppliedLSN() < 32; {
		if time.Now().After(deadline) {
			t.Fatalf("standby applied %d/32 records", ap.AppliedLSN())
		}
		time.Sleep(time.Millisecond)
	}
	if err := st.Stop(); err != nil {
		t.Fatalf("standby stop: %v", err)
	}

	// A subscriber that dies mid-stream: the server's feed goroutine must
	// notice the dead peer and exit rather than park forever.
	rc := dialRaw(t, addr)
	sub := wire.ReplicateRequest(1, 0)
	rc.send(&sub)
	if resp := rc.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("subscribe: %v %s", resp.Status, resp.Msg)
	}
	if _, err := wire.ReadFrame(rc.br, 0); err != nil {
		t.Fatalf("first record: %v", err)
	}
	rc.nc.Close() //nolint:errcheck // abrupt subscriber death is the point

	if err := cl.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case <-serveDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}

	// A standby against a dead address spins in its resubscribe loop; Stop
	// must still terminate it promptly.
	st2, err := replica.Start(replica.Config{
		Addr: addr, Store: &memApplier{},
		RetryBackoff: time.Millisecond, DialTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let it fail a few dials
	st2.Stop()                        //nolint:errcheck // terminal dial error is expected

	// Everything torn down: the goroutine count must return to baseline
	// (+2 slack for runtime bookkeeping churn).
	if n := waitGoroutines(base+2, 5*time.Second); n > base+2 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines did not stabilize: base %d, now %d\n%s",
			base, n, buf[:runtime.Stack(buf, true)])
	}
}
