package dstore_test

// End-to-end remote replication: a standby process tails a primary
// dstore-server over the real TCP stack (internal/replica), the primary
// drains gracefully, and the promoted standby serves the identical key
// space and accepts writes — the out-of-process mirror of the in-process
// ReplicatedShard failover path.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dstore"
	"dstore/internal/client"
	"dstore/internal/replica"
)

// waitApplied blocks until the standby has applied through the primary's
// current last LSN.
func waitApplied(t *testing.T, primary, sb *dstore.Store) {
	t.Helper()
	target := primary.LastLSN()
	deadline := time.Now().Add(10 * time.Second)
	for sb.AppliedLSN() < target && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sb.AppliedLSN(); got < target {
		t.Fatalf("standby applied LSN %d never reached primary LSN %d", got, target)
	}
}

func TestNetReplicationFailover(t *testing.T) {
	primary, err := dstore.Format(netTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close() //nolint:errcheck // teardown
	addr, srv := serveStore(t, primary, dstore.ServeOptions{})

	sb, err := dstore.Format(netTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close() //nolint:errcheck // teardown
	sb.BeginStandby()
	tailer, err := replica.Start(replica.Config{Addr: addr, Store: sb})
	if err != nil {
		t.Fatal(err)
	}

	// A randomized write mix through the primary server, mirrored into a
	// shadow model.
	cl, err := client.Dial(client.Config{Addr: addr, Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(11))
	shadow := map[string][]byte{}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("net-%03d", rng.Intn(90))
		if rng.Intn(8) == 0 {
			if err := cl.Delete(ctx, k); err != nil && err != dstore.ErrNotFound {
				t.Fatalf("Delete(%s): %v", k, err)
			}
			delete(shadow, k)
			continue
		}
		v := make([]byte, 100+rng.Intn(900))
		rng.Read(v)
		if err := cl.Put(ctx, k, v); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
		shadow[k] = v
	}
	waitApplied(t, primary, sb)
	if got := srv.Stats().ReplSubscribers; got != 1 {
		t.Fatalf("primary ReplSubscribers = %d, want 1", got)
	}
	if st := tailer.Stats(); st.Applied == 0 || st.Resubscribes != 1 {
		t.Fatalf("tailer stats: %+v", st)
	}
	cl.Close() //nolint:errcheck // primary is going away

	// The primary drains: the feed must flush the committed tail before the
	// connection closes, so the standby is exactly caught up.
	shutdownServer(t, srv)
	waitApplied(t, primary, sb)
	if err := tailer.Stop(); err != nil {
		t.Fatalf("tailer.Stop: %v", err)
	}
	if err := sb.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}

	// The promoted standby serves the byte-identical key space over the
	// wire and accepts writes.
	addr2, srv2 := serveStore(t, sb, dstore.ServeOptions{})
	defer shutdownServer(t, srv2)
	cl2, err := client.Dial(client.Config{Addr: addr2, Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close() //nolint:errcheck // teardown
	for k, v := range shadow {
		got, err := cl2.Get(ctx, k)
		if err != nil {
			t.Fatalf("promoted Get(%s): %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("promoted Get(%s): not byte-identical", k)
		}
	}
	objs, err := cl2.Scan(ctx, "", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != len(shadow) {
		t.Fatalf("promoted Scan: %d objects, want %d", len(objs), len(shadow))
	}
	for _, o := range objs {
		if _, ok := shadow[o.Name]; !ok {
			t.Fatalf("promoted Scan: unexpected object %q", o.Name)
		}
	}
	if err := cl2.Put(ctx, "post-promote", []byte("writable")); err != nil {
		t.Fatalf("write to promoted standby: %v", err)
	}
}

// TestNetStandbyRefusesRemoteWrites pins the wire-visible standby contract:
// a standby backend answers writes with the degraded status while serving
// reads, until OpPromote flips it.
func TestNetStandbyRefusesRemoteWrites(t *testing.T) {
	primary, err := dstore.Format(netTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close() //nolint:errcheck // teardown
	addr, srv := serveStore(t, primary, dstore.ServeOptions{})
	defer shutdownServer(t, srv)

	sb, err := dstore.Format(netTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close() //nolint:errcheck // teardown
	sb.BeginStandby()
	tailer, err := replica.Start(replica.Config{Addr: addr, Store: sb})
	if err != nil {
		t.Fatal(err)
	}
	defer tailer.Stop() //nolint:errcheck // teardown

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := client.Dial(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // teardown
	if err := cl.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, primary, sb)

	addr2, srv2 := serveStore(t, sb, dstore.ServeOptions{})
	defer shutdownServer(t, srv2)
	cl2, err := client.Dial(client.Config{Addr: addr2, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close() //nolint:errcheck // teardown
	if err := cl2.Put(ctx, "nope", []byte("x")); err == nil {
		t.Fatal("standby accepted a remote write")
	}
	got, err := cl2.Get(ctx, "k")
	if err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("standby read: %q %v", got, err)
	}
	if err := cl2.Promote(ctx); err != nil {
		t.Fatalf("remote promote: %v", err)
	}
	if err := cl2.Put(ctx, "nope", []byte("x")); err != nil {
		t.Fatalf("write after remote promote: %v", err)
	}
}
