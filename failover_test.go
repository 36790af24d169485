package dstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dstore/internal/fault"
	"dstore/internal/wire"
)

// replTestConfig is small enough for many seeded runs but large enough that
// the log is not recycled out from under a 1ms-poll feed mid-run.
func replTestConfig() Config {
	return Config{
		Blocks:     2048,
		MaxObjects: 512,
		LogBytes:   1 << 18,
	}
}

// waitReplDrained blocks until every shard's standby has applied the
// primary's full committed log (the in-process feeds poll every 1ms).
func waitReplDrained(t *testing.T, sh *Sharded) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		lag := uint64(0)
		for i := 0; i < sh.Shards(); i++ {
			if r := sh.Replica(i); r != nil && !r.FailedOver() {
				lag += r.Lag()
			}
		}
		if lag == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("replication lag never drained")
}

// TestFailoverSoak is the seeded-fault failover soak: a replicated sharded
// store runs a randomized put/delete/get workload, and at a random point one
// shard's primary is killed by unrecoverable injected PMEM write errors.
// Under PR 4 semantics that shard would return ErrDegraded for every write
// from then on; with replication the degradation must be absorbed — the
// standby is promoted transparently, every operation in the workload still
// succeeds, and the final key space is byte-identical to the shadow model.
func TestFailoverSoak(t *testing.T) {
	const seeds = 6
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFailoverSoak(t, seed)
		})
	}
}

func runFailoverSoak(t *testing.T, seed int64) {
	const shards = 2
	const ops = 400
	rng := rand.New(rand.NewSource(seed))
	sh, err := FormatShardedReplicated(shards, replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close() //nolint:errcheck // best-effort teardown after verification

	ctx := sh.Init()
	m := &model{}
	victim := rng.Intn(shards)
	killAt := 50 + rng.Intn(ops-100) // inside the workload, not at the edges
	killed := false

	for op := 0; op < ops; op++ {
		if op == killAt {
			// Kill the victim's primary: every PMEM write now fails, which
			// exhausts the bounded retries and degrades the store on the
			// next mutation.
			pm, _ := sh.Replica(victim).Active().Devices()
			pm.SetFaultPlan(fault.NewPlan(fault.Config{Seed: seed, WriteErrRate: 1}))
			killed = true
		}
		k := fmt.Sprintf("soak-%03d", rng.Intn(120))
		switch rng.Intn(10) {
		case 0: // delete
			if err := m.do(func() error { return ctx.Delete(k) }, del(k)); err != nil {
				t.Fatalf("op %d: Delete(%s): %v", op, k, err)
			}
		case 1, 2: // read back: the key's value, or not found
			if got, err := read(ctx.Get(k, nil)); err != nil || !m.allows(k, got) {
				t.Fatalf("op %d: Get(%s): %d bytes the model does not allow, %v", op, k, len(got), err)
			}
		default: // put — must succeed even while the victim degrades
			v := make([]byte, 200+rng.Intn(1200))
			rng.Read(v)
			if err := m.do(func() error { return ctx.Put(k, v) }, put(k, v)); err != nil {
				t.Fatalf("op %d (killed=%v): Put(%s): %v", op, killed, k, err)
			}
		}
	}

	// The injected fault must actually have fired and been absorbed: the
	// victim shard failed over and the aggregate health is clean again.
	if !sh.Replica(victim).FailedOver() {
		// The workload may not have routed a mutation to the victim after
		// the kill point (possible for an unlucky seed and short run) —
		// force one so the failover path is always exercised.
		k := fmt.Sprintf("soak-kick-%d", victim)
		if err := m.do(func() error { return ctx.Put(k, []byte("kick")) }, put(k, []byte("kick"))); err != nil {
			t.Fatalf("kick put: %v", err)
		}
	}
	h := sh.Health()
	if h.Degraded || h.DegradedShard != -1 {
		t.Fatalf("degradation not absorbed by failover: %+v", h)
	}

	// Byte-identical key space on the promoted topology.
	judge(t, "post-failover", sh, m)

	// And the store remains fully writable — the PR 4 behavior would have
	// returned ErrDegraded for every write landing on the victim from the
	// kill point on.
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("post-%02d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 300)
		if err := m.do(func() error { return ctx.Put(k, v) }, put(k, v)); err != nil {
			t.Fatalf("post-promotion Put(%s): %v", k, err)
		}
	}
	judge(t, "post-promotion writes", sh, m)
}

// TestFailoverOldBehaviorGone pins the contract change directly: the same
// unrecoverable fault that PR 4 answered with ErrDegraded-forever is now
// absorbed, and the very Put that degrades the primary succeeds via the
// promoted standby.
func TestFailoverOldBehaviorGone(t *testing.T) {
	sh, err := FormatShardedReplicated(1, replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close() //nolint:errcheck // best-effort teardown
	ctx := sh.Init()
	if err := ctx.Put("pre", []byte("before the fault")); err != nil {
		t.Fatal(err)
	}
	waitReplDrained(t, sh)

	pm, _ := sh.Replica(0).Active().Devices()
	pm.SetFaultPlan(fault.NewPlan(fault.Config{Seed: 1, WriteErrRate: 1}))
	if err := ctx.Put("during", []byte("lands on the standby")); err != nil {
		t.Fatalf("Put during primary death: %v (old behavior: ErrDegraded)", err)
	}
	if !sh.Replica(0).FailedOver() {
		t.Fatal("shard did not fail over")
	}
	if sh.Degraded() {
		t.Fatal("promoted topology reports degraded")
	}
	for _, k := range []string{"pre", "during"} {
		if _, err := ctx.Get(k, nil); err != nil {
			t.Fatalf("Get(%s) after failover: %v", k, err)
		}
	}
}

// TestStandbyTxnStreamConverges pins the easy half: a clean full apply of a
// transaction-heavy stream (the "txn" row's: a preload of 8 keys, then 40
// three-key RMW transactions) converges the standby to the primary byte for
// byte.
func TestStandbyTxnStreamConverges(t *testing.T) {
	primary, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	u := play(t, primary, seed(eightKeys, hashTag), rmw(40, []int{0, 3, 5}, hashTag, true))
	sb, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sb.BeginStandby()
	if err := pump(primary, sb, &model{}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := sb.Promote(); err != nil {
		t.Fatal(err)
	}
	judge(t, "standby", sb, u.m)
}

// TestStandbyRefusesWrites pins the standby gate: mutations return
// ErrStandby (surfaced as degraded over the wire) until Promote.
func TestStandbyRefusesWrites(t *testing.T) {
	sb, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close() //nolint:errcheck // teardown
	sb.BeginStandby()
	ctx := sb.Init()
	if err := ctx.Put("k", []byte("v")); !errors.Is(err, ErrStandby) {
		t.Fatalf("standby Put: %v, want ErrStandby", err)
	}
	if err := sb.Promote(); err != nil {
		t.Fatal(err)
	}
	if sb.IsStandby() {
		t.Fatal("still standby after Promote")
	}
	if err := ctx.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put after Promote: %v", err)
	}
}

// TestReplicatedShardRecordsMatchWire sanity-checks that exported records
// survive a wire frame round trip unchanged — the in-process failover path
// and the TCP path ship the same bytes.
func TestReplicatedShardRecordsMatchWire(t *testing.T) {
	s, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // teardown
	ctx := s.Init()
	for i := 0; i < 10; i++ {
		if err := ctx.Put(fmt.Sprintf("w%d", i), bytes.Repeat([]byte{byte(i)}, 100+i*11)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.ExportCommitted(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records exported")
	}
	for i := range recs {
		frame, err := wire.AppendRecordFrame(nil, &recs[i])
		if err != nil {
			t.Fatalf("frame LSN %d: %v", recs[i].LSN, err)
		}
		payload, err := wire.ReadFrame(bytes.NewReader(frame), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.DecodeRecordFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.LSN != recs[i].LSN || got.Op != recs[i].Op ||
			!bytes.Equal(got.Name, recs[i].Name) ||
			!bytes.Equal(got.Payload, recs[i].Payload) ||
			!bytes.Equal(got.Data, recs[i].Data) {
			t.Fatalf("record LSN %d changed across the wire", recs[i].LSN)
		}
	}
}
