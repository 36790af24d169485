package dstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dstore/internal/fault"
	"dstore/internal/pmem"
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

// verifyAgainstShadow checks the store's key space is byte-identical to the
// shadow model: every shadow key readable with exactly the shadow's bytes,
// and Scan returns exactly the shadow's key set.
func verifyAgainstShadow(t *testing.T, tag string, ctx *ShardedCtx, shadow map[string][]byte) {
	t.Helper()
	for k, v := range shadow {
		got, err := ctx.Get(k, nil)
		if err != nil {
			t.Fatalf("%s: Get(%s): %v", tag, k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("%s: Get(%s): %d bytes, want %d — not byte-identical", tag, k, len(got), len(v))
		}
	}
	scanned := map[string]bool{}
	if err := ctx.Scan("", func(info ObjectInfo) bool {
		scanned[info.Name] = true
		return true
	}); err != nil {
		t.Fatalf("%s: Scan: %v", tag, err)
	}
	if len(scanned) != len(shadow) {
		t.Fatalf("%s: Scan saw %d objects, shadow has %d", tag, len(scanned), len(shadow))
	}
	for k := range shadow {
		if !scanned[k] {
			t.Fatalf("%s: Scan missed shadow key %s", tag, k)
		}
	}
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
	shadow := map[string][]byte{}
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
			err := ctx.Delete(k)
			if err != nil && err != ErrNotFound {
				t.Fatalf("op %d: Delete(%s): %v", op, k, err)
			}
			delete(shadow, k)
		case 1, 2: // read back a known key
			want, ok := shadow[k]
			got, err := ctx.Get(k, nil)
			if !ok {
				if err != ErrNotFound {
					t.Fatalf("op %d: Get(%s) on absent key: %v", op, k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d: Get(%s): %v", op, k, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: Get(%s): wrong bytes", op, k)
			}
		default: // put — must succeed even while the victim degrades
			v := make([]byte, 200+rng.Intn(1200))
			rng.Read(v)
			if err := ctx.Put(k, v); err != nil {
				t.Fatalf("op %d (killed=%v): Put(%s): %v", op, killed, k, err)
			}
			shadow[k] = v
		}
	}

	// The injected fault must actually have fired and been absorbed: the
	// victim shard failed over and the aggregate health is clean again.
	if !sh.Replica(victim).FailedOver() {
		// The workload may not have routed a mutation to the victim after
		// the kill point (possible for an unlucky seed and short run) —
		// force one so the failover path is always exercised.
		if err := ctx.Put(fmt.Sprintf("soak-kick-%d", victim), []byte("kick")); err != nil {
			t.Fatalf("kick put: %v", err)
		}
	}
	h := sh.Health()
	if h.Degraded || h.DegradedShard != -1 {
		t.Fatalf("degradation not absorbed by failover: %+v", h)
	}

	// Byte-identical key space on the promoted topology.
	verifyAgainstShadow(t, "post-failover", ctx, shadow)

	// And the store remains fully writable — the PR 4 behavior would have
	// returned ErrDegraded for every write landing on the victim from the
	// kill point on.
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("post-%02d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 300)
		if err := ctx.Put(k, v); err != nil {
			t.Fatalf("post-promotion Put(%s): %v", k, err)
		}
		shadow[k] = v
	}
	verifyAgainstShadow(t, "post-promotion-writes", ctx, shadow)
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

// TestStandbyCrashMidApply drives a primary→standby record pump and crashes
// the standby at a swept set of PMEM mutation points mid-apply. Each crash
// must recover to a committed-prefix state: fsck passes, AppliedLSN covers
// every apply that returned before the crash (the resubscribe position loses
// nothing acked), and resuming the stream from AppliedLSN converges the
// standby to the primary's exact key space.
func TestStandbyCrashMidApply(t *testing.T) {
	// Build the primary once and freeze its committed stream.
	primary, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close() //nolint:errcheck // read-only source for the sweep
	pctx := primary.Init()
	model := map[string][]byte{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%02d", i%23)
		if i%7 == 5 {
			if err := pctx.Delete(k); err != nil && err != ErrNotFound {
				t.Fatal(err)
			}
			delete(model, k)
			continue
		}
		v := bytes.Repeat([]byte{byte(i + 1)}, 300+i*31)
		if err := pctx.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}

	// Count the standby-side PMEM mutations of a clean full apply to size
	// the sweep.
	total := countApplyMutations(t, primary)
	if total < 100 {
		t.Fatalf("apply performed only %d standby PMEM mutations", total)
	}
	stride := total / 23
	if stride == 0 {
		stride = 1
	}
	points := 0
	for k := uint64(1); k < total; k += stride {
		points++
		runStandbyCrashPoint(t, primary, model, k)
	}
	t.Logf("verified %d standby crash points across %d PMEM mutations", points, total)
}

// countApplyMutations applies the primary's full stream to a throwaway
// standby and returns how many PMEM mutations that took.
func countApplyMutations(t *testing.T, primary *Store) uint64 {
	t.Helper()
	sb, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close() //nolint:errcheck // throwaway counter store
	sb.BeginStandby()
	var total uint64
	pm, _ := sb.Devices()
	pm.SetMutationHook(func() { total++ })
	if err := pumpAll(primary, sb); err != nil {
		t.Fatalf("clean apply: %v", err)
	}
	pm.SetMutationHook(nil)
	return total
}

// pumpAll streams the primary's committed records into the standby from the
// standby's applied position until caught up.
func pumpAll(primary, sb *Store) error {
	for {
		recs, err := primary.ExportCommitted(sb.AppliedLSN(), 32)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return nil
		}
		for i := range recs {
			if err := sb.ApplyReplicated(recs[i]); err != nil {
				return err
			}
		}
	}
}

func runStandbyCrashPoint(t *testing.T, primary *Store, model map[string][]byte, crashAt uint64) {
	t.Helper()
	cfg := replTestConfig()
	sb, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb.BeginStandby()
	pm, data := sb.Devices()

	// ackedLSN tracks the highest LSN whose apply returned — what a real
	// tailer would have acked to the primary before the crash.
	var ackedLSN uint64
	crashed := runToCrash([]*pmem.Device{pm}, crashAt, sb.CloseNoCheckpoint, func() {
		for {
			recs, err := primary.ExportCommitted(ackedLSN, 8)
			if err != nil {
				t.Fatalf("crash point %d: export: %v", crashAt, err)
			}
			if len(recs) == 0 {
				return
			}
			for i := range recs {
				if err := sb.ApplyReplicated(recs[i]); err != nil {
					t.Fatalf("crash point %d: apply LSN %d: %v", crashAt, recs[i].LSN, err)
				}
				ackedLSN = recs[i].LSN
			}
		}
	})
	if !crashed {
		sb.Close() //nolint:errcheck // crash point beyond this run's mutations
		return
	}

	// Power loss mid-apply: adversarial line reversion, then recover.
	cfg.PMEM, cfg.SSD = pm, data
	pm.Crash(pmem.CrashDropDirty, int64(crashAt))
	sb2, err := Open(cfg)
	if err != nil {
		t.Fatalf("crash point %d: standby recovery failed: %v", crashAt, err)
	}
	defer sb2.Close() //nolint:errcheck // verified below; teardown best-effort
	if err := sb2.Check(); err != nil {
		t.Fatalf("crash point %d: fsck after standby crash: %v", crashAt, err)
	}
	// Committed prefix: recovery must not have lost any apply that returned
	// (its WAL record was durably committed), and must not have invented
	// LSNs beyond the stream position.
	resumeFrom := sb2.AppliedLSN()
	if resumeFrom < ackedLSN {
		t.Fatalf("crash point %d: recovered AppliedLSN %d < acked %d — acked applies lost",
			crashAt, resumeFrom, ackedLSN)
	}
	if resumeFrom > ackedLSN+1 {
		t.Fatalf("crash point %d: recovered AppliedLSN %d beyond in-flight record (acked %d)",
			crashAt, resumeFrom, ackedLSN)
	}

	// Resubscribe from the recovered position and finish the stream; the
	// promoted standby must match the primary's key space byte for byte.
	sb2.BeginStandby()
	if err := pumpAll(primary, sb2); err != nil {
		t.Fatalf("crash point %d: resumed apply: %v", crashAt, err)
	}
	if err := sb2.Promote(); err != nil {
		t.Fatalf("crash point %d: promote: %v", crashAt, err)
	}
	sctx := sb2.Init()
	for k, v := range model {
		got, err := sctx.Get(k, nil)
		if err != nil {
			t.Fatalf("crash point %d: promoted Get(%s): %v", crashAt, k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("crash point %d: promoted Get(%s): wrong bytes", crashAt, k)
		}
	}
	if got, want := sb2.Count(), uint64(len(model)); got != want {
		t.Fatalf("crash point %d: promoted store has %d objects, want %d", crashAt, got, want)
	}
	// The promoted standby accepts writes.
	if err := sctx.Put("post-crash", []byte("writable")); err != nil {
		t.Fatalf("crash point %d: post-promotion write: %v", crashAt, err)
	}
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
