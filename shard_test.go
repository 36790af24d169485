package dstore

// Tests of the sharded store: the merge-scan property (byte-identical to a
// single store over a random keyspace, early stop and prefix boundaries
// included), the typed corrupt-index sentinel through the wire protocol,
// crash during a parallel checkpoint with per-shard replay accounting, and
// the per-shard degraded fault domain.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"dstore/internal/fault"
	"dstore/internal/server"
	"dstore/internal/wire"
)

func shardTestConfig() Config {
	return Config{
		Blocks:           4096,
		MaxObjects:       1024,
		LogBytes:         1 << 18,
		TrackPersistence: true,
	}
}

// randomKeyspace builds a deterministic random key→value map with shared
// prefixes (so prefix scans cut through the middle of shard streams).
func randomKeyspace(rng *rand.Rand, n int) map[string][]byte {
	segs := []string{"a", "b", "ab", "ba", "dir/", "dir/sub/", "x"}
	kv := make(map[string][]byte, n)
	for len(kv) < n {
		name := segs[rng.Intn(len(segs))] + segs[rng.Intn(len(segs))] +
			fmt.Sprintf("%04d", rng.Intn(10*n))
		if _, dup := kv[name]; dup {
			continue
		}
		val := make([]byte, 1+rng.Intn(300))
		rng.Read(val)
		kv[name] = val
	}
	return kv
}

// collectScan gathers up to limit Scan results (limit < 0 means all),
// exercising the early-stop path when the limit fires.
func collectScan(t *testing.T, c Context, prefix string, limit int) []ObjectInfo {
	t.Helper()
	var out []ObjectInfo
	err := c.Scan(prefix, func(info ObjectInfo) bool {
		out = append(out, info)
		return limit < 0 || len(out) < limit
	})
	if err != nil {
		t.Fatalf("Scan(%q, limit=%d): %v", prefix, limit, err)
	}
	return out
}

// TestShardedScanMatchesSingleStore is the merge-scan property test: for a
// random keyspace loaded into both a single store and a sharded one, every
// prefix scan — full, early-stopped, and boundary-straddling — returns
// identical ordered results.
func TestShardedScanMatchesSingleStore(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kv := randomKeyspace(rng, 300)

	single, err := Format(shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sh, err := FormatSharded(5, shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	sctx := single.Init()
	mctx := sh.Init()
	for k, v := range kv {
		if err := sctx.Put(k, v); err != nil {
			t.Fatalf("single Put(%s): %v", k, err)
		}
		if err := mctx.Put(k, v); err != nil {
			t.Fatalf("sharded Put(%s): %v", k, err)
		}
	}

	compare := func(prefix string, limit int) {
		t.Helper()
		want := collectScan(t, sctx, prefix, limit)
		got := collectScan(t, mctx, prefix, limit)
		if len(got) != len(want) {
			t.Fatalf("Scan(%q, limit=%d): %d results, single store %d",
				prefix, limit, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Scan(%q, limit=%d)[%d]: %+v, single store %+v",
					prefix, limit, i, got[i], want[i])
			}
		}
	}

	prefixes := []string{"", "a", "ab", "b", "dir/", "dir/sub/", "x", "dir/sub/x", "zzz-none"}
	for _, p := range prefixes {
		compare(p, -1)
	}
	total := len(collectScan(t, sctx, "", -1))
	for _, limit := range []int{1, 2, 7, total / 2, total - 1, total + 10} {
		compare("", limit)
	}
	for i := 0; i < 20; i++ {
		p := prefixes[rng.Intn(len(prefixes))]
		compare(p, 1+rng.Intn(total))
	}
	// A sharded scan's merge must also be restartable: a second full scan on
	// the same context after an early stop sees everything again.
	compare("", 3)
	compare("", -1)
}

// TestScanCorruptIndexTypedThroughWire pins the errCorruptIndex fix: an
// index entry pointing at a free metadata slot must classify as ErrCorrupt
// locally and surface as StatusCorrupt through the wire protocol (not a
// generic internal error).
func TestScanCorruptIndexTypedThroughWire(t *testing.T) {
	s, err := Format(shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseNoCheckpoint() //nolint:errcheck // test teardown

	ctx := s.Init()
	for i := 0; i < 5; i++ {
		if err := ctx.Put(fmt.Sprintf("corrupt/%d", i), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	// Fabricate index corruption: clear the metadata slot the index still
	// points at.
	s.treeMu.RLock()
	slot, ok := s.front.tree.Get([]byte("corrupt/2"))
	s.treeMu.RUnlock()
	if !ok {
		t.Fatal("corrupt/2 not indexed")
	}
	if err := s.front.zone.Clear(slot); err != nil {
		t.Fatal(err)
	}

	err = ctx.Scan("corrupt/", func(ObjectInfo) bool { return true })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan over corrupt index: %v, want errors.Is(err, ErrCorrupt)", err)
	}

	// Through the wire: the SCAN opcode must answer StatusCorrupt.
	srv := server.New(s.NetBackend(), server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln) //nolint:errcheck // listener closed by the deferred Close

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpScan, Key: "corrupt/", Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusCorrupt {
		t.Fatalf("SCAN over corrupt index: status %v (%q), want StatusCorrupt", resp.Status, resp.Msg)
	}
}

// TestShardedCrashMidParallelCheckpoint crashes a 4-shard store with shard
// 0 durably mid-checkpoint (worst case: full archived-log redo) and every
// shard's active log populated, reopens all shards concurrently, and checks
// per-shard replay accounting plus full data integrity.
func TestShardedCrashMidParallelCheckpoint(t *testing.T) {
	const shards = 4
	sh, err := FormatSharded(shards, shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	val := func(i int) []byte {
		return []byte(fmt.Sprintf("value-%03d-%s", i, strings.Repeat("x", i%50)))
	}
	ctx := sh.Init()
	const pre, post = 160, 120
	for i := 0; i < pre; i++ {
		if err := ctx.Put(fmt.Sprintf("crash-%03d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 0 durably enters the checkpoint-in-progress state: recovery must
	// redo its whole archived log before replaying the active one.
	sh.Shard(0).PrepareWorstCaseCrash()
	for i := pre; i < pre+post; i++ {
		if err := ctx.Put(fmt.Sprintf("crash-%03d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every shard must have work to replay for the per-shard assertions.
	perShard := make([]int, shards)
	for i := 0; i < pre+post; i++ {
		perShard[sh.ShardFor(fmt.Sprintf("crash-%03d", i))]++
	}
	for i, n := range perShard {
		if n == 0 {
			t.Fatalf("shard %d received no keys; rebalance the test keyspace", i)
		}
	}

	cfgs, err := sh.Crash(7)
	if err != nil {
		t.Fatalf("Crash: %v", err)
	}
	sh2, err := OpenSharded(cfgs)
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	defer sh2.Close()
	if err := sh2.Check(); err != nil {
		t.Fatalf("post-recovery Check: %v", err)
	}

	// Per-shard replay accounting: every shard rebuilt its volatile space
	// from its own active log; shard 0 additionally redid its archived log
	// into the shadow arena (the interrupted checkpoint).
	for i := 0; i < shards; i++ {
		es := sh2.Shard(i).Stats().Engine
		if es.RecordsRecovered == 0 {
			t.Errorf("shard %d: no active-log records recovered", i)
		}
		metaNs, replayNs := sh2.Shard(i).Engine().RecoveryBreakdown()
		if metaNs <= 0 || replayNs <= 0 {
			t.Errorf("shard %d: empty recovery breakdown meta=%d replay=%d", i, metaNs, replayNs)
		}
	}
	if redo := sh2.Shard(0).Stats().Engine.RecordsReplayed; redo == 0 {
		t.Error("shard 0: interrupted checkpoint not redone (no archived records replayed)")
	}

	ctx2 := sh2.Init()
	for i := 0; i < pre+post; i++ {
		k := fmt.Sprintf("crash-%03d", i)
		got, err := ctx2.Get(k, nil)
		if err != nil {
			t.Fatalf("post-recovery Get(%s): %v", k, err)
		}
		if string(got) != string(val(i)) {
			t.Fatalf("post-recovery Get(%s): wrong value", k)
		}
	}
	if n := sh2.Count(); n != pre+post {
		t.Fatalf("post-recovery Count = %d, want %d", n, pre+post)
	}
}

// FormatSharded persists the ring before it returns, so a store whose shard 0
// has no ring object is corrupt: OpenSharded refuses it rather than guess a
// placement.
func TestOpenShardedWithoutRingIsCorrupt(t *testing.T) {
	sh, err := FormatSharded(2, shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Shard(0).deleteReserved(ringObjName); err != nil {
		t.Fatal(err)
	}
	cfgs := sh.ShardConfigs()
	for i := range cfgs {
		cfgs[i].PMEM, cfgs[i].SSD = sh.Shard(i).Devices()
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(cfgs)
	if err == nil {
		re.Close()
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenSharded without a ring object: %v; want ErrCorrupt", err)
	}
}

// shardKeys returns per-shard key lists, k of each, so tests can address
// specific shards deterministically.
func shardKeys(sh *Sharded, k int) [][]string {
	out := make([][]string, sh.Shards())
	for i := 0; len(out[0]) < k || len(out[1]) < k || len(out[len(out)-1]) < k; i++ {
		key := fmt.Sprintf("fan-%04d", i)
		s := sh.ShardFor(key)
		if len(out[s]) < k {
			out[s] = append(out[s], key)
		}
		if i > 100000 {
			break
		}
	}
	return out
}

// TestShardedDegradedShardIsolation forces exactly one shard into degraded
// mode and verifies the fault domain: its keys fail writes with the typed
// ErrDegraded but stay readable, every other shard keeps accepting writes,
// and the aggregate health names the degraded shard.
func TestShardedDegradedShardIsolation(t *testing.T) {
	const shards = 3
	sh, err := FormatSharded(shards, shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sh.CloseNoCheckpoint() //nolint:errcheck // shard 1 is degraded by design

	keys := shardKeys(sh, 3)
	for i := range keys {
		if len(keys[i]) < 3 {
			t.Fatalf("shard %d: not enough test keys", i)
		}
	}
	ctx := sh.Init()
	for _, ks := range keys {
		for _, k := range ks[:2] {
			if err := ctx.Put(k, []byte("committed:"+k)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Every PMEM log append on shard 1 now fails; the next write routed
	// there exhausts the bounded retries and degrades that shard only.
	const victim = 1
	pm, _ := sh.Shard(victim).Devices()
	pm.SetFaultPlan(fault.NewPlan(fault.Config{Seed: 7, WriteErrRate: 1}))

	if err := ctx.Put(keys[victim][2], []byte("doomed")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put on degraded shard: %v, want ErrDegraded", err)
	}
	if err := ctx.Delete(keys[victim][0]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Delete on degraded shard: %v, want ErrDegraded", err)
	}
	// All other shards keep accepting writes.
	for i, ks := range keys {
		if i == victim {
			continue
		}
		if err := ctx.Put(ks[2], []byte("still-writable")); err != nil {
			t.Fatalf("Put on healthy shard %d after shard %d degraded: %v", i, victim, err)
		}
	}
	// The degraded shard's committed data stays readable.
	for _, k := range keys[victim][:2] {
		got, err := ctx.Get(k, nil)
		if err != nil {
			t.Fatalf("Get(%s) on degraded shard: %v", k, err)
		}
		if string(got) != "committed:"+k {
			t.Fatalf("Get(%s) on degraded shard: wrong data", k)
		}
	}

	if !sh.Degraded() {
		t.Fatal("aggregate Degraded() = false with one shard degraded")
	}
	h := sh.Health()
	if !h.Degraded || !strings.HasPrefix(h.Reason, fmt.Sprintf("shard %d:", victim)) {
		t.Fatalf("aggregate health %+v does not name shard %d", h, victim)
	}
	for i := 0; i < shards; i++ {
		if got := sh.Shard(i).Health().Degraded; got != (i == victim) {
			t.Fatalf("shard %d degraded = %v, want %v", i, got, i == victim)
		}
	}
}
