package dstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dstore/internal/fault"
	"dstore/internal/wal"
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

// TestStandbyDegradesOnRecordItsLogCannotHold: a committed record larger than
// the standby's whole log (a 49-key transaction, 4,079 payload bytes, against
// a 4 KiB log) degrades the standby with an error wrapping wal.ErrLogFull,
// after at most one foreground checkpoint — no checkpoint makes room for it.
func TestStandbyDegradesOnRecordItsLogCannotHold(t *testing.T) {
	p, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	txn, err := p.Init().Begin()
	for i := 0; i < 49 && err == nil; i++ {
		err = txn.Put(fmt.Sprintf("%062d", i), []byte("v"))
	}
	if err != nil || txn.Commit() != nil {
		t.Fatalf("primary transaction: %v", err)
	}
	recs, err := p.ExportCommitted(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := replTestConfig()
	cfg.LogBytes = 4 << 10
	sb, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sb.BeginStandby()
	done := make(chan error, 1)
	go func() {
		for _, rec := range recs {
			if err := sb.ApplyReplicated(rec); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		sb.Close() // releases the apply loop
		<-done
		t.Fatalf("ApplyReplicated still running after 5 s (%d foreground checkpoints)", sb.Stats().ForegroundCheckpoints)
	}
	if !errors.Is(err, wal.ErrLogFull) || !errors.Is(err, ErrDegraded) {
		t.Fatalf("apply: %v, want an error wrapping wal.ErrLogFull and ErrDegraded", err)
	}
	if n := sb.Stats().ForegroundCheckpoints; n > 1 {
		t.Fatalf("%d foreground checkpoints, want at most 1", n)
	}
}

// TestStandbyConvergesOverSupersededContent: on a primary with few blocks, the
// first content of a single-object put and of one put of a two-key transaction
// is overwritten until its block is reused, so the export finds neither. The
// standby drops what it cannot have — the put, and that one sub-op of the
// transaction, whose other sub-op it logs — and the later records that
// superseded them repair both keys. The export reads every block once, and a
// reused block is not corruption: the primary counts none.
func TestStandbyConvergesOverSupersededContent(t *testing.T) {
	cfg := replTestConfig()
	cfg.Blocks = 32
	primary, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	firstBlock := func(k string) uint64 {
		_, e, err := primary.lookup([]byte(k), nil)
		if err != nil {
			t.Fatalf("lookup %s: %v", k, err)
		}
		return e.Blocks[0]
	}
	u := play(t, primary, func(u *rig) error {
		c, i := u.ctx(), 0
		putNext := func(k string) error {
			i++
			v := bytes.Repeat([]byte(fmt.Sprintf("%s#%03d|", k, i)), 30)
			return u.m.do(func() error { return c.Put(k, v) }, put(k, v))
		}
		if err := putNext("single"); err != nil {
			return err
		}
		w := writes{"t1": hashTag("t1", 0), "t2": hashTag("t2", 0)}
		if err := u.m.do(func() error {
			txn, err := c.Begin()
			for k, v := range w {
				if err == nil {
					err = txn.Put(k, v)
				}
			}
			if err != nil {
				return err
			}
			return txn.Commit()
		}, w); err != nil {
			return err
		}
		for _, k := range []string{"single", "t1"} {
			first := firstBlock(k)
			for n := 0; n == 0 || firstBlock(k) != first; n++ {
				if n > 4*int(cfg.Blocks) {
					return fmt.Errorf("%s never got block %d back", k, first)
				}
				if err := putNext(k); err != nil {
					return err
				}
			}
		}
		return nil
	})
	sb, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sb.BeginStandby()
	committed, err := primary.eng.Pair().ExportCommitted(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var content uint64 // the bytes the export ships or finds superseded
	for _, r := range committed {
		_, subs, err := decodeRecord(r.Op, r.Name, r.Payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range subs {
			n, _, _ := shipped(&subs[i])
			content += n
		}
	}
	read := primary.data.Stats().BytesRead
	if err := pump(primary, sb, &model{}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if n := primary.Health().Corruptions; n != 0 {
		t.Fatalf("the export counted %d corruptions on a primary with no corrupt byte", n)
	}
	if got := primary.data.Stats().BytesRead - read; got != content {
		t.Fatalf("the export read %d device bytes for %d bytes of content", got, content)
	}
	logged, err := sb.eng.Pair().ExportCommitted(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	txns := 0
	for _, r := range logged {
		if r.LSN == u.m.units[0].lsn && r.Op == opPut {
			t.Fatalf("standby logged the superseded put of single at LSN %d", r.LSN)
		}
		if r.Op != opTxnCommit {
			continue
		}
		txns++
		if _, subs, err := decodeRecord(r.Op, r.Name, r.Payload, nil); err != nil || len(subs) != 1 || string(subs[0].name) != "t2" {
			t.Fatalf("standby's transaction record: %d sub-ops, err %v; want t2's alone", len(subs), err)
		}
	}
	if txns != 1 {
		t.Fatalf("standby logged %d transaction records, want 1", txns)
	}
	if err := sb.Promote(); err != nil {
		t.Fatal(err)
	}
	judge(t, "superseded", sb, u.m)
}

// TestExportRereadsLiveContent: a flipped transfer of a block that is still
// live is re-read, as a Get re-reads it, and ships present, so the promoted
// standby holds every acknowledged put; a live block that stays corrupt fails
// the export, and is counted, instead of shipping the put absent.
func TestExportRereadsLiveContent(t *testing.T) {
	primary, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	u := play(t, primary, func(u *rig) error {
		c := u.ctx()
		for i := 0; i < 8; i++ {
			k, v := fmt.Sprintf("live/%d", i), val(byte('a'+i), 3000+i)
			if err := u.m.do(func() error { return c.Put(k, v) }, put(k, v)); err != nil {
				return err
			}
		}
		return nil
	})
	_, data := primary.Devices()
	standby := func() *Store {
		sb, err := Format(replTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		sb.BeginStandby()
		return sb
	}

	flips := fault.NewPlan(fault.Config{BitFlipAt: []uint64{1, 4}})
	data.SetFaultPlan(flips)
	sb := standby()
	defer sb.Close()
	if err := pump(primary, sb, &model{}); err != nil {
		t.Fatalf("pump over flipped reads: %v", err)
	}
	if n := flips.Stats().BitFlips; n != 2 {
		t.Fatalf("the export saw %d flipped reads, want 2", n)
	}
	if n := primary.Health().Corruptions; n != 0 {
		t.Fatalf("two transient flips counted as %d corruptions", n)
	}
	if err := sb.Promote(); err != nil {
		t.Fatal(err)
	}
	judge(t, "flipped", sb, u.m)

	data.SetFaultPlan(fault.NewPlan(fault.Config{BitFlipRate: 1}))
	sb2 := standby()
	defer sb2.Close()
	if err := pump(primary, sb2, &model{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("pump over corrupt live content: %v, want ErrCorrupt", err)
	}
	if primary.Health().Corruptions == 0 {
		t.Fatal("corrupt live content was not counted")
	}
}

// TestStandbyRefusesMalformedContent: a content frame longer or shorter than
// its sub-op's content, a truncated frame, or bytes after the last frame make
// ApplyReplicated refuse the record before it writes to the SSD or moves the
// applied position.
func TestStandbyRefusesMalformedContent(t *testing.T) {
	primary, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	c := primary.Init()
	if err := c.Put("a", val(1, 5000)); err != nil {
		t.Fatal(err)
	}
	txn, err := c.Begin()
	if err == nil {
		err = txn.Put("x", val(2, 300))
	}
	if err == nil {
		err = txn.Put("y", val(3, 40))
	}
	if err != nil || txn.Commit() != nil {
		t.Fatalf("primary transaction: %v", err)
	}
	recs, err := primary.ExportCommitted(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	var put, tx wire.Record
	for _, r := range recs {
		switch r.Op {
		case opPut:
			put = r
		case opTxnCommit:
			tx = r
		}
	}
	if put.LSN == 0 || tx.LSN == 0 {
		t.Fatalf("export: %d records without a put and a transaction", len(recs))
	}
	// frame rewrites the header of the frame at off to say present and ln,
	// moving the bytes after it by delta.
	frame := func(r wire.Record, off int, present byte, ln uint32, delta int) wire.Record {
		d := append([]byte{}, r.Data[:off]...)
		d = binary.LittleEndian.AppendUint32(append(d, present), ln)
		body := r.Data[off+5:]
		if delta < 0 {
			body = body[-delta:]
		}
		d = append(d, body...)
		d = append(d, make([]byte, max(delta, 0))...)
		r.Data = d
		return r
	}
	with := func(r wire.Record, data []byte) wire.Record { r.Data = data; return r }
	remap := wire.Record{LSN: tx.LSN + 1, Op: opRemap, Name: []byte("a"),
		Payload: encodeRemapPayload(nil, &subOp{idxs: []int{0}, blocks: []uint64{9}, sums: []uint32{0}}, 0)}
	cases := []struct {
		name string
		rec  wire.Record
	}{
		{"put truncated", with(put, put.Data[:len(put.Data)-1])},
		{"put header truncated", with(put, put.Data[:3])},
		{"put frame short", frame(put, 0, 1, 4999, -1)},
		{"put frame long", frame(put, 0, 1, 5001, 1)},
		{"put absent with bytes", frame(put, 0, 0, 5000, 0)},
		{"put bad present flag", frame(put, 0, 2, 5000, 0)},
		{"put trailing", with(put, append(append([]byte{}, put.Data...), 0))},
		{"put no frame", with(put, nil)},
		{"txn truncated", with(tx, tx.Data[:len(tx.Data)-1])},
		{"txn first frame long", frame(tx, 0, 1, 301, 1)},
		{"txn trailing", with(tx, append(append([]byte{}, tx.Data...), 1, 2, 3))},
		{"remap short", with(remap, binary.LittleEndian.AppendUint32([]byte{1}, 100))},
		{"delete with data", wire.Record{LSN: tx.LSN + 1, Op: opDelete, Name: []byte("a"), Data: []byte{0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sb, err := Format(replTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer sb.Close()
			sb.BeginStandby()
			_, dev := sb.Devices()
			written, at := dev.Stats().BytesWritten, sb.AppliedLSN()
			if err := sb.ApplyReplicated(tc.rec); err == nil {
				t.Fatal("malformed content applied")
			}
			if got := dev.Stats().BytesWritten; got != written {
				t.Fatalf("refused record wrote %d SSD bytes", got-written)
			}
			if got := sb.AppliedLSN(); got != at {
				t.Fatalf("AppliedLSN %d after a refused record, want %d", got, at)
			}
		})
	}
	// The untouched records still apply.
	sb, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sb.BeginStandby()
	for _, r := range recs {
		if err := sb.ApplyReplicated(r); err != nil {
			t.Fatalf("apply LSN %d: %v", r.LSN, err)
		}
	}
}

// TestStandbyLogsAnEmptiedRecordAsNoop: a record whose every content frame is
// absent keeps no sub-op; the standby writes nothing to its SSD but logs a
// no-op at the record's LSN, so its applied position passes the record and a
// caught-up feed does not export it again.
func TestStandbyLogsAnEmptiedRecordAsNoop(t *testing.T) {
	primary, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.Init().Put("k", val(1, 5000)); err != nil {
		t.Fatal(err)
	}
	recs, err := primary.ExportCommitted(0, 10)
	if err != nil || len(recs) != 1 || recs[0].Op != opPut {
		t.Fatalf("export: %d records, err %v; want one put", len(recs), err)
	}
	rec := recs[0]
	rec.Data = []byte{0, 0, 0, 0, 0}
	sb, err := Format(replTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sb.BeginStandby()
	_, dev := sb.Devices()
	written := dev.Stats().BytesWritten
	if err := sb.ApplyReplicated(rec); err != nil {
		t.Fatal(err)
	}
	if got := sb.AppliedLSN(); got != rec.LSN {
		t.Fatalf("AppliedLSN %d, want %d", got, rec.LSN)
	}
	if got := dev.Stats().BytesWritten; got != written {
		t.Fatalf("an emptied record wrote %d SSD bytes", got-written)
	}
	logged, err := sb.eng.Pair().ExportCommitted(0, 10)
	if err != nil || len(logged) != 1 || logged[0].Op != opNoop || logged[0].LSN != rec.LSN {
		t.Fatalf("standby log %+v, err %v; want one no-op at LSN %d", logged, err, rec.LSN)
	}
	if _, err := sb.Init().Get("k", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of the dropped put: %v, want ErrNotFound", err)
	}
}

// TestStandbyCatchesUpOverAnInPlaceRewrite: a standby that falls behind a put
// and then a WriteAt into it gets the object's current bytes with the put —
// the block is still the name's, unverified since the WriteAt's opInval, not
// freed — and the opInval that follows leaves the standby's copy unverified
// as well, so it reads as the primary's, with no corruption on either side.
func TestStandbyCatchesUpOverAnInPlaceRewrite(t *testing.T) {
	cfg := replTestConfig()
	primary, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	c := primary.Init()
	if err := c.Put("k", val(1, 8000)); err != nil {
		t.Fatal(err)
	}
	o, err := c.Open("k", 0, OpenWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt(val(2, 100), 10); err != nil {
		t.Fatal(err)
	}
	o.Close()
	sb, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sb.BeginStandby()
	if err := pump(primary, sb, &model{}); err != nil {
		t.Fatal(err)
	}
	want, err := c.Get("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sb.Init().Get("k", nil); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("standby Get(k) = %d bytes, %v; want the primary's %d", len(got), err, len(want))
	}
	if p, s := primary.Health().Corruptions, sb.Health().Corruptions; p != 0 || s != 0 {
		t.Fatalf("corruptions: primary %d, standby %d", p, s)
	}
	if err := sb.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Check(); err != nil {
		t.Fatal(err)
	}
}
