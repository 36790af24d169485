package dstore

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dstore/internal/fault"
)

// The executable check behind DESIGN.md §2.2's same-code sentence: the
// frontend applies its records with plane.apply, and so do recovery replay
// and the standby — so the three planes must end up identical, entry for
// entry, after a script that logs every opcode the store can write.

// planeEntry is one live object as a plane's index and metadata zone hold it.
type planeEntry struct {
	Name       string
	Slot, Size uint64
	Blocks     []uint64
	Sums       []uint32
}

// snapshotPlane lists every indexed object of s's frontend plane in key
// order, reserved namespace included.
func snapshotPlane(t *testing.T, s *Store) []planeEntry {
	t.Helper()
	var out []planeEntry
	s.treeMu.RLock()
	defer s.treeMu.RUnlock()
	err := s.front.tree.Iterate(func(key []byte, slot uint64) error {
		e, used, err := s.zoneRead(slot, nil)
		if err != nil || !used {
			return fmt.Errorf("key %q at slot %d: used=%v err=%v", key, slot, used, err)
		}
		out = append(out, planeEntry{string(key), slot, e.Size, e.Blocks, e.Sums})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func diffPlanes(t *testing.T, what string, want, got []planeEntry) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d entries, frontend has %d", what, len(got), len(want))
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: entry %d differs\nfrontend: %+v\n%s: %+v", what, i, want[i], what, got[i])
		}
	}
}

func TestSameCodeEquivalence(t *testing.T) {
	const shards = 2
	cfg := Config{
		Blocks: 2048, MaxObjects: 512, MaxBlocksPerObject: 4,
		LogBytes:           4 << 20,
		DisableCheckpoints: true, // every record stays in the log and is replayed at reopen
	}
	sh, err := FormatSharded(shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			sh.CloseNoCheckpoint()
		}
	}()
	// One ReplicatedShard per shard, fed by hand instead of by its feed
	// goroutine: an in-place WriteAt changes block content without a record
	// that ships it (phase-one replication, DESIGN.md §10), so the standby
	// must have taken the stream up to each step before the next one runs.
	repl := make([]*ReplicatedShard, shards)
	for i := range repl {
		sb, err := Format(sh.ShardConfigs()[i])
		if err != nil {
			t.Fatal(err)
		}
		defer sb.CloseNoCheckpoint()
		sb.BeginStandby()
		repl[i] = &ReplicatedShard{primary: sh.Shard(i), standby: sb}
	}
	feed := func() {
		t.Helper()
		for _, rs := range repl {
			for n := 1; n > 0; {
				var err error
				if n, err = rs.feedOnce(replFeedBatch); err != nil {
					t.Fatalf("feed: %v", err)
				}
			}
		}
	}
	ctx := sh.Init()
	bs := int(blockSize)

	// Keys bucketed by owning shard, so transactions can be aimed at one
	// store or across both.
	byShard := make([][]string, shards)
	for i := 0; len(byShard[0]) < 8 || len(byShard[1]) < 8; i++ {
		k := fmt.Sprintf("obj-%03d", i)
		byShard[sh.ShardFor(k)] = append(byShard[sh.ShardFor(k)], k)
	}
	rng := rand.New(rand.NewSource(20210621))
	pick := func(shard int) string { return byShard[shard][rng.Intn(8)] }
	anyKey := func() string { return pick(rng.Intn(shards)) }
	value := func(blocks int) []byte {
		v := make([]byte, 1+rng.Intn(blocks*bs))
		rng.Read(v)
		return v
	}
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	txn := func(keys ...string) {
		t.Helper()
		tx, err := ctx.Begin()
		must("begin", err)
		for i, k := range keys {
			if i%3 == 2 {
				must("txn delete", tx.Delete(k))
			} else {
				must("txn put", tx.Put(k, value(1))) // a cross-shard prepare object must hold the shard's write set
			}
		}
		must("txn commit", tx.Commit())
	}

	for step := 0; step < 240; step++ {
		feed()
		switch r := rng.Intn(12); {
		case r < 4: // put or overwrite
			must("put", ctx.Put(anyKey(), value(3)))
		case r < 5: // delete
			if err := ctx.Delete(anyKey()); err != nil && err != ErrNotFound {
				t.Fatal(err)
			}
		case r < 8: // Open(OpenCreate), then an in-place or extending WriteAt
			o, err := ctx.Open(anyKey(), uint64(1+rng.Intn(2*bs)), OpenCreate|OpenRead|OpenWrite)
			must("open", err)
			size, err := o.Size()
			must("size", err)
			span := make([]byte, 1+rng.Intn(bs))
			rng.Read(span)
			off := int64(rng.Intn(int(size))) // r==7 lands past the end more often
			if r == 7 {
				off = int64(size) - 1
			}
			if uint64(off)+uint64(len(span)) <= 4*uint64(bs) {
				_, err = o.WriteAt(span, off)
				must("writeat", err)
			}
			o.Close()
		case r < 9: // single-store transaction
			s := rng.Intn(shards)
			txn(pick(s), pick(s), pick(s))
		case r < 10: // cross-shard transaction (2PC over reserved objects)
			txn(pick(0), pick(1), pick(0), pick(1))
		default: // olock / ounlock
			k := anyKey()
			must("lock", ctx.Lock(k))
			must("locked put", ctx.Put(k, value(3)))
			must("unlock", ctx.Unlock(k))
		}
	}

	// A Scrub remap off an injected bad page: the page fails, Scrub
	// quarantines its block; the page recovers, Scrub(repair) finds verified
	// content on quarantined media and migrates it through an opRemap.
	victim := byShard[0][0]
	must("victim put", ctx.Put(victim, value(3)))
	s0 := sh.Shard(0)
	_, e, err := s0.lookup([]byte(victim), nil)
	must("victim lookup", err)
	_, data := s0.Devices()
	data.SetFaultPlan(fault.NewPlan(fault.Config{BadPages: []uint64{e.Blocks[0] + 1}}))
	if _, err := s0.Scrub(false); err != nil {
		t.Fatal(err)
	}
	data.SetFaultPlan(nil)
	rep, err := s0.Scrub(true)
	must("scrub repair", err)
	if len(rep.Repaired) != 1 || rep.Repaired[0].Block != e.Blocks[0] {
		t.Fatalf("expected the victim's block %d remapped, got %+v", e.Blocks[0], rep)
	}
	ctx.Finalize()
	feed()

	// The script must have logged every opcode there is.
	seen := map[uint16]bool{}
	for i := 0; i < shards; i++ {
		recs, err := sh.Shard(i).ExportCommitted(0, 1<<20)
		must("export", err)
		for _, r := range recs {
			seen[r.Op] = true
		}
	}
	for op := opPut; op <= opTxnAbort; op++ {
		if !seen[op] {
			t.Errorf("the script never logged opcode %d", op)
		}
	}

	// Three planes per shard: the frontend that applied its own records, the
	// standby that applied the shipped stream, and recovery replaying the log.
	front := make([][]planeEntry, shards)
	cfgs := sh.ShardConfigs()
	for i := 0; i < shards; i++ {
		front[i] = snapshotPlane(t, sh.Shard(i))
		if len(front[i]) == 0 {
			t.Fatalf("shard %d ended empty", i)
		}
		diffPlanes(t, fmt.Sprintf("shard %d standby", i), front[i], snapshotPlane(t, repl[i].standby))
		cfgs[i].PMEM, cfgs[i].SSD = sh.Shard(i).Devices()
	}
	must("close", sh.CloseNoCheckpoint())
	closed = true
	re, err := OpenSharded(cfgs)
	must("reopen", err)
	defer re.Close()
	for i := 0; i < shards; i++ {
		diffPlanes(t, fmt.Sprintf("shard %d recovered", i), front[i], snapshotPlane(t, re.Shard(i)))
	}
	must("fsck", re.Check())
}

// TestSameCodeRecordCodecPinsPayloads: encodeRecord lays down the WAL payload
// bytes the per-opcode encoders laid down before it existed (captured from
// them), decodeRecord reads each back to a record that encodes the same, and
// a reused write set encodes a put without allocating (outside race builds).
func TestSameCodeRecordCodecPinsPayloads(t *testing.T) {
	put := subOp{op: opPut, name: []byte("obj"), size: 5000, slot: 7, blocks: []uint64{3, 11}, sums: []uint32{0xdeadbeef, 0x01020304}}
	cases := []struct {
		name string
		w    writeSet
		pad  int
		want string
	}{
		{"put", writeSet{op: opPut, subs: []subOp{put}}, 0,
			"88130000070000000200030000000b000000efbeadde04030201"},
		{"put, physical pad", writeSet{op: opPut, subs: []subOp{put}}, 16,
			"88130000070000000200030000000b000000efbeadde0403020100000000000000000000000000000000"},
		{"extend, unknown sums", writeSet{op: opExtend, subs: []subOp{{op: opExtend, size: 4097, slot: 1, blocks: []uint64{1, 2}}}}, 0,
			"0110000001000000020001000000020000000000000000000000"},
		{"inval", writeSet{op: opInval, subs: []subOp{{op: opInval, idxs: []int{0, 2}}}}, 0, "020000000000000002000000"},
		{"remap", writeSet{op: opRemap, subs: []subOp{{op: opRemap, idxs: []int{1}, blocks: []uint64{9}, sums: []uint32{0xabcdef01}}}}, 0,
			"010000000900000001efcdab"},
		{"delete", writeSet{op: opDelete, subs: []subOp{{op: opDelete}}}, 0, ""},
		{"transaction", writeSet{op: opTxnCommit, txnid: 0x1122334455667788, subs: []subOp{
			{op: opPut, name: []byte("k1"), size: 10, slot: 3, blocks: []uint64{4}, sums: []uint32{5}},
			{op: opDelete, name: []byte("k2")},
			{op: opPut, name: []byte("k3"), size: 4097, slot: 1, blocks: []uint64{1, 2}},
		}}, 0, "8877665544332211030000000102006b310a00000003000000010004000000050000000202006b320102006b33" +
			"0110000001000000020001000000020000000000000000000000"},
	}
	for _, tc := range cases {
		payload := encodeRecord(&tc.w, tc.pad)
		if got := hex.EncodeToString(payload); got != tc.want {
			t.Fatalf("%s: payload %s, want %s", tc.name, got, tc.want)
		}
		txnid, subs, err := decodeRecord(tc.w.op, []byte("obj"), payload, nil)
		if err != nil || txnid != tc.w.txnid || len(subs) != len(tc.w.subs) {
			t.Fatalf("%s: decoded txn %x, %d sub-ops, err %v", tc.name, txnid, len(subs), err)
		}
		again := writeSet{op: tc.w.op, txnid: txnid, subs: subs}
		if got := encodeRecord(&again, tc.pad); !bytes.Equal(got, payload) {
			t.Fatalf("%s: decoded record encodes as %x, want %x", tc.name, got, payload)
		}
	}
	if raceEnabled {
		return // the race build allocates the zeroed room append(b, make(...)...) reuses
	}
	w := writeSet{op: opPut, subs: []subOp{put}}
	encodeRecord(&w, 0)
	if n := testing.AllocsPerRun(100, func() { encodeRecord(&w, 0) }); n != 0 {
		t.Fatalf("encoding a put into a reused write set: %v allocs, want 0", n)
	}
}
