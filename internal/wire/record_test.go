package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func randRecord(rng *rand.Rand) Record {
	rec := Record{
		LSN: 1 + rng.Uint64()%1000000,
		Op:  uint16(rng.Intn(8)),
	}
	rec.Name = make([]byte, 1+rng.Intn(64))
	rng.Read(rec.Name)
	if rng.Intn(4) > 0 {
		rec.Payload = make([]byte, rng.Intn(256))
		rng.Read(rec.Payload)
	}
	if rng.Intn(2) == 0 {
		rec.Data = make([]byte, rng.Intn(32<<10))
		rng.Read(rec.Data)
	}
	return rec
}

func TestRecordFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		want := randRecord(rng)
		frame, err := AppendRecordFrame(nil, &want)
		if err != nil {
			t.Fatalf("AppendRecordFrame: %v", err)
		}
		got, err := DecodeRecordFrame(roundTripPayload(t, frame))
		if err != nil {
			t.Fatalf("DecodeRecordFrame: %v", err)
		}
		norm := func(r *Record) {
			if r.Payload == nil {
				r.Payload = []byte{}
			}
			if r.Data == nil {
				r.Data = []byte{}
			}
		}
		norm(&want)
		norm(&got)
		if got.LSN != want.LSN || got.Op != want.Op ||
			!bytes.Equal(got.Name, want.Name) ||
			!bytes.Equal(got.Payload, want.Payload) ||
			!bytes.Equal(got.Data, want.Data) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestRecordFrameRejectsInvalid(t *testing.T) {
	// LSN zero is invalid in both directions.
	if _, err := AppendRecordFrame(nil, &Record{LSN: 0, Name: []byte("x")}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero-LSN encode: %v", err)
	}
	frame, err := AppendRecordFrame(nil, &Record{LSN: 5, Name: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), roundTripPayload(t, frame)...)
	for i := 0; i < 8; i++ {
		payload[i] = 0
	}
	if _, err := DecodeRecordFrame(payload); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero-LSN decode: %v", err)
	}
	// Oversized fields are rejected before allocation.
	if _, err := AppendRecordFrame(nil, &Record{LSN: 1, Name: make([]byte, MaxRecordField+1)}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized name encode: %v", err)
	}
	if _, err := AppendRecordFrame(nil, &Record{LSN: 1, Payload: make([]byte, MaxRecordField+1)}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized payload encode: %v", err)
	}
}

// Every single-bit corruption of a record frame must be rejected, never
// silently accepted with changed content — the same discipline as request
// and response frames.
func TestRecordFrameBitFlips(t *testing.T) {
	rec := Record{LSN: 42, Op: 3, Name: []byte("object/a"), Payload: []byte{1, 2, 3, 4}, Data: []byte("block-bytes")}
	frame, err := AppendRecordFrame(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < len(frame)*8; bit++ {
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << (bit % 8)
		payload, err := ReadFrame(bytes.NewReader(mut), 0)
		if err != nil {
			continue
		}
		if got, err := DecodeRecordFrame(payload); err == nil {
			t.Fatalf("bit flip %d survived framing: decoded %+v", bit, got)
		}
	}
}

func FuzzDecodeRecordFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 8; i++ {
		rec := randRecord(rng)
		frame, _ := AppendRecordFrame(nil, &rec) //nolint:errcheck
		if len(frame) > FrameHeader {
			f.Add(frame[FrameHeader:])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecordFrame(payload)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same value.
		frame, err := AppendRecordFrame(nil, &rec)
		if err != nil {
			t.Fatalf("re-encode of decoded record failed: %v", err)
		}
		back, err := ReadFrame(bytes.NewReader(frame), 0)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		rec2, err := DecodeRecordFrame(back)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if rec2.LSN != rec.LSN || rec2.Op != rec.Op ||
			!bytes.Equal(rec2.Name, rec.Name) ||
			!bytes.Equal(rec2.Payload, rec.Payload) ||
			!bytes.Equal(rec2.Data, rec.Data) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", rec2, rec)
		}
	})
}

func TestReplicateRequestRoundTrip(t *testing.T) {
	req := ReplicateRequest(7, 123456)
	frame, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(roundTripPayload(t, frame))
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := ReplicateLSN(&got)
	if err != nil || lsn != 123456 || got.ID != 7 || got.Op != OpReplicate {
		t.Fatalf("replicate round trip: %+v lsn=%d err=%v", got, lsn, err)
	}
	bad := Request{Op: OpReplicate, Value: []byte{1, 2, 3}}
	if _, err := ReplicateLSN(&bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short replicate value: %v", err)
	}
}

// Satellite: Op.String must never print a bare integer for defined opcodes
// (dstore-inspect renders these), and the default case is pinned for
// undefined ones.
func TestOpStringPinned(t *testing.T) {
	want := map[Op]string{
		OpPut:        "PUT",
		OpGet:        "GET",
		OpDelete:     "DELETE",
		OpScan:       "SCAN",
		OpStats:      "STATS",
		OpHealth:     "HEALTH",
		OpCheckpoint: "CHECKPOINT",
		OpReplicate:  "REPLICATE",
		OpPromote:    "PROMOTE",
		OpTxnBegin:   "TXN_BEGIN",
		OpTxnGet:     "TXN_GET",
		OpTxnPut:     "TXN_PUT",
		OpTxnDelete:  "TXN_DELETE",
		OpTxnCommit:  "TXN_COMMIT",
		OpTxnAbort:   "TXN_ABORT",
		OpRing:       "RING",
		OpMPut:       "MPUT",
		OpMGet:       "MGET",
		OpMDelete:    "MDELETE",
	}
	if len(want) != int(opMax)-1 {
		t.Fatalf("string table covers %d ops, protocol defines %d", len(want), int(opMax)-1)
	}
	for op := Op(1); op < opMax; op++ {
		s := op.String()
		if s != want[op] {
			t.Fatalf("Op(%d).String() = %q, want %q", op, s, want[op])
		}
		if s == fmt.Sprintf("op(%d)", uint8(op)) {
			t.Fatalf("defined opcode %d prints as a bare integer", op)
		}
	}
	// The default case is pinned: unknown opcodes print op(N).
	for _, op := range []Op{0, opMax, opMax + 1, 200, 255} {
		if got, want := op.String(), fmt.Sprintf("op(%d)", uint8(op)); got != want {
			t.Fatalf("Op(%d).String() = %q, want pinned default %q", op, got, want)
		}
	}
}

func TestOpValidCoverage(t *testing.T) {
	for op := Op(1); op < opMax; op++ {
		if !op.Valid() {
			t.Fatalf("defined opcode %s invalid", op)
		}
	}
	if !OpReplicate.Valid() || !OpPromote.Valid() {
		t.Fatal("replication opcodes not valid")
	}
	for _, op := range []Op{0, opMax, 255} {
		if op.Valid() {
			t.Fatalf("undefined opcode %d valid", op)
		}
	}
}
