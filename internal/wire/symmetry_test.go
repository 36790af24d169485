package wire

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// These tests are the runtime twin of the wire-symmetry static checker:
// they pin the enum value spaces and prove, by constructing real frames,
// that every opcode and status round-trips through encode/decode, and that
// every counter field of the stats structures survives fields()/setFields()
// (so a field added to the struct but not the codec fails here, not in
// production).

// TestOpValueSpace sweeps the whole uint8 space: exactly the declared
// opcodes are Valid, every valid opcode has a real name, and every invalid
// value stringers to the numeric fallback.
func TestOpValueSpace(t *testing.T) {
	const declaredOps = 19 // OpPut..OpMDelete; grows with the protocol
	valid := 0
	for v := 0; v < 256; v++ {
		op := Op(v)
		name := op.String()
		if op.Valid() {
			valid++
			if strings.HasPrefix(name, "op(") {
				t.Errorf("Op(%d) is Valid but has no String case (%q)", v, name)
			}
		} else if name != fmt.Sprintf("op(%d)", v) {
			t.Errorf("Op(%d) is invalid but String() = %q", v, name)
		}
	}
	if valid != declaredOps {
		t.Errorf("Valid() accepts %d opcodes, want %d — update declaredOps with the protocol change", valid, declaredOps)
	}
	if int(opMax) != declaredOps+1 {
		t.Errorf("opMax = %d, want %d (dense opcodes starting at 1)", opMax, declaredOps+1)
	}
}

// TestStatusValueSpace is the same sweep for Status.
func TestStatusValueSpace(t *testing.T) {
	const declaredStatuses = 12 // StatusOK..StatusPartial
	valid := 0
	for v := 0; v < 256; v++ {
		s := Status(v)
		name := s.String()
		if s.Valid() {
			valid++
			if strings.HasPrefix(name, "status(") {
				t.Errorf("Status(%d) is Valid but has no String case (%q)", v, name)
			}
		} else if name != fmt.Sprintf("status(%d)", v) {
			t.Errorf("Status(%d) is invalid but String() = %q", v, name)
		}
	}
	if valid != declaredStatuses {
		t.Errorf("Valid() accepts %d statuses, want %d", valid, declaredStatuses)
	}
	if int(statusMax) != declaredStatuses {
		t.Errorf("statusMax = %d, want %d (dense statuses starting at 0)", statusMax, declaredStatuses)
	}
}

// fillUnique sets every settable field of v (recursing through structs,
// pointers, and slices left at one element) to a distinct value, returning
// the next counter. A field the codec drops then breaks the round-trip
// comparison below even if its zero value would have survived.
func fillUnique(v reflect.Value, n uint64) uint64 {
	switch v.Kind() {
	case reflect.Uint64, reflect.Uint32, reflect.Uint16, reflect.Uint8:
		v.SetUint(n % 200) // small enough for every width and any cap checks
		return n + 1
	case reflect.Bool:
		v.SetBool(true)
		return n
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
		return n + 1
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n = fillUnique(v.Field(i), n)
		}
		return n
	case reflect.Ptr:
		if !v.IsNil() {
			return fillUnique(v.Elem(), n)
		}
		return n
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			n = fillUnique(v.Index(i), n)
		}
		return n
	default:
		return n
	}
}

// TestStatsFieldsExhaustive fills every field of a maximal StatsReply with
// distinct values via reflection and round-trips it through a real
// response frame. A counter added to any row type but missed in its
// fields()/setFields() pair, or a section missing from statsSections, comes
// back zero and fails the deep comparison.
func TestStatsFieldsExhaustive(t *testing.T) {
	stats := &StatsReply{
		Shards: make([]ShardStat, 2),
		Cache:  &CacheReply{Shards: make([]CacheStat, 2)},
		Repl:   &ReplReply{},
		Txn:    &TxnReply{},
		Batch:  &BatchReply{},
	}
	fillUnique(reflect.ValueOf(stats).Elem(), 1)

	resp := Response{ID: 7, Op: OpStats, Status: StatusOK, Stats: stats}
	got, err := DecodeResponse(framePayload(t, AppendResponse(nil, &resp)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got.Stats, stats) {
		t.Errorf("stats did not round-trip:\n got %+v\nwant %+v", got.Stats, stats)
	}
}

// framePayload strips the frame header off an encoded frame.
func framePayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	if len(frame) < FrameHeader {
		t.Fatalf("short frame: %d bytes", len(frame))
	}
	return frame[FrameHeader:]
}

// TestEveryOpRoundTrips encodes and decodes a request and a response for
// every valid opcode, with the op-specific sections populated, so an
// opcode can never ship with encode-only or decode-only handling.
func TestEveryOpRoundTrips(t *testing.T) {
	for op := OpPut; op < opMax; op++ {
		// Value starts empty-not-nil because the decoder materializes an
		// empty value section the same way.
		req := Request{ID: uint64(op), Op: op, Value: []byte{}}
		switch op {
		case OpPut:
			req.Key, req.Value = "k", []byte("v")
		case OpGet, OpDelete:
			req.Key = "k"
		case OpScan:
			req.Key, req.Limit = "prefix", 10
		case OpReplicate:
			req.Value = []byte{1, 0, 0, 0, 0, 0, 0, 0}
		case OpTxnGet, OpTxnDelete:
			req.Key, req.Limit = "k", 3
		case OpTxnPut:
			req.Key, req.Value, req.Limit = "k", []byte("v"), 3
		case OpTxnBegin, OpTxnCommit, OpTxnAbort:
			req.Limit = 3
		case OpMPut:
			// Batched requests carry Subs, not Key/Value: the decoder
			// leaves Value nil (the blob is consumed into Subs).
			req.Value = nil
			req.Subs = []BatchSub{{Key: "a", Value: []byte("v1")}, {Key: "b", Value: []byte{}}}
		case OpMGet, OpMDelete:
			req.Value = nil
			req.Subs = []BatchSub{{Key: "a"}, {Key: "b"}}
		}
		enc, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatalf("%v: append request: %v", op, err)
		}
		gotReq, err := DecodeRequest(framePayload(t, enc))
		if err != nil {
			t.Fatalf("%v: decode request: %v", op, err)
		}
		if !reflect.DeepEqual(gotReq, req) {
			t.Errorf("%v: request did not round-trip:\n got %+v\nwant %+v", op, gotReq, req)
		}

		resp := Response{ID: uint64(op), Op: op, Status: StatusOK}
		switch op {
		case OpGet, OpReplicate, OpTxnGet, OpRing:
			resp.Value = []byte("payload")
		case OpScan:
			resp.Objects = []Object{{Name: "a", Size: 3, Blocks: 1}}
		case OpStats:
			resp.Stats = &StatsReply{ShardStat: ShardStat{Puts: 1}}
		case OpHealth:
			resp.Health = &HealthReply{ShardHealth: ShardHealth{Degraded: true, Reason: "why",
				QuarantinedBlocks: []uint64{4}}}
		case OpMPut, OpMDelete:
			resp.Batch = []BatchResult{{Status: StatusOK}, {Status: StatusOK}}
		case OpMGet:
			resp.Batch = []BatchResult{{Status: StatusOK, Value: []byte("v")}, {Status: StatusOK, Value: []byte{}}}
		}
		gotResp, err := DecodeResponse(framePayload(t, AppendResponse(nil, &resp)))
		if err != nil {
			t.Fatalf("%v: decode response: %v", op, err)
		}
		if !reflect.DeepEqual(gotResp, resp) {
			t.Errorf("%v: response did not round-trip:\n got %+v\nwant %+v", op, gotResp, resp)
		}
	}
}

// TestEveryStatusRoundTrips sends every status (with a message, as non-OK
// statuses carry) through a response frame.
func TestEveryStatusRoundTrips(t *testing.T) {
	for s := StatusOK; s < statusMax; s++ {
		resp := Response{ID: 1, Op: OpPut, Status: s}
		if s != StatusOK {
			resp.Msg = "detail: " + s.String()
		}
		got, err := DecodeResponse(framePayload(t, AppendResponse(nil, &resp)))
		if err != nil {
			t.Fatalf("%v: decode: %v", s, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("%v: response did not round-trip:\n got %+v\nwant %+v", s, got, resp)
		}
	}
}
