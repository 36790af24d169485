package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// mputFramePayload builds the OpMPut request layout by hand:
// u64 id | u8 op | u16 keyLen=0 | u32 blobLen | u32 count |
// repeat(u16 keyLen | key | u32 valLen | val) | u32 limit=0.
func mputFramePayload(id uint64, subs []BatchSub) []byte {
	blob := binary.LittleEndian.AppendUint32(nil, uint32(len(subs)))
	for _, s := range subs {
		blob = binary.LittleEndian.AppendUint16(blob, uint16(len(s.Key)))
		blob = append(blob, s.Key...)
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(s.Value)))
		blob = append(blob, s.Value...)
	}
	p := binary.LittleEndian.AppendUint64(nil, id)
	p = append(p, byte(OpMPut))
	p = binary.LittleEndian.AppendUint16(p, 0)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(blob)))
	p = append(p, blob...)
	return binary.LittleEndian.AppendUint32(p, 0)
}

// TestBatchRequestExactLayout pins the batched request encoding byte for
// byte against the hand-built layout: the sub-op blob rides in the value
// slot of the universal request shape.
func TestBatchRequestExactLayout(t *testing.T) {
	subs := []BatchSub{{Key: "a", Value: []byte("v1")}, {Key: "bb", Value: nil}}
	req := Request{ID: 77, Op: OpMPut, Subs: subs}
	frame, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	want := mputFramePayload(77, subs)
	if !bytes.Equal(frame[FrameHeader:], want) {
		t.Fatalf("MPUT payload:\n got %x\nwant %x", frame[FrameHeader:], want)
	}
	// And the epoch word still trails the universal shape.
	withEpoch := req
	withEpoch.Epoch = 9
	ef, err := AppendRequest(nil, &withEpoch)
	if err != nil {
		t.Fatalf("AppendRequest(epoch): %v", err)
	}
	if len(ef) != len(frame)+8 {
		t.Fatalf("epoch word added %d bytes, want 8", len(ef)-len(frame))
	}
	got, err := DecodeRequest(ef[FrameHeader:])
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if got.Epoch != 9 || len(got.Subs) != 2 || got.Subs[0].Key != "a" ||
		string(got.Subs[0].Value) != "v1" || got.Subs[1].Key != "bb" {
		t.Fatalf("epoch-carrying MPUT decoded to %+v", got)
	}
}

// TestBatchPartialRoundTrip pins the mixed-result exchange: StatusPartial at
// the top, per-sub-op verdicts in order, values only on OK MGET rows.
func TestBatchPartialRoundTrip(t *testing.T) {
	resp := Response{
		ID: 5, Op: OpMGet, Status: StatusPartial,
		Batch: []BatchResult{
			{Status: StatusOK, Value: []byte("hit")},
			{Status: StatusNotFound, Msg: "no such object"},
			{Status: StatusNotMine, Msg: "ring epoch 3, server at 4"},
			{Status: StatusOK, Value: []byte{}},
		},
	}
	got, err := DecodeResponse(AppendResponse(nil, &resp)[FrameHeader:])
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("partial response did not round-trip:\n got %+v\nwant %+v", got, resp)
	}
}

// TestBatchFrameLevelFailureHasNoSection: a whole-frame failure (bad
// request, NOT_MINE at the frame level) uses the plain status shape with no
// batch section — byte-identical to any other error response.
func TestBatchFrameLevelFailureHasNoSection(t *testing.T) {
	resp := Response{ID: 6, Op: OpMPut, Status: StatusNotMine, Msg: "stale ring"}
	frame := AppendResponse(nil, &resp)
	wantLen := FrameHeader + respFixed + len(resp.Msg)
	if len(frame) != wantLen {
		t.Fatalf("error frame is %d bytes, want exactly %d", len(frame), wantLen)
	}
	got, err := DecodeResponse(frame[FrameHeader:])
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if got.Batch != nil || got.Status != StatusNotMine {
		t.Fatalf("error response decoded to %+v", got)
	}
}

// TestBatchLimitsEnforced: oversized batches are rejected at encode, and
// implausible counts are rejected at decode before allocation.
func TestBatchLimitsEnforced(t *testing.T) {
	subs := make([]BatchSub, MaxBatch+1)
	for i := range subs {
		subs[i].Key = "k"
	}
	if _, err := AppendRequest(nil, &Request{Op: OpMPut, Subs: subs}); err == nil {
		t.Fatal("oversized batch encoded")
	}
	if _, err := AppendRequest(nil, &Request{Op: OpMGet,
		Subs: []BatchSub{{Key: strings.Repeat("k", MaxKeyLen+1)}}}); err == nil {
		t.Fatal("oversized sub-op key encoded")
	}
	// A count word claiming more sub-ops than the blob can hold.
	p := mputFramePayload(1, nil)
	// blob starts after id(8)+op(1)+keyLen(2)+blobLen(4); count is first.
	binary.LittleEndian.PutUint32(p[15:], 1000)
	if _, err := DecodeRequest(p); err == nil {
		t.Fatal("implausible batch count decoded")
	}
	// Response side: count beyond the remaining bytes.
	resp := Response{ID: 2, Op: OpMDelete, Status: StatusOK,
		Batch: []BatchResult{{Status: StatusOK}}}
	rp := AppendResponse(nil, &resp)[FrameHeader:]
	binary.LittleEndian.PutUint32(rp[respFixed:], 500)
	if _, err := DecodeResponse(rp); err == nil {
		t.Fatal("implausible batch result count decoded")
	}
}

// TestBatchEmptyRoundTrips: zero-sub-op frames are legal (clients never send
// them, but the codec must not choke) and decode back to nil slices.
func TestBatchEmptyRoundTrips(t *testing.T) {
	req := Request{ID: 3, Op: OpMDelete}
	frame, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	got, err := DecodeRequest(frame[FrameHeader:])
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if got.Subs != nil {
		t.Fatalf("empty batch decoded Subs = %+v", got.Subs)
	}
	resp := Response{ID: 3, Op: OpMDelete, Status: StatusOK}
	gr, err := DecodeResponse(AppendResponse(nil, &resp)[FrameHeader:])
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if gr.Batch != nil {
		t.Fatalf("empty batch decoded Batch = %+v", gr.Batch)
	}
}

// FuzzDecodeBatchRequest seeds the request fuzzer's grammar with batched
// frames (the generic fuzzer covers the rest of the op space).
func FuzzDecodeBatchRequest(f *testing.F) {
	for _, req := range []Request{
		{ID: 1, Op: OpMPut, Subs: []BatchSub{{Key: "a", Value: []byte("v")}, {Key: "b"}}},
		{ID: 2, Op: OpMGet, Subs: []BatchSub{{Key: "a"}, {Key: "b"}, {Key: "c"}}},
		{ID: 3, Op: OpMDelete, Subs: []BatchSub{{Key: "a"}}, Epoch: 7},
		{ID: 4, Op: OpMGet},
	} {
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[FrameHeader:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatalf("re-encode of decoded request failed: %v", err)
		}
		req2, err := DecodeRequest(frame[FrameHeader:])
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(req2, req) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", req2, req)
		}
	})
}

// FuzzDecodeBatchResponse seeds the response fuzzer with batched verdicts,
// including PARTIAL mixes.
func FuzzDecodeBatchResponse(f *testing.F) {
	for _, resp := range []Response{
		{ID: 1, Op: OpMPut, Status: StatusOK, Batch: []BatchResult{{Status: StatusOK}}},
		{ID: 2, Op: OpMGet, Status: StatusPartial, Batch: []BatchResult{
			{Status: StatusOK, Value: []byte("v")}, {Status: StatusNotFound, Msg: "gone"}}},
		{ID: 3, Op: OpMDelete, Status: StatusPartial, Batch: []BatchResult{
			{Status: StatusNotMine, Msg: "epoch"}, {Status: StatusOK}}},
		{ID: 4, Op: OpMPut, Status: StatusDegraded, Msg: "read-only"},
	} {
		f.Add(AppendResponse(nil, &resp)[FrameHeader:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := DecodeResponse(payload)
		if err != nil {
			return
		}
		if !resp.Op.Multi() {
			return
		}
		frame := AppendResponse(nil, &resp)
		resp2, err := DecodeResponse(frame[FrameHeader:])
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(resp2, resp) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", resp2, resp)
		}
	})
}
