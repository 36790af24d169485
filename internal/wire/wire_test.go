package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// randRequest draws a random but valid request covering every opcode.
func randRequest(rng *rand.Rand) Request {
	ops := []Op{OpPut, OpGet, OpDelete, OpScan, OpStats, OpHealth, OpCheckpoint, OpReplicate, OpPromote,
		OpTxnBegin, OpTxnGet, OpTxnPut, OpTxnDelete, OpTxnCommit, OpTxnAbort, OpRing}
	req := Request{
		ID: rng.Uint64(),
		Op: ops[rng.Intn(len(ops))],
	}
	if rng.Intn(4) > 0 {
		key := make([]byte, rng.Intn(200))
		rng.Read(key)
		req.Key = string(key)
	}
	if req.Op == OpPut || req.Op == OpTxnPut {
		req.Value = make([]byte, rng.Intn(16<<10))
		rng.Read(req.Value)
	}
	if req.Op == OpScan || req.Op.Txn() {
		req.Limit = rng.Uint32()
	}
	if req.Op == OpReplicate {
		req = ReplicateRequest(req.ID, rng.Uint64())
	}
	if rng.Intn(3) == 0 {
		req.Epoch = rng.Uint64()
	}
	return req
}

// randResponse draws a random but valid response for op, exercising both the
// error statuses and every op-specific OK section.
func randResponse(rng *rand.Rand, op Op) Response {
	resp := Response{ID: rng.Uint64(), Op: op}
	if rng.Intn(3) == 0 {
		resp.Status = Status(1 + rng.Intn(int(statusMax)-1))
		if rng.Intn(2) == 0 {
			resp.Msg = "detail: injected failure"
		}
		return resp
	}
	switch op {
	case OpGet, OpTxnGet:
		resp.Value = make([]byte, rng.Intn(16<<10))
		rng.Read(resp.Value)
	case OpScan:
		n := rng.Intn(20)
		resp.Objects = make([]Object, 0, n)
		for i := 0; i < n; i++ {
			name := make([]byte, 1+rng.Intn(64))
			rng.Read(name)
			resp.Objects = append(resp.Objects, Object{
				Name: string(name), Size: rng.Uint64(), Blocks: rng.Uint32(),
			})
		}
	case OpStats:
		// randCounters fills one counter row with draws from [lo, lo+span).
		randCounters := func(c counters, lo, span uint64) {
			v := c.fields()
			for i := range v {
				v[i] = lo + rng.Uint64()%span
			}
			c.setFields(v)
		}
		st := &StatsReply{ServerConns: rng.Uint64(), ServerRequests: rng.Uint64()}
		randCounters(&st.ShardStat, 0, 1<<63)
		// Half the responses carry the sharded trailing section.
		if rng.Intn(2) == 0 {
			st.Shards = make([]ShardStat, 1+rng.Intn(8))
			for i := range st.Shards {
				randCounters(&st.Shards[i], 0, 1<<63)
			}
		}
		// A third carry the replication trailing section.
		if rng.Intn(3) == 0 {
			st.Repl = &ReplReply{}
			randCounters(st.Repl, 1, 1000)
		}
		// And a third the transaction trailing section.
		if rng.Intn(3) == 0 {
			st.Txn = &TxnReply{}
			randCounters(st.Txn, 1, 1000)
		}
		resp.Stats = st
	case OpHealth:
		randRow := func() ShardHealth {
			row := ShardHealth{
				Degraded:    rng.Intn(2) == 0,
				IORetries:   rng.Uint64(),
				WriteErrors: rng.Uint64(),
				Corruptions: rng.Uint64(),
				Remaps:      rng.Uint64(),
			}
			if row.Degraded {
				row.Reason = "dstore: store degraded (read-only): injected"
			}
			for i := rng.Intn(8); i > 0; i-- {
				row.QuarantinedBlocks = append(row.QuarantinedBlocks, rng.Uint64())
			}
			return row
		}
		h := &HealthReply{ShardHealth: randRow()}
		if rng.Intn(2) == 0 {
			for i := 1 + rng.Intn(8); i > 0; i-- {
				h.Shards = append(h.Shards, randRow())
			}
		}
		resp.Health = h
	}
	return resp
}

// roundTripPayload frames b's single frame and reads it back.
func roundTripPayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	payload, err := ReadFrame(bytes.NewReader(frame), 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return payload
}

func TestRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		want := randRequest(rng)
		frame, err := AppendRequest(nil, &want)
		if err != nil {
			t.Fatalf("AppendRequest: %v", err)
		}
		got, err := DecodeRequest(roundTripPayload(t, frame))
		if err != nil {
			t.Fatalf("DecodeRequest: %v", err)
		}
		if want.Value == nil {
			want.Value = []byte{}
		}
		if got.Value == nil {
			got.Value = []byte{}
		}
		if got.ID != want.ID || got.Op != want.Op || got.Key != want.Key ||
			!bytes.Equal(got.Value, want.Value) || got.Limit != want.Limit ||
			got.Epoch != want.Epoch {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ops := []Op{OpPut, OpGet, OpDelete, OpScan, OpStats, OpHealth, OpCheckpoint, OpReplicate, OpPromote}
	for i := 0; i < 500; i++ {
		want := randResponse(rng, ops[i%len(ops)])
		frame := AppendResponse(nil, &want)
		got, err := DecodeResponse(roundTripPayload(t, frame))
		if err != nil {
			t.Fatalf("DecodeResponse(%s): %v", want.Op, err)
		}
		normalize := func(r *Response) {
			if r.Value == nil {
				r.Value = []byte{}
			}
			if r.Objects == nil {
				r.Objects = []Object{}
			}
			if r.Health != nil && r.Health.QuarantinedBlocks == nil {
				r.Health.QuarantinedBlocks = []uint64{}
			}
		}
		normalize(&want)
		normalize(&got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch (%s):\n got %+v\nwant %+v", want.Op, got, want)
		}
	}
}

func TestRequestKeyTooLong(t *testing.T) {
	req := Request{Op: OpGet, Key: string(make([]byte, MaxKeyLen+1))}
	if _, err := AppendRequest(nil, &req); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized key: got %v, want ErrMalformed", err)
	}
}

// Every single-bit corruption of a frame must be rejected (checksum, length
// mismatch, or malformed payload) — never silently accepted with changed
// content, never a panic.
func TestFrameBitFlips(t *testing.T) {
	req := Request{ID: 7, Op: OpPut, Key: "object/a", Value: []byte("payload-bytes")}
	frame, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < len(frame)*8; bit++ {
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << (bit % 8)
		payload, err := ReadFrame(bytes.NewReader(mut), 0)
		if err != nil {
			continue // framing caught it
		}
		got, err := DecodeRequest(payload)
		if err != nil {
			continue // payload structure caught it
		}
		t.Fatalf("bit flip %d survived framing: decoded %+v", bit, got)
	}
}

func TestFrameTruncation(t *testing.T) {
	resp := randResponse(rand.New(rand.NewSource(3)), OpScan)
	frame := AppendResponse(nil, &resp)
	for n := 0; n < len(frame); n++ {
		_, err := ReadFrame(bytes.NewReader(frame[:n]), 0)
		if err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) accepted", n, len(frame))
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated frame (%d/%d bytes): got %v, want EOF class", n, len(frame), err)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	frame := AppendFrame(nil, make([]byte, 4096))
	if _, err := ReadFrame(bytes.NewReader(frame), 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// The limit applies to the announced length before any allocation: a
	// garbage header claiming 4 GiB must fail fast.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(huge), 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

// Garbage streams must produce typed errors, not panics and not hangs.
func TestGarbageStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(256))
		rng.Read(buf)
		if payload, err := ReadFrame(bytes.NewReader(buf), 1<<16); err == nil {
			// A random stream that frames correctly still must not crash
			// the payload decoders.
			_, _ = DecodeRequest(payload)  //nolint:errcheck
			_, _ = DecodeResponse(payload) //nolint:errcheck
		}
	}
}

// Payload decoders reject trailing bytes: data beyond the structured fields
// would be a smuggling channel that CRC cannot catch.
func TestTrailingBytesRejected(t *testing.T) {
	req := Request{ID: 1, Op: OpGet, Key: "k"}
	frame, err := AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	payload := roundTripPayload(t, frame)
	if _, err := DecodeRequest(append(payload, 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing byte: got %v, want ErrMalformed", err)
	}
}

// Multiple frames on one stream parse back-to-back (the pipelining case).
func TestPipelinedFrames(t *testing.T) {
	var stream []byte
	var want []Request
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		req := randRequest(rng)
		req.ID = uint64(i)
		want = append(want, req)
		var err error
		stream, err = AppendRequest(stream, &req)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	for i := range want {
		payload, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.ID != uint64(i) {
			t.Fatalf("frame %d: id %d", i, got.ID)
		}
	}
	if _, err := ReadFrame(r, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("stream end: %v", err)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 8; i++ {
		req := randRequest(rng)
		frame, _ := AppendRequest(nil, &req) //nolint:errcheck
		if len(frame) > FrameHeader {
			f.Add(frame[FrameHeader:])
		}
	}
	ringReq := Request{ID: 9, Op: OpRing}
	rf, _ := AppendRequest(nil, &ringReq) //nolint:errcheck
	f.Add(rf[FrameHeader:])
	epochReq := Request{ID: 10, Op: OpGet, Key: "k", Epoch: 7}
	ef, _ := AppendRequest(nil, &epochReq) //nolint:errcheck
	f.Add(ef[FrameHeader:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same value.
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatalf("re-encode of decoded request failed: %v", err)
		}
		back, err := ReadFrame(bytes.NewReader(frame), 0)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		req2, err := DecodeRequest(back)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if req2.ID != req.ID || req2.Op != req.Op || req2.Key != req.Key ||
			!bytes.Equal(req2.Value, req.Value) || req2.Limit != req.Limit ||
			req2.Epoch != req.Epoch {
			t.Fatalf("re-decode mismatch: %+v vs %+v", req2, req)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, op := range []Op{OpPut, OpGet, OpScan, OpStats, OpHealth, OpTxnGet, OpTxnCommit} {
		resp := randResponse(rng, op)
		frame := AppendResponse(nil, &resp)
		f.Add(frame[FrameHeader:])
	}
	ringOK := Response{ID: 9, Op: OpRing, Status: StatusOK, Value: []byte{1, 1, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0}}
	f.Add(AppendResponse(nil, &ringOK)[FrameHeader:])
	notMine := Response{ID: 10, Op: OpPut, Status: StatusNotMine, Msg: "epoch 3 != 4"}
	f.Add(AppendResponse(nil, &notMine)[FrameHeader:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, _ = DecodeResponse(payload) //nolint:errcheck
	})
}

func FuzzReadFrame(f *testing.F) {
	req := Request{ID: 1, Op: OpPut, Key: "k", Value: []byte("v")}
	frame, _ := AppendRequest(nil, &req) //nolint:errcheck
	f.Add(frame)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		for {
			if _, err := ReadFrame(r, 1<<16); err != nil {
				return
			}
		}
	})
}
