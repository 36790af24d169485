package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The golden frames in testdata/golden_frames.txt were produced by the
// encoder as it stood before the STATS/HEALTH codec became table-driven
// (one "<name> <hex frame>" line per case below). They pin the protocol's
// compatibility contract in one place: every combination of the five
// optional STATS sections, with and without per-shard rows, encodes to
// exactly the bytes older peers produce and expect — an absent section
// costs nothing, a present one forces zeroed delimiters for the absent ones
// before it — and decodes back to the reply it was built from. A handful of
// non-STATS frames ride along so the plain request/response shapes are
// pinned by bytes too. New sections or opcodes append cases and lines; the
// existing lines never change.

// goldenCase is one named frame: a request or a response.
type goldenCase struct {
	name string
	req  *Request
	resp *Response
}

// goldenStat fills one counter row with distinct values derived from base.
func goldenStat(s *ShardStat, base uint64) {
	s.Puts, s.Gets, s.Deletes = base+1, base+2, base+3
	s.Reads, s.Writes, s.Opens = base+4, base+5, base+6
	s.Objects, s.Checkpoints, s.RecordsReplayed = base+7, base+8, base+9
	s.DRAMBytes, s.PMEMBytes, s.SSDBytes = base+10, base+11, base+12
}

func goldenStats(rows int, cache, repl, txn, batch bool) *StatsReply {
	st := &StatsReply{ServerConns: 113, ServerRequests: 114}
	goldenStat(&st.ShardStat, 100)
	for i := 0; i < rows; i++ {
		var row ShardStat
		goldenStat(&row, uint64(1000*(i+1)))
		st.Shards = append(st.Shards, row)
	}
	if cache {
		c := &CacheReply{CacheStat: CacheStat{Hits: 201, Misses: 202, Evictions: 203, Bytes: 204, Capacity: 205}}
		for i := 0; i < rows; i++ {
			b := uint64(2000 * (i + 1))
			c.Shards = append(c.Shards, CacheStat{Hits: b + 1, Misses: b + 2, Evictions: b + 3, Bytes: b + 4, Capacity: b + 5})
		}
		st.Cache = c
	}
	if repl {
		st.Repl = &ReplReply{Role: ReplRoleStandby, Subscribers: 302, Drops: 303, LastLSN: 304, AckedLSN: 305}
	}
	if txn {
		st.Txn = &TxnReply{Commits: 401, Aborts: 402, Conflicts: 403}
	}
	if batch {
		st.Batch = &BatchReply{Batches: 501, Records: 502, Parked: 503}
	}
	return st
}

func goldenHealth(rows int) *HealthReply {
	h := &HealthReply{ShardHealth: ShardHealth{Degraded: true, Reason: "shard 1: injected",
		IORetries: 1, WriteErrors: 2, Corruptions: 3, Remaps: 4, QuarantinedBlocks: []uint64{7, 8, 9}}}
	for i := 0; i < rows; i++ {
		row := ShardHealth{IORetries: uint64(10 * (i + 1)), WriteErrors: 1, Corruptions: 2, Remaps: 3}
		if i == 1 {
			row.Degraded, row.Reason = true, "injected"
			row.QuarantinedBlocks = []uint64{7, 8, 9}
		}
		h.Shards = append(h.Shards, row)
	}
	return h
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	bit := func(mask, i int) bool { return mask>>i&1 == 1 }
	for _, rows := range []int{0, 3} {
		for mask := 0; mask < 16; mask++ {
			name := fmt.Sprintf("stats/rows=%d/cache=%t/repl=%t/txn=%t/batch=%t",
				rows, bit(mask, 0), bit(mask, 1), bit(mask, 2), bit(mask, 3))
			cases = append(cases, goldenCase{name: name, resp: &Response{ID: 7, Op: OpStats, Status: StatusOK,
				Stats: goldenStats(rows, bit(mask, 0), bit(mask, 1), bit(mask, 2), bit(mask, 3))}})
		}
		cases = append(cases, goldenCase{name: fmt.Sprintf("health/rows=%d", rows),
			resp: &Response{ID: 8, Op: OpHealth, Status: StatusOK, Health: goldenHealth(rows)}})
	}
	return append(cases,
		goldenCase{name: "req/put", req: &Request{ID: 1, Op: OpPut, Key: "user/1", Value: []byte("hello")}},
		goldenCase{name: "req/scan", req: &Request{ID: 4, Op: OpScan, Key: "user/", Value: []byte{}, Limit: 100}},
		goldenCase{name: "req/txn-commit", req: &Request{ID: 5, Op: OpTxnCommit, Value: []byte{}, Limit: 3}},
		goldenCase{name: "req/ring", req: &Request{ID: 6, Op: OpRing, Value: []byte{}}},
		goldenCase{name: "resp/put-ok", resp: &Response{ID: 1, Op: OpPut, Status: StatusOK}},
		goldenCase{name: "resp/get-ok", resp: &Response{ID: 2, Op: OpGet, Status: StatusOK, Value: []byte("hello")}},
		goldenCase{name: "resp/get-notfound", resp: &Response{ID: 3, Op: OpGet, Status: StatusNotFound, Msg: "gone"}},
		goldenCase{name: "resp/scan", resp: &Response{ID: 4, Op: OpScan, Status: StatusOK,
			Objects: []Object{{Name: "a", Size: 1, Blocks: 1}}}},
	)
}

// encode frames the case with the current encoder.
func (c goldenCase) encode(t *testing.T) []byte {
	t.Helper()
	if c.req != nil {
		frame, err := AppendRequest(nil, c.req)
		if err != nil {
			t.Fatalf("%s: AppendRequest: %v", c.name, err)
		}
		return frame
	}
	return AppendResponse(nil, c.resp)
}

func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open("testdata/golden_frames.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string][]byte{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hexFrame, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("golden line without a frame: %q", sc.Text())
		}
		frame, err := hex.DecodeString(hexFrame)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		golden[name] = frame
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestGoldenFrames asserts encode == golden and decode(golden) == the value
// the frame was built from, for every case.
func TestGoldenFrames(t *testing.T) {
	golden := readGolden(t)
	cases := goldenCases()
	if len(golden) != len(cases) {
		t.Errorf("golden file has %d frames, test has %d cases", len(golden), len(cases))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("%s: no golden frame", c.name)
			continue
		}
		if got := c.encode(t); !bytes.Equal(got, want) {
			t.Errorf("%s: encoding changed:\n got %x\nwant %x", c.name, got, want)
		}
		payload := roundTripPayload(t, want)
		if c.req != nil {
			got, err := DecodeRequest(payload)
			if err != nil {
				t.Errorf("%s: DecodeRequest(golden): %v", c.name, err)
			} else if !reflect.DeepEqual(&got, c.req) {
				t.Errorf("%s: golden decoded to\n %+v\nwant %+v", c.name, got, *c.req)
			}
			continue
		}
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Errorf("%s: DecodeResponse(golden): %v", c.name, err)
		} else if !reflect.DeepEqual(&got, c.resp) {
			t.Errorf("%s: golden decoded to\n %+v\nwant %+v", c.name, got, *c.resp)
		}
	}
}

// TestStatsMalformedRejected corrupts the count words and the tail of a
// maximal STATS frame and of a sharded HEALTH frame: a count the remaining
// bytes cannot satisfy must be rejected as malformed before anything is
// allocated for it, and a section cut short must not decode partially.
func TestStatsMalformedRejected(t *testing.T) {
	stats := AppendResponse(nil, &Response{ID: 7, Op: OpStats, Status: StatusOK,
		Stats: goldenStats(3, true, false, true, false)})[FrameHeader:]
	health := AppendResponse(nil, &Response{ID: 8, Op: OpHealth, Status: StatusOK,
		Health: &HealthReply{Shards: make([]ShardHealth, 3)}})[FrameHeader:]
	shardCount := respFixed + 14*8                 // after the fixed block
	cacheCount := shardCount + 4 + 3*12*8 + 5*8    // after the shard rows and the cache aggregate
	healthCount := respFixed + shardHealthMinBytes // after the (empty) aggregate row
	for _, c := range []struct {
		name    string
		payload []byte
		off     int // count word to blow up; -1 truncates the tail instead
	}{
		{"shard stats count", stats, shardCount},
		{"cache stats count", stats, cacheCount},
		{"truncated txn section", stats, -1},
		{"shard health count", health, healthCount},
	} {
		p := append([]byte(nil), c.payload...)
		if c.off < 0 {
			p = p[:len(p)-4]
		} else {
			p[c.off], p[c.off+1] = 0xff, 0xff
		}
		if _, err := DecodeResponse(p); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: decoded with %v, want ErrMalformed", c.name, err)
		}
	}
}
