package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dstore/internal/server"
	"dstore/internal/wire"
)

// fakeRepl is a fakeBackend that also implements server.Replicator and
// server.Promoter: an in-memory committed log with a recycling horizon, so
// the feed, ack, slow-follower, and gap paths can be tested without a store.
type fakeRepl struct {
	*fakeBackend

	rmu      sync.Mutex
	recs     []wire.Record
	dataLen  int    // when non-zero, the Data bytes each appended record carries
	horizon  uint64 // positions at or below this are recycled
	promotes int
}

var errFakeGap = errors.New("fake: position truncated")

func newFakeRepl() *fakeRepl { return &fakeRepl{fakeBackend: newFake()} }

// appendRecs extends the committed log by n records with distinguishable
// fields.
func (f *fakeRepl) appendRecs(n int) {
	f.rmu.Lock()
	defer f.rmu.Unlock()
	for i := 0; i < n; i++ {
		lsn := uint64(len(f.recs) + 1)
		data := []byte(fmt.Sprintf("data-%d", lsn))
		if f.dataLen > 0 {
			data = make([]byte, f.dataLen)
		}
		f.recs = append(f.recs, wire.Record{
			LSN:     lsn,
			Op:      uint16(lsn % 7),
			Name:    []byte(fmt.Sprintf("obj-%d", lsn)),
			Payload: []byte{byte(lsn), byte(lsn >> 8)},
			Data:    data,
		})
	}
}

func (f *fakeRepl) ExportCommitted(from uint64, max int) ([]wire.Record, error) {
	f.rmu.Lock()
	defer f.rmu.Unlock()
	if from < f.horizon {
		return nil, errFakeGap
	}
	var out []wire.Record
	for i := range f.recs {
		if f.recs[i].LSN <= from {
			continue
		}
		out = append(out, f.recs[i])
		if len(out) >= max {
			break
		}
	}
	return out, nil
}

func (f *fakeRepl) LastLSN() uint64 {
	f.rmu.Lock()
	defer f.rmu.Unlock()
	return uint64(len(f.recs))
}

func (f *fakeRepl) Promote() error {
	f.rmu.Lock()
	defer f.rmu.Unlock()
	f.promotes++
	return nil
}

func (f *fakeRepl) ErrorStatus(err error) (wire.Status, string) {
	if errors.Is(err, errFakeGap) {
		return wire.StatusReplGap, err.Error()
	}
	return f.fakeBackend.ErrorStatus(err)
}

// recvRecord reads one record frame off the subscriber stream.
func (r *rawConn) recvRecord() wire.Record {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	payload, err := wire.ReadFrame(r.br, 0)
	if err != nil {
		r.t.Fatalf("recv record: %v", err)
	}
	rec, err := wire.DecodeRecordFrame(payload)
	if err != nil {
		r.t.Fatalf("decode record: %v", err)
	}
	return rec
}

// The core subscribe→stream→ack flow: a subscriber from LSN 0 receives the
// whole committed log in order, then records committed after the
// subscription, and its acks advance the primary's replication frontier.
func TestServerReplicateStream(t *testing.T) {
	fr := newFakeRepl()
	fr.appendRecs(5)
	srv := server.New(fr, server.Config{})
	addr := startServer(t, srv)
	c := dialRaw(t, addr)

	sub := wire.ReplicateRequest(1, 0)
	c.send(&sub)
	resp := c.recv()
	if resp.Status != wire.StatusOK {
		t.Fatalf("subscribe: %v %s", resp.Status, resp.Msg)
	}
	if len(resp.Value) != 8 || binary.LittleEndian.Uint64(resp.Value) != 5 {
		t.Fatalf("subscribe ack value = %x, want primary LSN 5", resp.Value)
	}
	for want := uint64(1); want <= 5; want++ {
		rec := c.recvRecord()
		if rec.LSN != want || string(rec.Name) != fmt.Sprintf("obj-%d", want) ||
			string(rec.Data) != fmt.Sprintf("data-%d", want) {
			t.Fatalf("record %d: %+v", want, rec)
		}
	}
	if got := srv.Stats().ReplSubscribers; got != 1 {
		t.Fatalf("ReplSubscribers = %d, want 1", got)
	}

	// Records committed after the subscription flow down the same stream.
	fr.appendRecs(3)
	for want := uint64(6); want <= 8; want++ {
		if rec := c.recvRecord(); rec.LSN != want {
			t.Fatalf("live record LSN = %d, want %d", rec.LSN, want)
		}
	}

	// An ack gets no response frame (the stream carries records only), but
	// advances the primary's view of the replication frontier.
	ack := wire.ReplicateRequest(2, 8)
	c.send(&ack)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ReplAcked != 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().ReplAcked; got != 8 {
		t.Fatalf("ReplAcked = %d, want 8", got)
	}
}

// A subscribe position behind the recycling horizon is refused with
// REPL_GAP on the subscribe response itself, not a mid-stream cut, and the
// connection stays usable.
func TestServerReplicateGap(t *testing.T) {
	fr := newFakeRepl()
	fr.appendRecs(10)
	fr.horizon = 6
	addr := startServer(t, server.New(fr, server.Config{}))
	c := dialRaw(t, addr)

	sub := wire.ReplicateRequest(1, 3)
	c.send(&sub)
	if resp := c.recv(); resp.Status != wire.StatusReplGap {
		t.Fatalf("stale subscribe: %v %s, want REPL_GAP", resp.Status, resp.Msg)
	}
	// The refusal did not burn the connection's one subscription: a valid
	// position still works.
	sub2 := wire.ReplicateRequest(2, 7)
	c.send(&sub2)
	if resp := c.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("resubscribe: %v %s", resp.Status, resp.Msg)
	}
	for want := uint64(8); want <= 10; want++ {
		if rec := c.recvRecord(); rec.LSN != want {
			t.Fatalf("record LSN = %d, want %d", rec.LSN, want)
		}
	}
}

// A backend without the Replicator surface refuses OpReplicate, and one
// without Promoter refuses OpPromote — both as BAD_REQUEST, keeping the
// connection alive.
func TestServerReplicateUnsupportedBackend(t *testing.T) {
	addr := startServer(t, server.New(newFake(), server.Config{}))
	c := dialRaw(t, addr)
	sub := wire.ReplicateRequest(1, 0)
	c.send(&sub)
	if resp := c.recv(); resp.Status != wire.StatusBadRequest {
		t.Fatalf("replicate on plain backend: %v", resp.Status)
	}
	c.send(&wire.Request{ID: 2, Op: wire.OpPromote})
	if resp := c.recv(); resp.Status != wire.StatusBadRequest {
		t.Fatalf("promote on plain backend: %v", resp.Status)
	}
	c.send(&wire.Request{ID: 3, Op: wire.OpPut, Key: "k", Value: []byte("v")})
	if resp := c.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("follow-up put: %v", resp.Status)
	}
}

// OpPromote reaches the backend's Promote hook.
func TestServerPromote(t *testing.T) {
	fr := newFakeRepl()
	addr := startServer(t, server.New(fr, server.Config{}))
	c := dialRaw(t, addr)
	c.send(&wire.Request{ID: 1, Op: wire.OpPromote})
	if resp := c.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("promote: %v %s", resp.Status, resp.Msg)
	}
	fr.rmu.Lock()
	n := fr.promotes
	fr.rmu.Unlock()
	if n != 1 {
		t.Fatalf("promotes = %d, want 1", n)
	}
}

// A subscriber that never acks while the primary commits past ReplicaMaxLag
// is disconnected and counted in ReplDrops — bounded lag, not unbounded
// history pinning.
func TestServerReplicateSlowFollowerDropped(t *testing.T) {
	fr := newFakeRepl()
	srv := server.New(fr, server.Config{ReplicaMaxLag: 4})
	addr := startServer(t, srv)
	c := dialRaw(t, addr)

	sub := wire.ReplicateRequest(1, 0)
	c.send(&sub)
	if resp := c.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("subscribe: %v", resp.Status)
	}
	// Commit far past the lag bound without ever acking.
	fr.appendRecs(32)
	// The server must cut the connection: read until the stream ends.
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	for {
		if _, err := wire.ReadFrame(c.br, 0); err != nil {
			break
		}
	}
	// The feed counts the drop, then unwinds and gives up its subscriber
	// slot: wait for both.
	deadline := time.Now().Add(5 * time.Second)
	for st := srv.Stats(); (st.ReplDrops == 0 || st.ReplSubscribers != 0) && time.Now().Before(deadline); st = srv.Stats() {
		time.Sleep(time.Millisecond)
	}
	st := srv.Stats()
	if st.ReplDrops != 1 {
		t.Fatalf("ReplDrops = %d, want 1", st.ReplDrops)
	}
	if st.ReplSubscribers != 0 {
		t.Fatalf("ReplSubscribers = %d after drop, want 0", st.ReplSubscribers)
	}
}

// A subscriber that stops reading altogether blocks the feed inside its
// write, where no export round comes by to apply the lag bound: the write
// itself must come back to apply it. The follower is within the bound when it
// stalls and falls out of it only while the feed is blocked.
func TestServerReplicateStalledFollowerDropped(t *testing.T) {
	fr := newFakeRepl()
	fr.dataLen = 256 << 10
	srv := server.New(fr, server.Config{ReplicaMaxLag: 100})
	addr := startServer(t, srv)
	c := dialRaw(t, addr)

	sub := wire.ReplicateRequest(1, 0)
	c.send(&sub)
	if resp := c.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("subscribe: %v", resp.Status)
	}
	// 20 MiB the subscriber never reads: more than the socket buffers hold.
	fr.appendRecs(80)
	time.Sleep(200 * time.Millisecond)
	if st := srv.Stats(); st.ReplDrops != 0 || st.ReplSubscribers != 1 {
		t.Fatalf("a stalled follower within the lag bound was dropped: %+v", st)
	}
	fr.dataLen = 1
	fr.appendRecs(200) // now it is 280 behind
	deadline := time.Now().Add(5 * time.Second)
	for st := srv.Stats(); (st.ReplDrops == 0 || st.ReplSubscribers != 0) && time.Now().Before(deadline); st = srv.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.ReplDrops != 1 || st.ReplSubscribers != 0 {
		t.Fatalf("stalled follower past the lag bound not dropped: %+v", st)
	}
}

// A graceful Shutdown flushes the committed tail to subscribers before
// closing: every record committed at drain time arrives, then EOF.
func TestServerShutdownFlushesFeed(t *testing.T) {
	fr := newFakeRepl()
	fr.appendRecs(2)
	srv := server.New(fr, server.Config{})
	addr := startServer(t, srv)
	c := dialRaw(t, addr)

	sub := wire.ReplicateRequest(1, 0)
	c.send(&sub)
	if resp := c.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("subscribe: %v", resp.Status)
	}
	if rec := c.recvRecord(); rec.LSN != 1 {
		t.Fatalf("first record LSN = %d", rec.LSN)
	}
	// Commit more, then drain: the feed must ship LSNs 2..50 before the
	// connection closes even though no ack ever arrives.
	fr.appendRecs(48)
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	want := uint64(2)
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	for {
		payload, err := wire.ReadFrame(c.br, 0)
		if err != nil {
			break // drained and closed
		}
		rec, err := wire.DecodeRecordFrame(payload)
		if err != nil {
			t.Fatalf("decode during drain: %v", err)
		}
		if rec.LSN != want {
			t.Fatalf("drain record LSN = %d, want %d", rec.LSN, want)
		}
		want++
	}
	if want != 51 {
		t.Fatalf("drain delivered through LSN %d, want 50", want-1)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
