package replica_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstore/internal/replica"
	"dstore/internal/server"
	"dstore/internal/wire"
)

// memPrimary is a minimal server.Backend + server.Replicator: an in-memory
// committed log with a recycling horizon. Data ops are inert — the tailer
// only exercises the replication surface.
type memPrimary struct {
	mu      sync.Mutex
	recs    []wire.Record
	horizon uint64
}

var errGone = errors.New("memPrimary: position recycled")

func (p *memPrimary) append(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < n; i++ {
		lsn := uint64(len(p.recs) + 1)
		p.recs = append(p.recs, wire.Record{
			LSN:  lsn,
			Op:   3,
			Name: []byte(fmt.Sprintf("o%d", lsn)),
			Data: []byte{byte(lsn)},
		})
	}
}

func (p *memPrimary) ExportCommitted(from uint64, max int) ([]wire.Record, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if from < p.horizon {
		return nil, errGone
	}
	var out []wire.Record
	for i := range p.recs {
		if p.recs[i].LSN > from {
			out = append(out, p.recs[i])
			if len(out) >= max {
				break
			}
		}
	}
	return out, nil
}

func (p *memPrimary) LastLSN() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return uint64(len(p.recs))
}

func (p *memPrimary) Put(string, []byte) error                { return nil }
func (p *memPrimary) Get(string) ([]byte, error)              { return nil, errGone }
func (p *memPrimary) Delete(string) error                     { return nil }
func (p *memPrimary) Scan(string, int) ([]wire.Object, error) { return nil, nil }
func (p *memPrimary) Stats() wire.StatsReply                  { return wire.StatsReply{} }
func (p *memPrimary) Health() wire.HealthReply                { return wire.HealthReply{} }
func (p *memPrimary) Checkpoint() error                       { return nil }
func (p *memPrimary) ErrorStatus(err error) (wire.Status, string) {
	if errors.Is(err, errGone) {
		return wire.StatusReplGap, err.Error()
	}
	return wire.StatusInternal, err.Error()
}

// memApplier records applied LSNs in order, checking contiguity.
type memApplier struct {
	mu   sync.Mutex
	lsns []uint64
	last atomic.Uint64
}

func (a *memApplier) ApplyReplicated(rec wire.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if rec.LSN <= a.last.Load() {
		return nil // idempotent re-apply after resubscribe overlap
	}
	if rec.LSN != a.last.Load()+1 {
		return fmt.Errorf("gap: applied %d then %d", a.last.Load(), rec.LSN)
	}
	a.lsns = append(a.lsns, rec.LSN)
	a.last.Store(rec.LSN)
	return nil
}

func (a *memApplier) AppliedLSN() uint64 { return a.last.Load() }

func startPrimary(t *testing.T, p *memPrimary, cfg server.Config) (string, *server.Server) {
	t.Helper()
	srv := server.New(p, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	return ln.Addr().String(), srv
}

func waitLSN(t *testing.T, a *memApplier, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for a.AppliedLSN() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := a.AppliedLSN(); got < want {
		t.Fatalf("applied LSN %d never reached %d", got, want)
	}
}

// The tailer subscribes, applies the backlog and then live appends in strict
// LSN order, and its acks converge the primary's replication frontier.
func TestStandbyTailsAndAcks(t *testing.T) {
	p := &memPrimary{}
	p.append(20)
	addr, srv := startPrimary(t, p, server.Config{})
	a := &memApplier{}
	s, err := replica.Start(replica.Config{Addr: addr, Store: a})
	if err != nil {
		t.Fatal(err)
	}
	waitLSN(t, a, 20)
	p.append(15)
	waitLSN(t, a, 35)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ReplAcked < 35 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().ReplAcked; got < 35 {
		t.Fatalf("primary ReplAcked = %d, want 35 (caught-up ack missing)", got)
	}
	if st := s.Stats(); st.Applied != 35 || st.Resubscribes != 1 || st.PrimaryLSN != 35 {
		t.Fatalf("tailer stats: %+v", st)
	}
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// A dropped connection is resubscribed from the applied LSN: no gap, no
// duplicate effect, and the stream converges after the cut.
func TestStandbyResubscribesAfterCut(t *testing.T) {
	p := &memPrimary{}
	p.append(10)
	addr, srv := startPrimary(t, p, server.Config{})
	a := &memApplier{}
	s, err := replica.Start(replica.Config{Addr: addr, Store: a})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop() //nolint:errcheck // teardown
	waitLSN(t, a, 10)

	srv.CloseConns() // cut every conn; the tailer must come back on its own
	p.append(10)
	waitLSN(t, a, 20)
	if st := s.Stats(); st.Resubscribes < 2 {
		t.Fatalf("Resubscribes = %d after a cut, want >= 2", st.Resubscribes)
	}
	// Contiguity was enforced by memApplier; double-check the count.
	a.mu.Lock()
	n := len(a.lsns)
	a.mu.Unlock()
	if n != 20 {
		t.Fatalf("applied %d distinct records, want 20", n)
	}
}

// A position behind the primary's recycling horizon is terminal: the tailer
// stops with ErrReseed instead of retrying forever.
func TestStandbyReseedVerdictTerminal(t *testing.T) {
	p := &memPrimary{}
	p.append(10)
	p.mu.Lock()
	p.horizon = 5
	p.mu.Unlock()
	addr, _ := startPrimary(t, p, server.Config{})
	a := &memApplier{} // position 0 < horizon 5
	s, err := replica.Start(replica.Config{Addr: addr, Store: a})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("tailer did not stop on reseed verdict")
	}
	if err := s.Err(); !errors.Is(err, replica.ErrReseed) {
		t.Fatalf("terminal error = %v, want ErrReseed", err)
	}
	if a.AppliedLSN() != 0 {
		t.Fatalf("applied %d records from a refused position", a.AppliedLSN())
	}
}
