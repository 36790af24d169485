// Package replica implements the remote standby side of phase-one
// replication: it dials a primary's wire-protocol server, subscribes to the
// committed WAL stream from its own applied position, applies every shipped
// record to a local standby store, and acknowledges applied LSNs so the
// primary can bound follower lag. A dropped connection is resubscribed from
// the applied LSN — which survives a standby crash, because applied records
// live in the standby's own WAL and are recovered as a committed prefix.
//
// The package depends only on internal/wire (the standby store is injected
// behind the Applier interface), mirroring the server package's layering:
// wire ← replica ← cmd.
package replica

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dstore/internal/wire"
)

// Applier is the standby store surface the tailer drives (implemented by
// *dstore.Store in standby mode).
type Applier interface {
	// ApplyReplicated applies one shipped record (data plus WAL record);
	// it must be idempotent for LSNs at or below the applied position.
	ApplyReplicated(rec wire.Record) error
	// AppliedLSN is the highest durably applied LSN — the subscribe and
	// resubscribe position, and the LSN acked to the primary.
	AppliedLSN() uint64
}

// ErrReseed is returned when the primary refused the subscription because
// the standby's position predates the primary's log recycling horizon: the
// standby cannot be caught up record-by-record and must be re-seeded from a
// fresh copy.
var ErrReseed = errors.New("replica: position truncated on primary; standby must re-seed")

// Config tunes a Standby. Addr and Store are required.
type Config struct {
	// Addr is the primary server's address (host:port).
	Addr string
	// Store is the local standby store records are applied to.
	Store Applier
	// Logf, when non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

const (
	// ackEvery acknowledges after this many applied records (an ack is also
	// sent when the stream goes idle).
	ackEvery = 32
	// retryBackoff is the delay between resubscribe attempts after a
	// connection failure.
	retryBackoff = 100 * time.Millisecond
	// dialTimeout bounds each dial.
	dialTimeout = 5 * time.Second
)

// Stats counts tailer progress.
type Stats struct {
	// Applied counts records applied since Start.
	Applied uint64
	// Resubscribes counts connections established (1 for an uninterrupted
	// run).
	Resubscribes uint64
	// PrimaryLSN is the primary's last LSN as of the latest subscribe ack
	// or shipped record — the standby-side lag estimate is
	// PrimaryLSN − Store.AppliedLSN().
	PrimaryLSN uint64
}

// Standby tails a primary into a local standby store until stopped.
type Standby struct {
	cfg Config

	applied      atomic.Uint64
	resubscribes atomic.Uint64
	primaryLSN   atomic.Uint64

	mu      sync.Mutex
	conn    net.Conn // current connection, for Stop to unblock reads
	stopped bool

	stop chan struct{}
	done chan struct{}
	err  error // terminal verdict, set before done closes
}

// Start begins tailing in a background goroutine.
func Start(cfg Config) (*Standby, error) {
	if cfg.Addr == "" || cfg.Store == nil {
		return nil, fmt.Errorf("replica: Addr and Store are required")
	}
	s := &Standby{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go s.run()
	return s, nil
}

// Stats snapshots tailer progress.
func (s *Standby) Stats() Stats {
	return Stats{
		Applied:      s.applied.Load(),
		Resubscribes: s.resubscribes.Load(),
		PrimaryLSN:   s.primaryLSN.Load(),
	}
}

// Stop ends tailing and waits for the loop to exit. It returns the terminal
// error, if any: nil after a clean stop, ErrReseed when the primary refused
// the position. Safe to call more than once.
func (s *Standby) Stop() error {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
		if s.conn != nil {
			s.conn.Close() //nolint:errcheck // unblocks the read loop
		}
	}
	s.mu.Unlock()
	<-s.done
	return s.err
}

// Done is closed when the tailer exits (Stop, or a terminal error such as
// ErrReseed). Err then reports the verdict.
func (s *Standby) Done() <-chan struct{} { return s.done }

// Err returns the terminal error once Done is closed.
func (s *Standby) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// logf logs through the configured sink, if any.
func (s *Standby) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// run is the resubscribe loop: each session tails until the connection
// drops, then the next one resumes from the durably applied LSN.
func (s *Standby) run() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		err := s.session()
		if err != nil && errors.Is(err, ErrReseed) {
			s.err = err
			return
		}
		select {
		case <-s.stop:
			return
		case <-time.After(retryBackoff):
		}
		if err != nil {
			s.logf("replica: session ended: %v (resubscribing from %d)",
				err, s.cfg.Store.AppliedLSN())
		}
	}
}

// setConn publishes the live connection for Stop; it reports false (and
// closes nc) when the standby is already stopping.
func (s *Standby) setConn(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		nc.Close() //nolint:errcheck // raced with Stop; session never starts
		return false
	}
	s.conn = nc
	return true
}

// session runs one subscribe-and-apply stream over one connection.
func (s *Standby) session() error {
	nc, err := net.DialTimeout("tcp", s.cfg.Addr, dialTimeout)
	if err != nil {
		return err
	}
	if !s.setConn(nc) {
		return nil
	}
	defer nc.Close() //nolint:errcheck // session teardown; resubscribe handles the rest
	s.resubscribes.Add(1)

	from := s.cfg.Store.AppliedLSN()
	bw := bufio.NewWriterSize(nc, 32<<10)
	br := bufio.NewReaderSize(nc, 256<<10)
	reqID := uint64(1)
	send := func(lsn uint64) error {
		req := wire.ReplicateRequest(reqID, lsn)
		reqID++
		frame, err := wire.AppendRequest(nil, &req)
		if err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		return bw.Flush()
	}
	if err := send(from); err != nil {
		return err
	}

	// The subscribe response is the only response frame on this stream;
	// every following frame is a record.
	payload, err := wire.ReadFrame(br, wire.MaxFrame)
	if err != nil {
		return err
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		return err
	}
	switch resp.Status {
	case wire.StatusOK:
		if len(resp.Value) == 8 {
			s.primaryLSN.Store(binary.LittleEndian.Uint64(resp.Value))
		}
	case wire.StatusReplGap:
		return fmt.Errorf("%w: %s", ErrReseed, resp.Msg)
	default:
		return fmt.Errorf("replica: subscribe refused: %s %s", resp.Status, resp.Msg)
	}
	s.logf("replica: subscribed to %s from LSN %d (primary at %d)",
		s.cfg.Addr, from, s.primaryLSN.Load())

	sinceAck := 0
	for {
		payload, err := wire.ReadFrame(br, wire.MaxFrame)
		if err != nil {
			return err
		}
		rec, err := wire.DecodeRecordFrame(payload)
		if err != nil {
			return fmt.Errorf("replica: bad record frame: %w", err)
		}
		if err := s.cfg.Store.ApplyReplicated(rec); err != nil {
			// The standby store refused the record (degraded, closed):
			// resubscribing will not help until the operator intervenes,
			// but it is not a reseed either — keep retrying with backoff.
			return fmt.Errorf("replica: apply LSN %d: %w", rec.LSN, err)
		}
		s.applied.Add(1)
		if rec.LSN > s.primaryLSN.Load() {
			s.primaryLSN.Store(rec.LSN)
		}
		// Ack on cadence, and opportunistically whenever the stream has no
		// more buffered records (the caught-up point): the primary's lag
		// view then converges to zero without idle-timeout machinery.
		if sinceAck++; sinceAck >= ackEvery || br.Buffered() == 0 {
			if err := send(s.cfg.Store.AppliedLSN()); err != nil {
				return err
			}
			sinceAck = 0
		}
	}
}
