// Package server implements DStore's TCP front end: a pipelined
// request/response server speaking the internal/wire protocol over a
// Backend (normally a *dstore.Store via its NetBackend adapter).
//
// The design moves coordination out of the data path, in the spirit of the
// paper's decoupled control/data planes:
//
//   - Each connection gets one reader goroutine and no writer: whoever has
//     a frame for the socket writes it, one at a time (conn.write). The
//     reader parses frames. A PUT, GET or DELETE that arrives alone —
//     nothing of the connection's in flight, nothing more buffered — it
//     runs and answers itself: no goroutine change inside the server. Every
//     other request gets its own handler goroutine; handlers complete in
//     any order, so responses ship out of order — a PUT stalled on a slow
//     or faulty device never head-of-line-blocks the GETs pipelined behind
//     it. What it can hold up is a request that reaches an idle connection
//     while the reader is inside that one op: it waits for that op, never
//     for more than one, never for an op it was pipelined behind.
//   - In-flight requests per connection are bounded by a window semaphore.
//     When the window is full the reader simply stops reading; TCP flow
//     control pushes back on the client (bounded memory, no drops).
//   - Malformed input (bad CRC, oversized frame, truncated stream, garbage)
//     closes that connection with a protocol-error count; it never panics
//     and never affects other connections.
//   - Shutdown drains gracefully: listeners close, readers stop accepting
//     new frames, in-flight handlers finish and their responses flush, and
//     then the backend is checkpointed so a following process exit loses
//     nothing. Degraded-mode stores keep serving reads through all of this;
//     writes fail fast with StatusDegraded.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dstore/internal/wire"
)

// Backend is the store surface the server drives. Implementations must be
// safe for concurrent use; every method may be called from many handler
// goroutines at once. Errors returned by the operation methods are mapped
// onto wire statuses by ErrorStatus, keeping this package free of a
// dependency on the root dstore package.
type Backend interface {
	// Put stores value under key. value is only valid for the duration of
	// the call (the server recycles the underlying frame buffer afterwards);
	// implementations that retain it must copy.
	Put(key string, value []byte) error
	// Get returns key's value.
	Get(key string) ([]byte, error)
	// Delete removes key.
	Delete(key string) error
	// Scan lists up to limit objects with the given name prefix.
	Scan(prefix string, limit int) ([]wire.Object, error)
	// Stats snapshots store counters (the server overlays its own).
	Stats() wire.StatsReply
	// Health snapshots the fault/integrity status.
	Health() wire.HealthReply
	// Checkpoint runs one synchronous checkpoint (also invoked by Shutdown).
	Checkpoint() error
	// ErrorStatus maps an error returned by the methods above to its wire
	// status and detail message.
	ErrorStatus(err error) (wire.Status, string)
}

// Replicator is the optional backend surface behind OpReplicate. A backend
// that implements it can stream its committed WAL suffix to subscribers;
// one that does not rejects OpReplicate with StatusBadRequest.
type Replicator interface {
	// ExportCommitted returns up to max committed records with LSN > from,
	// paired with the data they reference. An error means the subscriber
	// cannot be served from that position (e.g. the log was recycled past
	// it) and must re-seed.
	ExportCommitted(from uint64, max int) ([]wire.Record, error)
	// LastLSN is the most recently committed LSN (the feed's target; the
	// gap to a subscriber's acked LSN is its lag).
	LastLSN() uint64
}

// Promoter is the optional backend surface behind OpPromote: it opens a
// standby backend for writes.
type Promoter interface {
	Promote() error
}

// Ringer is the optional backend surface behind OpRing and the request
// epoch check. A resharding-capable backend exposes its routing ring
// (internal/ring encoding) and current epoch; the server then rejects data
// requests carrying a mismatched epoch with StatusNotMine so stale clients
// re-fetch the ring instead of writing through a stale shard map. Backends
// without it ignore request epochs and reject OpRing with StatusBadRequest.
type Ringer interface {
	// RingEpoch is the backend's current ring epoch.
	RingEpoch() uint64
	// RingData is the ring's deterministic serialization (OpRing's payload).
	RingData() []byte
}

// BatchBackend is the optional backend surface behind the batched OpM*
// opcodes. Implementations fan the sub-ops out however suits them (the
// sharded backend groups them by ring owner, one backend call per shard);
// each result slot is nil for success or the sub-op's error. The request's
// ring epoch is passed through so a resharding backend can re-check it per
// sub-op: the frame-level fence runs once before dispatch, but a reshard
// can land mid-batch, and the epoch a sub-op is applied under must be the
// one the client routed with. Backends without it get a per-key fallback
// loop over the plain Backend methods.
type BatchBackend interface {
	// MPut stores values[i] under keys[i]. Like Backend.Put, values are
	// only valid for the duration of the call.
	MPut(epoch uint64, keys []string, values [][]byte) []error
	// MGet retrieves keys; vals[i] is meaningful where errs[i] is nil.
	MGet(epoch uint64, keys []string) (vals [][]byte, errs []error)
	// MDelete removes keys.
	MDelete(epoch uint64, keys []string) []error
}

// TxnBackend is the optional backend surface behind the OpTxn* opcodes. A
// backend that does not implement it rejects transaction requests with
// StatusBadRequest.
type TxnBackend interface {
	// BeginTxn opens one transaction session.
	BeginTxn() (Txn, error)
}

// Txn is one server-side transaction session. The server serializes calls on
// a session (clients address sessions by id, and concurrent requests for the
// same id queue on a per-session mutex), so implementations need not be
// goroutine-safe. Put's value is only valid for the duration of the call —
// the server recycles the frame buffer it aliases — so implementations that
// buffer it must copy.
type Txn interface {
	Get(key string) ([]byte, error)
	Put(key string, value []byte) error
	Delete(key string) error
	Commit() error
	Abort() error
}

// Config tunes a Server. The zero value is usable; a MaxConns, Window or
// MaxScan ≤ 0 takes its default.
type Config struct {
	// MaxConns bounds concurrent connections; further accepts are closed
	// immediately. Default 256.
	MaxConns int
	// Window bounds in-flight requests per connection; when full, the
	// connection's reader stops reading (TCP backpressure). Default 64.
	Window int
	// MaxScan caps SCAN result counts (and is the limit applied when a scan
	// request asks for 0). Default 1024.
	MaxScan int
	// IdleTimeout closes a connection whose reader sees no frame for this
	// long. 0 disables. Subscriber connections are exempt once subscribed
	// (their inbound direction carries only occasional acks).
	IdleTimeout time.Duration
	// ReplicaMaxLag disconnects a replication subscriber whose acked LSN
	// falls more than this many LSNs behind the primary (a slow follower
	// must not pin unbounded log history or memory). Default 65536;
	// negative disables the check. Tests set a lag of a few commits to
	// reach the bound in bounded time.
	ReplicaMaxLag int
}

func (c *Config) setDefaults() {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MaxScan <= 0 {
		c.MaxScan = 1024
	}
	if c.ReplicaMaxLag == 0 {
		c.ReplicaMaxLag = 65536
	}
}

// Stats counts server-level events.
type Stats struct {
	// Accepted counts connections admitted; Rejected counts connections
	// closed at accept because MaxConns was reached.
	Accepted, Rejected uint64
	// Active is the current connection count.
	Active uint64
	// Requests counts requests dispatched to the backend.
	Requests uint64
	// ProtocolErrors counts connections dropped for malformed input.
	ProtocolErrors uint64
	// ReplSubscribers is the current replication subscriber count;
	// ReplDrops counts subscribers disconnected for exceeding ReplicaMaxLag.
	ReplSubscribers, ReplDrops uint64
	// ReplAcked is the lowest acked LSN among current subscribers (the
	// primary's replication frontier; LastLSN − ReplAcked is the worst
	// follower's lag). 0 when there are no subscribers.
	ReplAcked uint64
}

// ErrServerClosed is returned by Serve after Shutdown completes.
var ErrServerClosed = errors.New("server: closed")

// bufPool recycles the buffers request payloads are read into, so the
// steady-state per-request hot path allocates nothing for framing. Buffers
// whose capacity outgrew poolBufCap are left to the GC on put-back: one
// oversized frame must not pin megabytes for the life of the pool.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// poolBufCap is the largest buffer capacity the pool (or a conn's wbuf) retains.
const poolBufCap = 256 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > poolBufCap {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// Server serves the wire protocol over a Backend.
type Server struct {
	b   Backend
	cfg Config

	mu        sync.Mutex
	listeners map[net.Listener]struct{} // guarded by mu
	conns     map[*conn]struct{}        // guarded by mu
	draining  bool                      // guarded by mu

	connWG sync.WaitGroup

	accepted  atomic.Uint64
	rejected  atomic.Uint64
	active    atomic.Uint64
	requests  atomic.Uint64
	protoErrs atomic.Uint64
	replSubs  atomic.Uint64
	replDrops atomic.Uint64
}

// New creates a Server over b.
func New(b Backend, cfg Config) *Server {
	cfg.setDefaults()
	return &Server{
		b:         b,
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
	}
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	var minAcked uint64
	s.mu.Lock()
	for c := range s.conns {
		if c.replOn.Load() {
			if a := c.acked.Load(); minAcked == 0 || a < minAcked {
				minAcked = a
			}
		}
	}
	s.mu.Unlock()
	return Stats{
		ReplAcked:       minAcked,
		Accepted:        s.accepted.Load(),
		Rejected:        s.rejected.Load(),
		Active:          s.active.Load(),
		Requests:        s.requests.Load(),
		ProtocolErrors:  s.protoErrs.Load(),
		ReplSubscribers: s.replSubs.Load(),
		ReplDrops:       s.replDrops.Load(),
	}
}

// Serve accepts connections on ln until Shutdown. It always closes ln and
// returns ErrServerClosed after a graceful shutdown, or the first
// non-temporary accept error otherwise. Multiple Serve calls on different
// listeners may run concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close() //nolint:errcheck // best-effort close of a rejected listener
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
		ln.Close() //nolint:errcheck // listener teardown; accept loop already ended
	}()

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			return err
		}
		if !s.admit(nc) {
			s.rejected.Add(1)
			nc.Close() //nolint:errcheck // over-limit connection is discarded unused
		}
	}
}

// admit registers nc and starts its goroutines, or reports false when the
// server is draining or at MaxConns.
func (s *Server) admit(nc net.Conn) bool {
	s.mu.Lock()
	if s.draining || len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		return false
	}
	c := &conn{
		srv:        s,
		nc:         nc,
		slots:      make(chan struct{}, s.cfg.Window),
		closing:    make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()

	s.accepted.Add(1)
	s.active.Add(1)
	go c.run()
	return true
}

// CloseConns force-closes every live connection without draining or
// stopping the listeners. Clients see a transport error and reconnect; use
// Shutdown for a graceful exit.
func (s *Server) CloseConns() {
	s.mu.Lock()
	conns := slices.Collect(maps.Keys(s.conns))
	s.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
}

// Shutdown performs a graceful drain: stop accepting, let in-flight
// requests finish and their responses flush, close the connections, then
// checkpoint the backend so a following process exit is durable. If ctx
// expires first the remaining connections are closed hard (their in-flight
// requests still complete against the backend; only the responses are
// lost). The checkpoint runs in every case.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for ln := range s.listeners {
		ln.Close() //nolint:errcheck // unblocks Accept; Serve returns ErrServerClosed
	}
	conns := slices.Collect(maps.Keys(s.conns))
	s.mu.Unlock()

	for _, c := range conns {
		c.beginDrain()
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		for _, c := range conns {
			c.close()
		}
		<-done
	}

	if s.b.Health().Degraded {
		// The store's persistence path is failing; a final checkpoint
		// cannot succeed and must not fail the drain. Its committed state
		// is already as durable as it can be.
		return drainErr
	}
	if err := s.b.Checkpoint(); err != nil {
		return fmt.Errorf("server: shutdown checkpoint: %w", err)
	}
	return drainErr
}

// --------------------------------------------------------------------- conn

// conn is one client connection: a reader loop (runs in run, and runs a
// request that arrives alone) and up to Window concurrent handler goroutines.
type conn struct {
	srv *Server
	nc  net.Conn

	wmu    sync.Mutex   // one frame at a time reaches the socket
	wbuf   []byte       // frames waiting for the responder queued last; guarded by wmu
	queued atomic.Int32 // responders at or inside wmu

	slots      chan struct{} // in-flight window semaphore
	closing    chan struct{} // closed exactly once to abort everything
	readerDone chan struct{} // closed when readLoop returns

	closeOnce sync.Once
	draining  atomic.Bool
	handlers  sync.WaitGroup

	// Replication subscriber state: replOn flips once (the first
	// OpReplicate wins the CAS and starts the feed; later ones are acks)
	// and acked tracks the highest LSN the subscriber confirmed applying.
	replOn atomic.Bool
	acked  atomic.Uint64

	txnMu sync.Mutex
	txns  map[uint32]*connTxn // open transaction sessions; guarded by txnMu
}

// connTxn is one client transaction session. mu serializes operations on the
// session: handlers run concurrently, and a (misbehaving) client pipelining
// requests for the same transaction id must queue, not race the backend
// session, which is single-goroutine by contract.
type connTxn struct {
	mu  sync.Mutex
	txn Txn
}

// close aborts the connection immediately.
func (c *conn) close() {
	c.closeOnce.Do(func() {
		close(c.closing)
		c.nc.Close() //nolint:errcheck // teardown; the sockets's fate is sealed either way
	})
}

// beginDrain stops the reader without killing in-flight work: the read
// deadline unblocks a parked Read, the reader sees the draining flag and
// exits its loop, and run's epilogue flushes the remaining responses.
func (c *conn) beginDrain() {
	c.draining.Store(true)
	c.nc.SetReadDeadline(time.Now()) //nolint:errcheck // failing fast-path: close() still bounds the drain
}

// run owns the connection lifecycle. The reader runs inline; the epilogue
// waits for handlers — including a replication feed, which on a graceful
// drain first flushes the committed tail. Each wrote its own frames out.
func (c *conn) run() {
	c.readLoop()
	close(c.readerDone)

	c.handlers.Wait()
	c.abortTxns()
	c.close()

	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
	c.srv.active.Add(^uint64(0))
	c.srv.connWG.Done()
}

// readLoop parses frames and dispatches handlers until EOF, error, drain,
// or close.
func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 32<<10)
	fr := wire.NewFrameReader(br, wire.MaxFrame)
	for {
		if c.draining.Load() {
			return
		}
		if t := c.srv.cfg.IdleTimeout; t > 0 && !c.replOn.Load() {
			c.nc.SetReadDeadline(time.Now().Add(t)) //nolint:errcheck // worst case: no idle kick, close() still works
		}
		pb := getBuf()
		payload, err := fr.Next(*pb)
		if err != nil {
			putBuf(pb)
			if c.draining.Load() || errors.Is(err, io.EOF) {
				return // clean end of stream or graceful drain
			}
			if !isConnReset(err) {
				// Oversized frame, bad CRC, or mid-frame truncation: the
				// stream cannot be trusted past this point.
				c.srv.protoErrs.Add(1)
			}
			return
		}
		*pb = payload // track a reallocation so the grown buffer is pooled
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			putBuf(pb)
			c.srv.protoErrs.Add(1)
			return
		}
		if c.draining.Load() {
			putBuf(pb)
			c.respond(&wire.Response{
				ID: req.ID, Op: req.Op,
				Status: wire.StatusShuttingDown, Msg: "server draining",
			})
			return
		}
		select {
		case c.slots <- struct{}{}:
		case <-c.closing:
			putBuf(pb)
			return
		}
		c.srv.requests.Add(1)
		// A singleton with the connection to itself — the slot just taken is
		// the window's only one, no further frame is buffered — runs here: its
		// sender waits for this reply and nothing else. The next frame waits
		// for this one op.
		if (req.Op == wire.OpPut || req.Op == wire.OpGet || req.Op == wire.OpDelete) &&
			len(c.slots) == 1 && br.Buffered() == 0 {
			c.serve(req, pb)
			continue
		}
		c.handlers.Add(1)
		go c.handle(req, pb)
	}
}

func (c *conn) handle(req wire.Request, pb *[]byte) {
	defer c.handlers.Done()
	c.serve(req, pb)
}

// serve executes one request against the backend and writes the response.
// pb is the pooled payload buffer req.Value aliases; it is recycled once the
// response is encoded and the request's bytes are dead. A nil response means
// the request wanted none (a replication ack).
func (c *conn) serve(req wire.Request, pb *[]byte) {
	if resp := c.execute(req); resp != nil {
		c.respond(resp)
	}
	putBuf(pb)
	<-c.slots
}

func (c *conn) respond(resp *wire.Response) {
	c.write(func(dst []byte) ([]byte, error) { return wire.AppendResponse(dst, resp), nil })
}

// write is the connection's one write routine: enc appends a frame to wbuf,
// and the responder with nobody queued behind it writes wbuf out in one
// call, so responses still coalesce under pipelining. A failed write closes
// the connection: no responder blocks on a dead socket.
func (c *conn) write(enc func(dst []byte) ([]byte, error)) {
	c.queued.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var err error
	c.wbuf, err = enc(c.wbuf)
	if c.queued.Add(-1) > 0 && len(c.wbuf) < poolBufCap && err == nil {
		return
	}
	// A write to a stalled subscriber comes back every feedStallCheck to
	// apply the lag bound; having written a prefix, it resumes.
	var feed Replicator
	if c.replOn.Load() {
		feed, _ = c.srv.b.(Replicator)
	}
	for buf := c.wbuf; len(buf) > 0 && err == nil; {
		if feed != nil {
			c.nc.SetWriteDeadline(time.Now().Add(feedStallCheck)) //nolint:errcheck // enforced by the Write below
		}
		var n int
		n, err = c.nc.Write(buf) //nolint:lock-order // wmu's sole purpose; lag-bounded, or ended by close
		buf = buf[n:]
		if feed != nil && errors.Is(err, os.ErrDeadlineExceeded) && !c.lagExceeded(feed) {
			err = nil
		}
	}
	if c.wbuf = c.wbuf[:0]; cap(c.wbuf) > poolBufCap {
		c.wbuf = nil
	}
	if err != nil {
		c.close()
	}
}

// execute runs one decoded request against the backend.
func (c *conn) execute(req wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID, Op: req.Op}
	// Stale-epoch fence: a data request stamped with a ring epoch other than
	// the backend's is refused before touching any key. Requests without an
	// epoch (legacy clients, clients that never fetched a ring) pass — the
	// backend routes them correctly itself; the epoch exists so clients that
	// DO route can detect staleness.
	if req.Epoch != 0 && req.Op.Routed() {
		if rg, ok := c.srv.b.(Ringer); ok {
			if se := rg.RingEpoch(); se != req.Epoch {
				resp.Status = wire.StatusNotMine
				resp.Msg = fmt.Sprintf("ring epoch %d, server at %d", req.Epoch, se)
				return resp
			}
		}
	}
	var err error
	switch req.Op {
	case wire.OpPut:
		if req.Key == "" {
			return badRequest(resp, "put: empty key")
		}
		err = c.srv.b.Put(req.Key, req.Value)
	case wire.OpGet:
		if req.Key == "" {
			return badRequest(resp, "get: empty key")
		}
		resp.Value, err = c.srv.b.Get(req.Key)
	case wire.OpDelete:
		if req.Key == "" {
			return badRequest(resp, "delete: empty key")
		}
		err = c.srv.b.Delete(req.Key)
	case wire.OpScan:
		limit := int(req.Limit)
		if limit <= 0 || limit > c.srv.cfg.MaxScan {
			limit = c.srv.cfg.MaxScan
		}
		resp.Objects, err = c.srv.b.Scan(req.Key, limit)
	case wire.OpStats:
		st := c.srv.b.Stats()
		ss := c.srv.Stats()
		st.ServerConns = ss.Active
		st.ServerRequests = ss.Requests
		// The backend knows its replication role; the server owns the
		// subscriber counters. Attach a primary-role section only once
		// replication has actually been used, so replication-off
		// deployments emit byte-identical frames.
		if st.Repl != nil {
			st.Repl.Subscribers = ss.ReplSubscribers
			st.Repl.Drops = ss.ReplDrops
		} else if ss.ReplSubscribers > 0 || ss.ReplDrops > 0 {
			if r, ok := c.srv.b.(Replicator); ok {
				st.Repl = &wire.ReplReply{
					Role:        wire.ReplRolePrimary,
					Subscribers: ss.ReplSubscribers,
					Drops:       ss.ReplDrops,
					LastLSN:     r.LastLSN(),
					AckedLSN:    ss.ReplAcked,
				}
			}
		}
		resp.Stats = &st
	case wire.OpHealth:
		h := c.srv.b.Health()
		resp.Health = &h
	case wire.OpCheckpoint:
		err = c.srv.b.Checkpoint()
	case wire.OpReplicate:
		return c.executeReplicate(req, resp)
	case wire.OpTxnBegin, wire.OpTxnGet, wire.OpTxnPut, wire.OpTxnDelete,
		wire.OpTxnCommit, wire.OpTxnAbort:
		return c.executeTxn(req, resp)
	case wire.OpMPut, wire.OpMGet, wire.OpMDelete:
		return c.executeBatch(req, resp)
	case wire.OpPromote:
		p, ok := c.srv.b.(Promoter)
		if !ok {
			return badRequest(resp, "promote: backend does not replicate")
		}
		err = p.Promote()
	case wire.OpRing:
		rg, ok := c.srv.b.(Ringer)
		if !ok {
			return badRequest(resp, "ring: backend does not reshard")
		}
		resp.Value = rg.RingData()
	default:
		return badRequest(resp, fmt.Sprintf("unknown opcode %d", uint8(req.Op)))
	}
	if err != nil {
		resp.Status, resp.Msg = c.srv.b.ErrorStatus(err)
		resp.Value, resp.Objects = nil, nil
	}
	return resp
}

func badRequest(resp *wire.Response, msg string) *wire.Response {
	resp.Status, resp.Msg = wire.StatusBadRequest, msg
	return resp
}

// executeBatch handles the batched OpM* opcodes: fan the sub-ops out
// through the BatchBackend when the backend has one (a sharded backend
// groups them by ring owner), else a per-key loop over the plain Backend
// methods. Every sub-op gets its own verdict row; the top status is OK only
// when all succeeded, StatusPartial otherwise — a failed sub-op fails only
// its caller, never the frame.
func (c *conn) executeBatch(req wire.Request, resp *wire.Response) *wire.Response {
	n := len(req.Subs)
	if n == 0 {
		return badRequest(resp, "batch: no sub-ops")
	}
	keys := make([]string, n)
	var values [][]byte
	if req.Op == wire.OpMPut {
		values = make([][]byte, n)
	}
	for i := range req.Subs {
		if req.Subs[i].Key == "" {
			return badRequest(resp, "batch: empty key")
		}
		keys[i] = req.Subs[i].Key
		if values != nil {
			values[i] = req.Subs[i].Value
		}
	}
	var vals [][]byte
	var errs []error
	if bb, ok := c.srv.b.(BatchBackend); ok {
		switch req.Op {
		case wire.OpMPut:
			errs = bb.MPut(req.Epoch, keys, values)
		case wire.OpMGet:
			vals, errs = bb.MGet(req.Epoch, keys)
		case wire.OpMDelete:
			errs = bb.MDelete(req.Epoch, keys)
		}
	} else {
		errs = make([]error, n)
		if req.Op == wire.OpMGet {
			vals = make([][]byte, n)
		}
		for i, k := range keys {
			switch req.Op {
			case wire.OpMPut:
				errs[i] = c.srv.b.Put(k, values[i])
			case wire.OpMGet:
				vals[i], errs[i] = c.srv.b.Get(k)
			case wire.OpMDelete:
				errs[i] = c.srv.b.Delete(k)
			}
		}
	}
	if len(errs) != n || (req.Op == wire.OpMGet && len(vals) != n) {
		resp.Status, resp.Msg = wire.StatusInternal, "batch: backend result arity mismatch"
		return resp
	}
	resp.Batch = make([]wire.BatchResult, n)
	failed := 0
	for i := 0; i < n; i++ {
		switch {
		case errs[i] != nil:
			failed++
			st, msg := c.srv.b.ErrorStatus(errs[i])
			resp.Batch[i] = wire.BatchResult{Status: st, Msg: msg}
		case req.Op == wire.OpMGet:
			resp.Batch[i] = wire.BatchResult{Status: wire.StatusOK, Value: vals[i]}
		default:
			resp.Batch[i] = wire.BatchResult{Status: wire.StatusOK}
		}
	}
	if failed > 0 {
		resp.Status = wire.StatusPartial
	}
	return resp
}

// ------------------------------------------------------------- transactions

// executeTxn handles the six OpTxn* opcodes against the connection's session
// table. The client chooses the session id (carried in Limit); commit and
// abort retire the session from the table before running, so a late
// pipelined operation on a finished transaction gets StatusBadRequest rather
// than a use-after-finish.
func (c *conn) executeTxn(req wire.Request, resp *wire.Response) *wire.Response {
	tb, ok := c.srv.b.(TxnBackend)
	if !ok {
		return badRequest(resp, "txn: backend does not support transactions")
	}
	id := req.Limit
	if req.Op == wire.OpTxnBegin {
		txn, err := tb.BeginTxn()
		if err != nil {
			resp.Status, resp.Msg = c.srv.b.ErrorStatus(err)
			return resp
		}
		c.txnMu.Lock()
		if c.txns == nil {
			c.txns = make(map[uint32]*connTxn)
		}
		_, dup := c.txns[id]
		if !dup {
			c.txns[id] = &connTxn{txn: txn}
		}
		c.txnMu.Unlock()
		if dup {
			txn.Abort() //nolint:errcheck // the duplicate session never held state
			return badRequest(resp, fmt.Sprintf("txn begin: id %d already open", id))
		}
		return resp
	}
	c.txnMu.Lock()
	ct := c.txns[id]
	if ct != nil && (req.Op == wire.OpTxnCommit || req.Op == wire.OpTxnAbort) {
		delete(c.txns, id)
	}
	c.txnMu.Unlock()
	if ct == nil {
		return badRequest(resp, fmt.Sprintf("txn: unknown transaction id %d", id))
	}
	ct.mu.Lock()
	var err error
	switch req.Op {
	case wire.OpTxnGet:
		if req.Key == "" {
			ct.mu.Unlock()
			return badRequest(resp, "txn get: empty key")
		}
		resp.Value, err = ct.txn.Get(req.Key)
	case wire.OpTxnPut:
		if req.Key == "" {
			ct.mu.Unlock()
			return badRequest(resp, "txn put: empty key")
		}
		err = ct.txn.Put(req.Key, req.Value)
	case wire.OpTxnDelete:
		if req.Key == "" {
			ct.mu.Unlock()
			return badRequest(resp, "txn delete: empty key")
		}
		err = ct.txn.Delete(req.Key)
	case wire.OpTxnCommit:
		err = ct.txn.Commit()
	case wire.OpTxnAbort:
		err = ct.txn.Abort()
	}
	ct.mu.Unlock()
	if err != nil {
		resp.Status, resp.Msg = c.srv.b.ErrorStatus(err)
		resp.Value = nil
	}
	return resp
}

// abortTxns discards every transaction session still open on the connection:
// a client that disconnected (or was drained by a graceful shutdown) mid
// transaction must not leak buffered write sets or version pins. It runs from
// run's epilogue after the handlers drain, so no session is concurrently in
// use.
func (c *conn) abortTxns() {
	c.txnMu.Lock()
	txns := c.txns
	c.txns = nil
	c.txnMu.Unlock()
	for _, ct := range txns {
		ct.txn.Abort() //nolint:errcheck // best-effort cleanup of an abandoned session
	}
}

// ------------------------------------------------------------- replication

// feedBatch bounds the records pulled per export call; it also bounds the
// copied-out data held in memory per subscriber per round.
const feedBatch = 64

// feedStallCheck is how often a write blocked on a stalled subscriber
// rechecks its lag, so a completely stalled follower is still detected and
// dropped.
const feedStallCheck = 50 * time.Millisecond

// feedPoll is the feed's idle poll interval once a subscriber is caught up.
const feedPoll = 2 * time.Millisecond

// executeReplicate handles OpReplicate: the connection's first one is a
// subscription (answered with the primary's current LSN, then the feed
// starts), every later one is an ack carrying the subscriber's applied LSN
// (answered with nothing — the stream direction is busy carrying records).
func (c *conn) executeReplicate(req wire.Request, resp *wire.Response) *wire.Response {
	r, ok := c.srv.b.(Replicator)
	if !ok {
		return badRequest(resp, "replicate: backend does not replicate")
	}
	lsn, err := wire.ReplicateLSN(&req)
	if err != nil {
		return badRequest(resp, err.Error())
	}
	if !c.replOn.CompareAndSwap(false, true) {
		c.ackTo(lsn)
		return nil
	}
	// Probe the position before acknowledging: a subscriber behind the log
	// recycling horizon must re-seed, and learns it from the subscribe
	// response, not a mid-stream cut.
	if _, err := r.ExportCommitted(lsn, 1); err != nil {
		c.replOn.Store(false)
		resp.Status, resp.Msg = c.srv.b.ErrorStatus(err)
		return resp
	}
	c.acked.Store(lsn)
	c.nc.SetReadDeadline(time.Time{}) //nolint:errcheck // lift the idle deadline: acks may be sparse
	c.srv.replSubs.Add(1)

	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], r.LastLSN())
	resp.Value = v[:]
	// Write the subscribe response before the feed starts: a record frame
	// that overtook it would be parsed by the subscriber as the response.
	c.respond(resp)
	c.handlers.Add(1)
	go c.feedLoop(r, lsn)
	return nil
}

// ackTo advances the subscriber's acked LSN monotonically (acks are handled
// on concurrent goroutines and may arrive reordered).
func (c *conn) ackTo(lsn uint64) {
	for {
		cur := c.acked.Load()
		if lsn <= cur || c.acked.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// feedLoop streams committed records to one subscriber: export a batch from
// the cursor, frame and queue each record behind the pipelined responses,
// sleep briefly when caught up. Backpressure is bounded: a subscriber whose
// acked LSN lags the primary by more than ReplicaMaxLag is dropped (counted
// in ReplDrops) rather than allowed to pin history. On a graceful drain the
// loop instead runs until the committed tail at drain time has been queued,
// so the standby receives everything the primary will ever commit.
func (c *conn) feedLoop(r Replicator, cursor uint64) {
	defer c.handlers.Done()
	defer c.srv.replSubs.Add(^uint64(0))
	for {
		select {
		case <-c.closing:
			return
		default:
		}
		recs, err := r.ExportCommitted(cursor, feedBatch)
		if err != nil {
			// The cursor fell behind the recycling horizon mid-stream (or
			// the backend failed); the subscriber must resubscribe and
			// learns the verdict from its next subscribe response.
			c.close()
			return
		}
		for i := range recs {
			if !c.feedSend(&recs[i]) {
				return
			}
			cursor = recs[i].LSN
		}
		if c.lagExceeded(r) {
			return
		}
		if len(recs) == 0 {
			if c.draining.Load() {
				return // committed tail flushed; drain completes
			}
			select {
			case <-c.closing:
				return
			case <-c.readerDone:
				// The reader is gone: either the subscriber hung up, or a
				// graceful drain stopped the readLoop. Only the former ends
				// the feed — a drain still owes the committed tail, which
				// the next empty export detects.
				if !c.draining.Load() {
					return
				}
			case <-time.After(feedPoll):
			}
		}
	}
}

// feedSend writes one record frame (write rechecks the lag bound while a
// stalled follower blocks it). Reports whether the feed should continue.
func (c *conn) feedSend(rec *wire.Record) bool {
	c.write(func(dst []byte) ([]byte, error) { return wire.AppendRecordFrame(dst, rec) })
	select {
	case <-c.closing:
		return false
	default:
		return true
	}
}

// lagExceeded applies the slow-follower bound; on a violation it counts the
// drop and closes the connection. Drains are exempt — the subscriber cannot
// ack during a drain (the reader has stopped), and the drain deadline
// already bounds the flush.
func (c *conn) lagExceeded(r Replicator) bool {
	maxLag := c.srv.cfg.ReplicaMaxLag
	if maxLag < 0 || c.draining.Load() {
		return false
	}
	last := r.LastLSN()
	acked := c.acked.Load()
	if last > acked && last-acked > uint64(maxLag) {
		c.srv.replDrops.Add(1)
		c.close()
		return true
	}
	return false
}

// isConnReset reports errors that are peer disconnects rather than protocol
// violations (so they are not counted as protocol errors).
func isConnReset(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}
