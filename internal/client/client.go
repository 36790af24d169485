// Package client is the Go client for a dstore-server: a connection pool
// speaking the internal/wire protocol with request pipelining, per-call
// context deadlines, and bounded retry-with-backoff on transient transport
// errors.
//
// Pipelining: many calls may be in flight on one connection at once; each
// carries a unique request id and a response channel. A connection has no
// goroutine of its own: the caller that finds nobody reading reads — its own
// reply returns on its own goroutine, the others' (which the server may send
// in any order) it routes to their channels — so a call prefers a connection
// with nothing in flight. Transport failures fail every in-flight call on
// that connection, the connection is discarded from the pool, and the retry
// loop re-dials.
//
// Errors: wire statuses map back onto the store's sentinel errors, so
// errors.Is(err, dstore.ErrNotFound / ErrCorrupt / ErrDegraded / ErrClosed)
// works identically for embedded and remote stores. Transport-level
// failures are wrapped in fault.ErrTransient — the same transient class the
// device layer uses — and the retry loop mirrors the store's own bounded
// linear-backoff policy for transiently failing device IO.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dstore"
	"dstore/internal/fault"
	"dstore/internal/ring"
	"dstore/internal/wire"
)

// Config configures a Client. Only Addr is required.
type Config struct {
	// Addr is the server's TCP address ("host:port").
	Addr string
	// Conns is the connection pool size. A call takes the first connection
	// with nothing in flight, starting at its round-robin slot (dialing an
	// empty one), and that slot when all are busy. Default 2.
	Conns int
	// Attempts bounds tries per call on transient transport errors
	// (mirroring the store's device-IO retry policy). Default 3; a test
	// sets 1 to observe a single, unretried try.
	Attempts int
}

func (c *Config) setDefaults() {
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
}

const (
	// dialTimeout bounds each dial.
	dialTimeout = 5 * time.Second
	// writeTimeout bounds each request frame write: the hold of a
	// connection's write lock is bounded by it, never by a peer.
	writeTimeout = 30 * time.Second
	// retryStep is the linear growth of the retry delay per attempt.
	retryStep = 5 * time.Millisecond
	// retryCap saturates that growth, so a large Attempts setting cannot
	// produce multi-second stalls.
	retryCap = 500 * time.Millisecond
)

// ErrClientClosed is returned by calls on a closed Client.
var ErrClientClosed = errors.New("client: closed")

// ServerError carries a non-OK wire status that has no store sentinel
// (bad request, internal failure, shutdown refusal).
type ServerError struct {
	Status wire.Status
	Msg    string
}

func (e *ServerError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("client: server status %s", e.Status)
	}
	return fmt.Sprintf("client: server status %s: %s", e.Status, e.Msg)
}

// Client is a pooled, pipelining dstore-server client. All methods are safe
// for concurrent use.
type Client struct {
	cfg Config

	mu     sync.Mutex
	pool   []*conn // guarded by mu; nil slots dial lazily
	closed bool    // guarded by mu

	next   atomic.Uint64
	txnSeq atomic.Uint32 // transaction session id source (scoped per connection)

	// Pool-wide routing-ring cache. ringEpoch is read on every data call
	// (lock-free) to stamp requests; the rest is the single-flight refresh
	// machinery: however many callers hit StatusNotMine at once, the pool
	// fetches the ring exactly once and everyone else waits on ringWait.
	ringEpoch  atomic.Uint64
	ringMu     sync.Mutex
	ringVal    *ring.Ring    // guarded by ringMu; last fetched ring
	refreshing bool          // guarded by ringMu
	ringWait   chan struct{} // guarded by ringMu; closed when a refresh ends
}

// Dial creates a client for cfg and verifies connectivity by establishing
// the first pooled connection.
func Dial(cfg Config) (*Client, error) {
	cfg.setDefaults()
	c := &Client{cfg: cfg, pool: make([]*conn, cfg.Conns)}
	cn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.pool[0] = cn
	c.mu.Unlock()
	return c, nil
}

// Close tears down every pooled connection. In-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := slices.Clone(c.pool)
	c.mu.Unlock()
	// Fail (and thereby close) every conn outside c.mu. There is no reader
	// to join: the caller reading a closed socket returns, like the parked.
	for _, cn := range conns {
		if cn != nil {
			cn.fail(ErrClientClosed)
		}
	}
	return nil
}

// ------------------------------------------------------------- operations

// Put stores value under key.
func (c *Client) Put(ctx context.Context, key string, value []byte) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpPut, Key: key, Value: value}, nil)
	return err
}

// Get returns key's value.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpGet, Key: key}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// Delete removes key.
func (c *Client) Delete(ctx context.Context, key string) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpDelete, Key: key}, nil)
	return err
}

// Scan lists up to limit objects whose names start with prefix (limit 0
// accepts the server's cap).
func (c *Client) Scan(ctx context.Context, prefix string, limit int) ([]wire.Object, error) {
	var lim uint32
	if limit > 0 {
		lim = uint32(limit)
	}
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpScan, Key: prefix, Limit: lim}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Objects, nil
}

// Stats fetches store and server counters.
func (c *Client) Stats(ctx context.Context) (wire.StatsReply, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpStats}, nil)
	if err != nil {
		return wire.StatsReply{}, err
	}
	if resp.Stats == nil {
		return wire.StatsReply{}, fmt.Errorf("%w: stats response without payload", wire.ErrMalformed)
	}
	return *resp.Stats, nil
}

// Health fetches the store's fault/integrity status.
func (c *Client) Health(ctx context.Context) (wire.HealthReply, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpHealth}, nil)
	if err != nil {
		return wire.HealthReply{}, err
	}
	if resp.Health == nil {
		return wire.HealthReply{}, fmt.Errorf("%w: health response without payload", wire.ErrMalformed)
	}
	return *resp.Health, nil
}

// Checkpoint runs one synchronous checkpoint on the server.
func (c *Client) Checkpoint(ctx context.Context) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpCheckpoint}, nil)
	return err
}

// Promote asks the server to promote its standby backend for writes
// (OpPromote): the failover trigger for a remote standby. Servers without a
// replicating backend refuse with StatusBadRequest.
func (c *Client) Promote(ctx context.Context) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpPromote}, nil)
	return err
}

// ------------------------------------------------------------ transactions

// ErrTxnFinished is returned by operations on a transaction session that has
// committed, aborted, or been poisoned by a transport failure.
var ErrTxnFinished = errors.New("client: transaction already finished")

// Txn is a client-side transaction session: optimistic reads and buffered
// writes on the server, made atomic by Commit. A session is pinned to one
// pooled connection and is not safe for concurrent use.
//
// Unlike the plain operations, every transaction request runs single-attempt
// with no connection-level retry: a retried commit whose first response was
// lost could apply twice. Any transport failure therefore poisons the session
// (the server aborts it when the connection dies) and surfaces to the caller,
// who retries the whole transaction — the same contract as a commit-time
// dstore.ErrTxnConflict.
type Txn struct {
	c    *Client
	cn   *conn
	id   uint32
	done bool
}

// BeginTxn opens a transaction session on the server.
func (c *Client) BeginTxn(ctx context.Context) (*Txn, error) {
	cn, err := c.acquire()
	if err != nil {
		return nil, err
	}
	t := &Txn{c: c, cn: cn, id: c.txnSeq.Add(1)}
	resp, err := cn.roundTrip(ctx, &wire.Request{Op: wire.OpTxnBegin, Limit: t.id}, nil)
	if err != nil {
		return nil, err
	}
	if serr := statusErr(&resp); serr != nil {
		return nil, serr
	}
	return t, nil
}

// call runs one single-attempt request on the pinned connection. Transport
// errors poison the session; server status errors do not (a Get that returns
// ErrNotFound leaves the transaction usable).
func (t *Txn) call(ctx context.Context, req *wire.Request) (wire.Response, error) {
	if t.done {
		return wire.Response{}, ErrTxnFinished
	}
	req.Limit = t.id
	if e := t.c.ringEpoch.Load(); e != 0 {
		req.Epoch = e
	}
	resp, err := t.cn.roundTrip(ctx, req, nil)
	if err != nil {
		t.done = true
		return wire.Response{}, err
	}
	serr := statusErr(&resp)
	if errors.Is(serr, dstore.ErrNotMine) {
		// The session cannot be replayed mid-flight (a resent commit could
		// apply twice), but refreshing the pool ring here means the caller's
		// whole-transaction retry starts at the new epoch instead of
		// rediscovering the reshard one op at a time.
		t.c.refreshRing(ctx) //nolint:errcheck // best effort; the retry refreshes again
	}
	return resp, serr
}

// Get reads key inside the transaction (read-your-writes; the read joins the
// commit-time validation set).
func (t *Txn) Get(ctx context.Context, key string) ([]byte, error) {
	resp, err := t.call(ctx, &wire.Request{Op: wire.OpTxnGet, Key: key})
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// Put buffers a write of value under key.
func (t *Txn) Put(ctx context.Context, key string, value []byte) error {
	_, err := t.call(ctx, &wire.Request{Op: wire.OpTxnPut, Key: key, Value: value})
	return err
}

// Delete buffers a deletion of key.
func (t *Txn) Delete(ctx context.Context, key string) error {
	_, err := t.call(ctx, &wire.Request{Op: wire.OpTxnDelete, Key: key})
	return err
}

// Commit atomically applies the transaction. dstore.ErrTxnConflict means
// validation failed and nothing was applied; retry the whole transaction.
func (t *Txn) Commit(ctx context.Context) error {
	if t.done {
		return ErrTxnFinished
	}
	_, err := t.call(ctx, &wire.Request{Op: wire.OpTxnCommit})
	t.done = true
	return err
}

// Abort discards the transaction. Aborting a finished session is a no-op.
func (t *Txn) Abort(ctx context.Context) error {
	if t.done {
		return nil
	}
	_, err := t.call(ctx, &wire.Request{Op: wire.OpTxnAbort})
	t.done = true
	return err
}

// ------------------------------------------------------------ retry engine

// do executes one request with bounded retry on transient transport errors
// (the inner loop, mirroring the store's device-IO retry shape) and bounded
// ring-refresh-and-retry on StatusNotMine (the outer loop): a stale cached
// shard map is repaired by re-fetching the ring, not by resending the frame.
// Other server status errors are never retried — the caller owns semantic
// retries.
func (c *Client) do(ctx context.Context, req *wire.Request, dst *[]byte) (wire.Response, error) {
	for stale := 0; ; stale++ {
		if e := c.ringEpoch.Load(); e != 0 && req.Op.Routed() {
			req.Epoch = e
		}
		resp, err := c.doTransport(ctx, req, dst)
		if errors.Is(err, dstore.ErrNotMine) && stale < c.cfg.Attempts {
			if rerr := c.refreshRing(ctx); rerr != nil {
				return resp, err
			}
			continue
		}
		return resp, err
	}
}

// doTransport runs the bounded transient-transport retry loop for one
// request: the same shape as the store's device-IO retries (ioAttempts ×
// linear backoff over the fault package's transient class).
func (c *Client) doTransport(ctx context.Context, req *wire.Request, dst *[]byte) (wire.Response, error) {
	var err error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			if err := retryPause(ctx, attempt); err != nil {
				return wire.Response{}, err
			}
		}
		var cn *conn
		if cn, err = c.acquire(); err == nil {
			var resp wire.Response
			if resp, err = cn.roundTrip(ctx, req, dst); err == nil {
				return resp, statusErr(&resp)
			}
		}
		if !fault.IsTransient(err) {
			return wire.Response{}, err
		}
	}
	return wire.Response{}, err
}

// ------------------------------------------------------------- ring cache

// Ring fetches the server's current routing ring (OpRing), refreshing the
// pool-wide cache: subsequent data calls are stamped with its epoch. Servers
// without a resharding backend refuse with StatusBadRequest.
func (c *Client) Ring(ctx context.Context) (*ring.Ring, error) {
	if err := c.fetchRing(ctx); err != nil {
		return nil, err
	}
	c.ringMu.Lock()
	defer c.ringMu.Unlock()
	return c.ringVal, nil
}

// RingEpoch is the cached ring epoch stamped onto data requests (0 until a
// ring has been fetched).
func (c *Client) RingEpoch() uint64 { return c.ringEpoch.Load() }

// refreshRing re-fetches the ring with single-flight coalescing: the first
// caller performs the fetch, retrying on retryDelay's jittered schedule;
// everyone else waits for it to finish and reuses the result. Waiters return
// nil even when the flight failed — their next attempt re-enters here and
// starts a fresh flight.
func (c *Client) refreshRing(ctx context.Context) error {
	c.ringMu.Lock()
	if c.refreshing {
		wait := c.ringWait
		c.ringMu.Unlock()
		select {
		case <-wait:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	c.refreshing = true
	c.ringWait = make(chan struct{})
	wait := c.ringWait
	c.ringMu.Unlock()

	var err error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			if err = retryPause(ctx, attempt); err != nil {
				break
			}
		}
		if err = c.fetchRing(ctx); err == nil {
			break
		}
	}

	c.ringMu.Lock()
	c.refreshing = false
	close(wait)
	c.ringMu.Unlock()
	return err
}

// fetchRing performs one OpRing round trip and installs the result.
func (c *Client) fetchRing(ctx context.Context) error {
	resp, err := c.doTransport(ctx, &wire.Request{Op: wire.OpRing}, nil)
	if err != nil {
		return err
	}
	r, err := ring.Decode(resp.Value)
	if err != nil {
		return fmt.Errorf("client: ring payload: %w", err)
	}
	c.ringMu.Lock()
	c.ringVal = r
	c.ringMu.Unlock()
	c.ringEpoch.Store(r.Epoch())
	return nil
}

// retryDelay is the client's one retry schedule, shared by the transport
// retry and the ring fetch: attempt × retryStep, capped at retryCap, plus up
// to 50 % uniform jitter, so the retries of many clients hitting one
// recovering server — or discovering one reshard — do not stay in lockstep.
func retryDelay(attempt int) time.Duration {
	return jitteredDelay(attempt, rand.Float64())
}

// jitteredDelay is retryDelay with its random draw in [0, 1] given: the cap
// applies to the base before the jitter, so capped retries still spread out.
func jitteredDelay(attempt int, draw float64) time.Duration {
	d := min(time.Duration(attempt)*retryStep, retryCap)
	return d + time.Duration(draw*0.5*float64(d))
}

// retryPause sleeps retryDelay(attempt), returning early with ctx's error.
func retryPause(ctx context.Context, attempt int) error {
	select {
	case <-time.After(retryDelay(attempt)):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// statusErr maps a response status back onto the store's sentinel errors.
func statusErr(resp *wire.Response) error {
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusNotFound:
		return dstore.ErrNotFound
	case wire.StatusCorrupt:
		if resp.Msg != "" {
			return fmt.Errorf("%w: %s", dstore.ErrCorrupt, resp.Msg)
		}
		return dstore.ErrCorrupt
	case wire.StatusDegraded:
		if resp.Msg != "" {
			return fmt.Errorf("%w: %s", dstore.ErrDegraded, resp.Msg)
		}
		return dstore.ErrDegraded
	case wire.StatusClosed:
		return dstore.ErrClosed
	case wire.StatusTxnConflict:
		// Deliberately NOT transient: retrying the commit frame could apply
		// the write set twice. The caller retries the whole transaction.
		return dstore.ErrTxnConflict
	case wire.StatusNotMine:
		// Not transient at the transport level either: the repair is a ring
		// refresh (do's outer loop performs it), not a resend.
		if resp.Msg != "" {
			return fmt.Errorf("%w: %s", dstore.ErrNotMine, resp.Msg)
		}
		return dstore.ErrNotMine
	default:
		return &ServerError{Status: resp.Status, Msg: resp.Msg}
	}
}

// acquire picks a connection: from the next round-robin slot on, the first
// with nothing in flight (its caller will read its own reply), dialing a slot
// it finds empty or broken on the way; when all are busy, the slot itself.
func (c *Client) acquire() (*conn, error) {
	slot := int(c.next.Add(1)) % c.cfg.Conns

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	pick := c.pool[slot] // stands if every connection is dialed and busy
	for i := range c.pool {
		s := (slot + i) % len(c.pool)
		cn := c.pool[s]
		if cn == nil || cn.broken() {
			slot, pick = s, nil // dial this one
			break
		}
		if cn.inflight.Load() == 0 {
			pick = cn
			break
		}
	}
	c.mu.Unlock()
	if pick != nil {
		return pick, nil
	}

	// Dial outside the pool lock so a dead server never serializes callers.
	cn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cn.fail(ErrClientClosed)
		return nil, ErrClientClosed
	}
	if old := c.pool[slot]; old != nil && !old.broken() {
		// Someone re-dialed the slot first; use theirs, drop ours.
		c.mu.Unlock()
		cn.fail(ErrClientClosed)
		return old, nil
	}
	c.pool[slot] = cn
	c.mu.Unlock()
	return cn, nil
}

func (c *Client) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", c.cfg.Addr, dialTimeout)
	if err != nil {
		return nil, transientf("dial %s", c.cfg.Addr, err)
	}
	return &conn{
		cfg:     &c.cfg,
		nc:      nc,
		handoff: make(chan struct{}, 1),
		fr:      wire.NewFrameReader(bufio.NewReaderSize(nc, 32<<10), wire.MaxFrame),
		pending: make(map[uint64]chan wire.Response),
	}, nil
}

// transientf wraps a transport error in the fault package's transient class
// so the retry loop (and any caller using fault.IsTransient) can classify it.
func transientf(what, addr string, err error) error {
	return fmt.Errorf("client: %s %s: %w: %v", what, addr, fault.ErrTransient, err)
}

// ------------------------------------------------------------------- conn

// maxKeptFrame bounds the encode and read buffers a connection keeps between
// frames: one large value must not pin its frame's worth of memory for the
// life of the connection.
const maxKeptFrame = 64 << 10

// respChans recycles the cap-1 channels replies are delivered on. A channel
// goes back empty: whoever takes a call out of pending owes it one send, and
// the caller receives that before letting the channel go.
var respChans = sync.Pool{New: func() any { return make(chan wire.Response, 1) }}

// conn is one pooled connection. Writes are serialized by wmu. A caller that
// has written its request takes the reader role if it is free and reads
// frames — its own reply returns, another caller's goes to that caller's
// channel — and one that finds the role taken parks on its channel, the
// role's hand-off and its context.
type conn struct {
	cfg *Config
	nc  net.Conn

	wmu  sync.Mutex // serializes frame encoding and writes
	wbuf []byte     // the frame being written, recycled across requests; guarded by wmu

	// The reader role is won by reading.CompareAndSwap and owns fr, rbuf and
	// rdl until leave, which puts a token in handoff (cap 1) if calls are
	// pending: no reply sits in the socket with every pending caller parked.
	reading atomic.Bool
	handoff chan struct{}
	fr      *wire.FrameReader // keeps the frame a reader was interrupted in
	rbuf    []byte            // replies are read into it
	rdl     time.Time         // the read deadline armed on nc; zero is none

	inflight atomic.Int32 // len(pending), for acquire and the hand-off

	mu      sync.Mutex
	pending map[uint64]chan wire.Response // guarded by mu
	err     error                         // guarded by mu; set once when the conn dies
	nextID  uint64                        // guarded by mu
}

// broken reports whether the connection has failed.
func (cn *conn) broken() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.err != nil
}

// fail marks the connection dead and fails every in-flight call with a zero
// Response. The victim channels are collected under mu but notified after it
// is released: once cn.err is set, register refuses new entries, so this
// caller owns the collected set exclusively and the sends need no lock.
// Closing the socket is what returns a caller blocked reading it.
func (cn *conn) fail(err error) {
	cn.mu.Lock()
	var victims []chan wire.Response
	if cn.err == nil {
		cn.err = err
		victims = make([]chan wire.Response, 0, len(cn.pending))
		for id, ch := range cn.pending {
			delete(cn.pending, id)
			victims = append(victims, ch)
		}
		cn.inflight.Store(0)
	}
	cn.mu.Unlock()
	for _, ch := range victims {
		ch <- wire.Response{} // cap-1 channel; never blocks
	}
	cn.nc.Close() //nolint:errcheck // teardown of a dead conn
}

// register allocates a request id and response channel.
func (cn *conn) register() (uint64, chan wire.Response, error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.err != nil {
		return 0, nil, cn.err
	}
	cn.nextID++
	ch := respChans.Get().(chan wire.Response)
	cn.pending[cn.nextID] = ch
	cn.inflight.Add(1)
	return cn.nextID, ch, nil
}

// claim takes call id out of pending; the claimant is the one sender on the
// call's channel.
func (cn *conn) claim(id uint64) (chan wire.Response, bool) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	ch, ok := cn.pending[id]
	if ok {
		delete(cn.pending, id)
		cn.inflight.Add(-1)
	}
	return ch, ok
}

// retire ends call id on its caller's side and recycles ch. If the call was
// already claimed, a reply or the connection's failure is on its way into ch
// and is taken out first; a reply still to come finds no call and is dropped.
func (cn *conn) retire(id uint64, ch chan wire.Response) {
	if _, ok := cn.claim(id); !ok {
		<-ch
	}
	respChans.Put(ch)
}

// roundTrip sends req and returns its reply. With dst set the reply's value
// is appended to *dst (out of the connection's read buffer, when the caller
// is the reader) and Response.Value is nil; otherwise all the Response points
// to is the caller's own. Errors other than ctx's are wrapped transient.
func (cn *conn) roundTrip(ctx context.Context, req *wire.Request, dst *[]byte) (wire.Response, error) {
	if err := ctx.Err(); err != nil {
		return wire.Response{}, err
	}
	id, ch, err := cn.register()
	if err != nil {
		return wire.Response{}, transientf("conn", cn.cfg.Addr, err)
	}
	r := *req
	r.ID = id

	// The frame is built in the connection's own buffer: encoding from nil
	// grew a 9 KiB MPUT frame through a dozen doublings, each a fresh zeroed
	// allocation. Only the writer holding wmu touches the buffer.
	cn.wmu.Lock()
	frame, err := wire.AppendRequest(cn.wbuf[:0], &r)
	if err == nil && len(frame)-wire.FrameHeader > wire.MaxFrame {
		err = fmt.Errorf("%w: request payload %d > %d",
			wire.ErrFrameTooLarge, len(frame)-wire.FrameHeader, wire.MaxFrame)
	}
	if cap(frame) <= maxKeptFrame {
		cn.wbuf = frame
	}
	if err != nil {
		cn.wmu.Unlock()
		cn.retire(id, ch)
		return wire.Response{}, err // malformed or oversized request: permanent
	}
	cn.nc.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck // enforced by the Write below
	// wmu exists to serialize exactly this write: interleaved frames would
	// corrupt the stream for every pipelined caller. The hold is bounded by
	// the write deadline set above, never by a peer.
	_, werr := cn.nc.Write(frame) //nolint:lock-order // wmu's sole purpose; deadline-bounded
	cn.wmu.Unlock()
	if werr != nil {
		cn.fail(werr)
		cn.retire(id, ch)
		return wire.Response{}, transientf("write", cn.cfg.Addr, werr)
	}

	for {
		if cn.reading.CompareAndSwap(false, true) {
			return cn.read(ctx, id, ch, dst)
		}
		select {
		case resp := <-ch:
			respChans.Put(ch)
			return cn.delivered(resp, dst)
		case <-cn.handoff:
		case <-ctx.Done():
			cn.retire(id, ch)
			return wire.Response{}, ctx.Err()
		}
	}
}

// delivered is roundTrip's result for a reply in hand; the zero one is fail's.
func (cn *conn) delivered(resp wire.Response, dst *[]byte) (wire.Response, error) {
	if resp.ID == 0 {
		cn.mu.Lock()
		defer cn.mu.Unlock()
		return resp, transientf("await", cn.cfg.Addr, cn.err)
	}
	if dst != nil {
		*dst, resp.Value = append(*dst, resp.Value...), nil
	}
	return resp, nil
}

// read is the reader role, entered holding it and left handing it on: it
// routes replies until call id's own is in hand, the stream dies, or ctx
// ends — which costs the call, not the connection: fr keeps the frame being
// read for the next reader. A context that can be cancelled interrupts the
// read through context.AfterFunc, a deadline-only one (KV's) through the
// socket's read deadline; one with neither arms nothing.
func (cn *conn) read(ctx context.Context, id uint64, ch chan wire.Response, dst *[]byte) (wire.Response, error) {
	defer cn.leave()
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			cn.nc.SetReadDeadline(time.Now()) //nolint:errcheck // a dead socket has no reader to wake
		})
		defer stop()
	}
	cn.armRead(ctx, false)
	for {
		// Only the role and fail deliver, so with the role in hand this is
		// exact: ch was filled before we took it (or by the fail below), or
		// the reply is still to come.
		select {
		case resp := <-ch:
			respChans.Put(ch)
			return cn.delivered(resp, dst)
		default:
		}
		payload, err := cn.fr.Next(cn.rbuf)
		var resp wire.Response
		kept := err == nil && cap(payload) <= maxKeptFrame // else the frame got memory of its own
		if kept {
			cn.rbuf = payload
		}
		if err == nil {
			resp, err = wire.DecodeResponse(payload)
		}
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			// ctx's end, an earlier reader's deadline, or a late AfterFunc.
			// Re-arm before looking: an AfterFunc this overwrote shows in Err.
			cn.armRead(ctx, true)
			cerr := ctx.Err()
			if d, ok := ctx.Deadline(); cerr == nil && ok && !time.Now().Before(d) {
				cerr = context.DeadlineExceeded // a deadline-only ctx cannot say so itself
			}
			if cerr != nil {
				cn.retire(id, ch)
				return resp, cerr
			}
		case err != nil:
			cn.fail(err) // whichever fail was first had this call pending
		case resp.ID == id:
			if kept && dst == nil {
				detach(&resp)
			}
			cn.retire(id, ch)
			return cn.delivered(resp, dst) // appends out of rbuf before leave
		default:
			if och, ok := cn.claim(resp.ID); ok {
				if kept {
					detach(&resp)
				}
				och <- resp // cap-1; never blocks
			}
		}
	}
}

// leave gives the role up and, if calls are pending, wakes one to take it: a
// caller registered before the store wins its own CompareAndSwap or is
// counted in inflight here.
func (cn *conn) leave() {
	cn.reading.Store(false)
	if cn.inflight.Load() > 0 {
		select {
		case cn.handoff <- struct{}{}:
		default: // a token is already waiting for the next parked caller
		}
	}
}

// armRead points the socket's read deadline at ctx's. An armed one that fires
// no later stands — firing early only brings the reader back with force set —
// so callers sharing a timeout arm a timer once per timeout, not per call.
func (cn *conn) armRead(ctx context.Context, force bool) {
	var want time.Time // zero: none, or ctx.Done covers it
	if ctx.Done() == nil {
		want, _ = ctx.Deadline()
	}
	if force || !want.IsZero() && (cn.rdl.IsZero() || want.Before(cn.rdl)) {
		cn.rdl = want
		cn.nc.SetReadDeadline(want) //nolint:errcheck // a dead socket fails the Read that follows
	}
}

// detach moves what resp still points to in the reader's buffer — the value,
// the batch rows' values — into one block of its own.
func detach(resp *wire.Response) {
	n := len(resp.Value)
	for i := range resp.Batch {
		n += len(resp.Batch[i].Value)
	}
	block := make([]byte, 0, n)
	own := func(v *[]byte) {
		block = append(block, *v...)
		*v = block[len(block)-len(*v) : len(block) : len(block)]
	}
	own(&resp.Value)
	for i := range resp.Batch {
		own(&resp.Batch[i].Value)
	}
}
