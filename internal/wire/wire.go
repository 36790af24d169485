// Package wire defines DStore's network protocol: a length-prefixed binary
// framing with CRC32C integrity, request ids for out-of-order response
// pipelining, one opcode per store operation, and typed status codes that
// round-trip the store's sentinel errors (ErrNotFound, ErrCorrupt,
// ErrDegraded) across the socket.
//
// Frame layout (all integers little-endian, matching the on-device formats):
//
//	offset  size  field
//	0       4     payload length n (bytes after the 8-byte header)
//	4       4     CRC32C of the payload
//	8       n     payload
//
// A request payload is
//
//	u64 id | u8 op | u16 keyLen | key | u32 valueLen | value | u32 limit
//
// (value is only meaningful for PUT, limit only for SCAN; both are encoded
// unconditionally so every request parses with one shape). A response
// payload is
//
//	u64 id | u8 op | u8 status | u16 msgLen | msg | section
//
// where section is present only when status is StatusOK and depends on the
// echoed op: GET carries the value, SCAN a counted object list, STATS and
// HEALTH fixed counter blocks. The id is chosen by the client and echoed
// verbatim; servers may answer ids in any order (that is what makes slow
// PUTs unable to head-of-line-block pipelined GETs).
//
// Decoding is defensive: every length field is validated against the bytes
// actually present, framing errors are typed (ErrChecksum, ErrFrameTooLarge,
// ErrMalformed), and no input — truncated, oversized, or random garbage —
// can make a decoder panic.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
)

// Op identifies a request operation.
type Op uint8

// Opcodes. Zero is deliberately invalid so an all-zero frame is malformed.
const (
	// OpPut stores Value under Key.
	OpPut Op = 1 + iota
	// OpGet retrieves Key's value.
	OpGet
	// OpDelete removes Key.
	OpDelete
	// OpScan lists up to Limit objects whose names start with Key.
	OpScan
	// OpStats fetches store + server counters.
	OpStats
	// OpHealth fetches the fault/integrity status.
	OpHealth
	// OpCheckpoint runs one synchronous checkpoint.
	OpCheckpoint
	// OpReplicate subscribes the connection to the server's committed WAL
	// records starting after the LSN carried in Value (8 bytes, little
	// endian). The server answers once with its current last LSN in the
	// response Value, then the connection leaves request/response mode: the
	// server streams record frames (AppendRecordFrame) and the subscriber
	// sends further OpReplicate requests as acks (Value = applied LSN),
	// which get no response.
	OpReplicate
	// OpPromote asks a standby server to promote: finish applying, open for
	// writes, and stop replicating.
	OpPromote
	// OpTxnBegin opens a transaction session on this connection. The client
	// assigns the transaction id (carried in Limit, like every OpTxn*
	// request) so the request needs no response payload.
	OpTxnBegin
	// OpTxnGet reads Key inside the transaction (read-your-writes; the read
	// joins the transaction's validation set).
	OpTxnGet
	// OpTxnPut buffers a write of Value under Key inside the transaction.
	OpTxnPut
	// OpTxnDelete buffers a deletion of Key inside the transaction.
	OpTxnDelete
	// OpTxnCommit validates and atomically applies the transaction;
	// StatusTxnConflict reports a validation failure (nothing applied).
	OpTxnCommit
	// OpTxnAbort discards the transaction.
	OpTxnAbort
	// OpRing fetches the server's routing ring: the response Value is the
	// internal/ring encoding (mode, epoch, weighted membership). Clients of
	// resharding-capable servers cache it pool-wide and attach its epoch to
	// data requests; a StatusNotMine reply tells them to re-fetch here.
	OpRing
	// OpMPut stores N key/value pairs in one frame (Request.Subs). The
	// response carries one BatchResult per sub-op, in request order; the top
	// status is StatusOK when every sub-op succeeded and StatusPartial for
	// mixed results. Sub-ops are independent: there is no cross-key
	// atomicity (that is what transactions are for) — batching here
	// amortizes the frame and the server's WAL fence, nothing else.
	OpMPut
	// OpMGet retrieves N keys in one frame; each OK BatchResult carries
	// that sub-op's value.
	OpMGet
	// OpMDelete removes N keys in one frame.
	OpMDelete

	opMax
)

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o >= OpPut && o < opMax }

// Txn reports whether o is one of the transaction-session opcodes. Every
// such request carries the client-chosen transaction id in Limit.
func (o Op) Txn() bool { return o >= OpTxnBegin && o <= OpTxnAbort }

// Multi reports whether o is one of the batched opcodes, whose requests
// carry Subs and whose responses carry per-sub-op BatchResults.
func (o Op) Multi() bool { return o == OpMPut || o == OpMGet || o == OpMDelete }

// Routed reports whether o carries keys the ring routes: the client stamps
// such a request with its cached epoch and the server refuses a stale one
// (and re-checks a batch per sub-op — a reshard can land mid-batch).
// Control-plane ops are exempt: they must keep working for a client whose
// shard map is stale — OpRing especially, the repair path.
func (o Op) Routed() bool {
	return o == OpPut || o == OpGet || o == OpDelete || o == OpScan || o.Txn() || o.Multi()
}

func (o Op) String() string {
	switch o {
	case OpPut:
		return "PUT"
	case OpGet:
		return "GET"
	case OpDelete:
		return "DELETE"
	case OpScan:
		return "SCAN"
	case OpStats:
		return "STATS"
	case OpHealth:
		return "HEALTH"
	case OpCheckpoint:
		return "CHECKPOINT"
	case OpReplicate:
		return "REPLICATE"
	case OpPromote:
		return "PROMOTE"
	case OpTxnBegin:
		return "TXN_BEGIN"
	case OpTxnGet:
		return "TXN_GET"
	case OpTxnPut:
		return "TXN_PUT"
	case OpTxnDelete:
		return "TXN_DELETE"
	case OpTxnCommit:
		return "TXN_COMMIT"
	case OpTxnAbort:
		return "TXN_ABORT"
	case OpRing:
		return "RING"
	case OpMPut:
		return "MPUT"
	case OpMGet:
		return "MGET"
	case OpMDelete:
		return "MDELETE"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Status is a response result code. Codes are part of the protocol: the
// server maps store errors onto them and the client maps them back onto the
// store's sentinel errors, so errors.Is works across the socket.
type Status uint8

const (
	// StatusOK is success.
	StatusOK Status = iota
	// StatusNotFound round-trips dstore.ErrNotFound.
	StatusNotFound
	// StatusCorrupt round-trips dstore.ErrCorrupt (at-rest data corruption).
	StatusCorrupt
	// StatusDegraded round-trips dstore.ErrDegraded: the store is read-only;
	// writes fail with this code while reads keep being served.
	StatusDegraded
	// StatusClosed means the store behind the server is closed.
	StatusClosed
	// StatusShuttingDown means the server is draining and accepted no new
	// work for this request; the client may retry elsewhere.
	StatusShuttingDown
	// StatusBadRequest means the request was structurally valid but
	// semantically rejected (unknown opcode, empty key, oversized key).
	StatusBadRequest
	// StatusInternal covers any other server-side failure; Msg has detail.
	StatusInternal
	// StatusReplGap rejects an OpReplicate subscription whose position
	// predates the primary's log recycling horizon: the standby cannot be
	// caught up record-by-record and must re-seed from scratch.
	StatusReplGap
	// StatusTxnConflict round-trips dstore.ErrTxnConflict: transaction
	// validation failed and nothing was applied. Deliberately non-transient —
	// a connection-level retry of the commit could double-apply; the caller
	// must retry the whole transaction.
	StatusTxnConflict
	// StatusNotMine rejects a data request whose ring epoch (the optional
	// trailing request word) does not match the server's: the client's
	// cached shard map is stale. Nothing was applied; the client should
	// fetch the current ring with OpRing and retry. Deliberately
	// non-transient at the connection level — the repair is a ring refresh,
	// not a resend.
	StatusNotMine
	// StatusPartial is the top-level status of a batched (OpM*) response in
	// which some sub-ops succeeded and some failed: the per-sub-op verdicts
	// are in the response's BatchResults. Never used for single ops.
	StatusPartial

	statusMax
)

// Valid reports whether s is a defined status code.
func (s Status) Valid() bool { return s < statusMax }

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusCorrupt:
		return "CORRUPT"
	case StatusDegraded:
		return "DEGRADED"
	case StatusClosed:
		return "CLOSED"
	case StatusShuttingDown:
		return "SHUTTING_DOWN"
	case StatusBadRequest:
		return "BAD_REQUEST"
	case StatusInternal:
		return "INTERNAL"
	case StatusReplGap:
		return "REPL_GAP"
	case StatusTxnConflict:
		return "TXN_CONFLICT"
	case StatusNotMine:
		return "NOT_MINE"
	case StatusPartial:
		return "PARTIAL"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Framing errors.
var (
	// ErrFrameTooLarge is returned when a frame header announces a payload
	// beyond the reader's limit (protects servers from memory-exhaustion by
	// a single garbage length word).
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrChecksum is returned when a payload fails its CRC32C.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrMalformed is returned when a payload's internal lengths do not add
	// up or a field is out of range.
	ErrMalformed = errors.New("wire: malformed payload")
)

const (
	// FrameHeader is the fixed frame header size (length + CRC).
	FrameHeader = 8
	// MaxFrame is the protocol's one frame cap: every reader bounds the
	// payloads it accepts by it, and the client refuses to send a larger
	// request. It fits the default 64 KiB-object geometry with comfortable
	// headroom.
	MaxFrame = 1 << 20
	// MaxKeyLen is the largest key the encoding can carry.
	MaxKeyLen = 1<<16 - 1

	reqFixed  = 8 + 1 + 2 + 4 + 4 // id op keyLen valueLen limit
	respFixed = 8 + 1 + 1 + 2     // id op status msgLen

	// MaxBatch bounds sub-ops per batched (OpM*) frame. Callers split
	// larger batches; decoders reject larger counts as malformed.
	MaxBatch = 256
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Request is one client operation.
type Request struct {
	// ID is the client-chosen pipelining id, echoed on the response.
	ID uint64
	// Op selects the operation.
	Op Op
	// Key is the object name (the prefix for OpScan; empty for OpStats,
	// OpHealth, OpCheckpoint).
	Key string
	// Value is the object content for OpPut.
	Value []byte
	// Limit bounds OpScan results; 0 means the server's cap.
	Limit uint32
	// Epoch is the client's cached ring epoch, carried as an optional
	// trailing word: encoded only when nonzero, so clients of
	// never-resharded stores (epoch 0) emit frames byte-identical to the
	// pre-ring protocol and old servers keep parsing them. A
	// resharding-capable server compares a nonzero Epoch on data requests
	// against its own and answers StatusNotMine on mismatch.
	Epoch uint64
	// Subs carries the sub-ops of a batched (OpM*) request, at most
	// MaxBatch of them. On the wire they ride inside the value slot (the
	// key slot stays empty), so the frame keeps the universal request
	// shape and non-batched frames are byte-identical to before.
	Subs []BatchSub
}

// BatchSub is one sub-op of a batched request. Value is meaningful only
// for OpMPut.
type BatchSub struct {
	Key   string
	Value []byte
}

// BatchResult is one sub-op's verdict inside a batched response, in
// request order. Value is meaningful only for OpMGet with StatusOK.
type BatchResult struct {
	Status Status
	Msg    string
	Value  []byte
}

// Object is one SCAN result row.
type Object struct {
	Name   string
	Size   uint64
	Blocks uint32
}

// A counter row is a struct of uint64 fields whose declaration order is its
// wire order. Every STATS row type is one; the codec below reads and writes
// rows through that order alone, so adding a counter to a row means adding
// the field and nothing else.

// ShardStat is one store's counter row: the aggregate at the head of a
// StatsReply, and each per-shard row of a sharded one.
type ShardStat struct {
	Puts, Gets, Deletes, Reads, Writes, Opens uint64
	Objects                                   uint64
	Checkpoints, RecordsReplayed              uint64
	DRAMBytes, PMEMBytes, SSDBytes            uint64
}

// StatsReply is the STATS payload: the aggregate counter row (store
// operation counters, engine checkpoint counters, per-tier footprint), the
// serving front end's own connection/request counters, and then the optional
// trailing sections of statsSections, in that order. A section that is
// absent costs no bytes unless a later one is present, so a server that uses
// none of them emits the fixed block alone — byte-identical to the first
// version of the protocol — and peers of any age keep parsing each other.
type StatsReply struct {
	ShardStat
	ServerConns, ServerRequests uint64
	// Shards holds per-shard counter rows in shard order; empty for a
	// single-store server.
	Shards []ShardStat
	// Cache holds the block-cache counters when the server has a cache
	// configured; nil otherwise.
	Cache *CacheReply
	// Repl holds replication counters when the server participates in
	// replication (as primary with subscribers or as standby); nil
	// otherwise.
	Repl *ReplReply
	// Txn holds transaction counters once the server has seen transaction
	// activity; nil otherwise.
	Txn *TxnReply
	// Batch holds WAL group-commit counters once the store has settled
	// records through batches; nil otherwise.
	Batch *BatchReply
}

// CacheStat is one block-cache counter row (the aggregate or one shard's).
type CacheStat struct {
	Hits, Misses, Evictions uint64
	Bytes, Capacity         uint64
}

// CacheReply is the STATS cache section: the aggregate counters plus, on a
// sharded server, one row per store shard (paralleling StatsReply.Shards).
// A configured cache always has Capacity > 0.
type CacheReply struct {
	CacheStat
	// Shards holds per-store-shard cache rows in shard order; empty for a
	// single-store server.
	Shards []CacheStat
}

// Replication roles carried in ReplReply.Role.
const (
	// ReplRolePrimary marks a server exporting its WAL to subscribers.
	ReplRolePrimary uint64 = 1
	// ReplRoleStandby marks a server applying a primary's WAL.
	ReplRoleStandby uint64 = 2
)

// ReplReply is the STATS replication section. Replication lag is
// LastLSN − AckedLSN: the records the primary has committed but no
// subscriber has applied yet. A real block always has a nonzero Role.
type ReplReply struct {
	// Role is ReplRolePrimary or ReplRoleStandby.
	Role uint64
	// Subscribers counts live feed subscriptions (primary side).
	Subscribers uint64
	// Drops counts subscribers disconnected for lagging beyond the
	// server's bound (primary side, monotonic).
	Drops uint64
	// LastLSN is the highest committed LSN (primary: its log; standby: the
	// highest LSN the feed has announced).
	LastLSN uint64
	// AckedLSN is the lowest applied LSN across subscribers (primary
	// side), or this standby's own applied LSN (standby side).
	AckedLSN uint64
}

// TxnReply is the STATS transaction section; servers attach it only with a
// nonzero count in it.
type TxnReply struct {
	// Commits counts transactions that validated and applied.
	Commits uint64
	// Aborts counts transactions explicitly abandoned by clients.
	Aborts uint64
	// Conflicts counts commit attempts rejected by OCC validation.
	Conflicts uint64
}

// BatchReply is the STATS group-commit section; servers attach it only with
// a nonzero Batches count.
type BatchReply struct {
	// Batches counts settles of at least one record.
	Batches uint64
	// Records counts records settled; Records/Batches is the mean batch size.
	Records uint64
	// Parked always reads 0 (every committer settles its own records); the
	// benchmark's layer metrics read it.
	Parked uint64
}

// ShardHealth is one store's fault status, mirroring dstore.Health: the
// aggregate at the head of a HealthReply, and each per-shard row of a
// sharded one. Block ids are local to the shard's own SSD.
type ShardHealth struct {
	Degraded                                    bool
	Reason                                      string
	IORetries, WriteErrors, Corruptions, Remaps uint64
	QuarantinedBlocks                           []uint64
}

// shardHealthMinBytes is the smallest encoded ShardHealth row (empty
// reason, empty quarantine list).
const shardHealthMinBytes = 1 + 2 + 4*8 + 4

// HealthReply is the HEALTH payload: the aggregate row, then — on sharded
// servers only, so single-store frames keep the original layout — a counted
// list of per-shard rows. In that case the aggregate QuarantinedBlocks
// concatenates shard-local block ids, and the per-shard rows are the
// unambiguous view.
type HealthReply struct {
	ShardHealth
	// Shards holds per-shard health rows in shard order; empty for a
	// single-store server.
	Shards []ShardHealth
}

// Response answers one Request.
type Response struct {
	// ID echoes the request id.
	ID uint64
	// Op echoes the request opcode (it selects the section layout).
	Op Op
	// Status is the result code; Msg carries human-readable detail for
	// non-OK statuses.
	Status Status
	Msg    string
	// Value is the GET result (section present only when Status is OK).
	Value []byte
	// Objects is the SCAN result.
	Objects []Object
	// Stats is the STATS result.
	Stats *StatsReply
	// Health is the HEALTH result.
	Health *HealthReply
	// Batch holds the per-sub-op verdicts of a batched (OpM*) response,
	// present when Status is StatusOK or StatusPartial.
	Batch []BatchResult
}

// ------------------------------------------------------------------ frames

// AppendFrame appends a complete frame carrying payload to dst.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// beginFrame reserves a frame header in dst and returns its offset. The
// payload is then encoded directly into dst (no intermediate buffer) and
// finishFrame backfills the header, so a reused dst makes encoding
// allocation-free on the hot path.
func beginFrame(dst []byte) ([]byte, int) {
	off := len(dst)
	return append(dst, make([]byte, FrameHeader)...), off
}

// finishFrame backfills the length and CRC32C for the payload encoded after
// the header that beginFrame placed at off.
func finishFrame(dst []byte, off int) []byte {
	payload := dst[off+FrameHeader:]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[off+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// ReadFrame reads one frame from r and returns its payload (freshly
// allocated, so it may outlive the next read). maxPayload bounds the
// announced length; 0 means MaxFrame. A short or interrupted stream
// surfaces as io.EOF / io.ErrUnexpectedEOF, a corrupted payload as
// ErrChecksum.
func ReadFrame(r io.Reader, maxPayload int) ([]byte, error) {
	return ReadFrameInto(r, maxPayload, nil)
}

// ReadFrameInto is ReadFrame reusing buf's capacity for the payload when it
// is large enough (allocating only when it is not). The returned slice
// aliases buf in that case, so the caller owns recycling it.
func ReadFrameInto(r io.Reader, maxPayload int, buf []byte) ([]byte, error) {
	return NewFrameReader(r, maxPayload).Next(buf)
}

// FrameReader reads the frames of one stream and keeps the frame it is in:
// after an error that leaves the stream usable — a read deadline — the next
// call to Next continues that frame where the last one stopped.
type FrameReader struct {
	r       io.Reader
	max     uint32
	hdr     [FrameHeader]byte
	have    int    // bytes of the current frame read so far, header included
	payload []byte // sized once the header is whole
}

// NewFrameReader reads frames from r (maxPayload as for ReadFrame).
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	if maxPayload <= 0 {
		maxPayload = MaxFrame
	}
	return &FrameReader{r: r, max: uint32(maxPayload)}
}

// Next returns the next frame's payload, read into buf when buf has the
// capacity (a frame being continued keeps the buffer it started in).
func (f *FrameReader) Next(buf []byte) ([]byte, error) {
	if f.have < FrameHeader {
		if err := f.fill(f.hdr[:], 0); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(f.hdr[0:4])
		if n > f.max {
			return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, f.max)
		}
		if uint32(cap(buf)) >= n {
			f.payload = buf[:n]
		} else {
			f.payload = make([]byte, n)
		}
	}
	if err := f.fill(f.payload, FrameHeader); err != nil {
		return nil, err
	}
	payload := f.payload
	f.have, f.payload = 0, nil
	want := binary.LittleEndian.Uint32(f.hdr[4:8])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, want)
	}
	return payload, nil
}

// fill reads until p, which starts base bytes into the frame, is full.
func (f *FrameReader) fill(p []byte, base int) error {
	n, err := io.ReadFull(f.r, p[f.have-base:])
	f.have += n
	if err == io.EOF && f.have > 0 {
		err = io.ErrUnexpectedEOF // the stream ended inside a frame
	}
	return err
}

// --------------------------------------------------------------- requests

// AppendRequest appends a framed request to dst. Keys longer than MaxKeyLen
// are rejected here (the only client-side fixed limit; total frame size is
// the transport's concern).
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	if len(req.Key) > MaxKeyLen {
		return dst, fmt.Errorf("%w: key length %d > %d", ErrMalformed, len(req.Key), MaxKeyLen)
	}
	dst, off := beginFrame(dst)
	dst = binary.LittleEndian.AppendUint64(dst, req.ID)
	dst = append(dst, byte(req.Op))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(req.Key)))
	dst = append(dst, req.Key...)
	if req.Op.Multi() {
		// Batched sub-ops ride in the value slot as a counted blob, so the
		// frame keeps the universal shape (and the trailing-epoch heuristic
		// stays unambiguous: the blob's length word is explicit).
		if len(req.Subs) > MaxBatch {
			return dst[:off], fmt.Errorf("%w: batch of %d > %d", ErrMalformed, len(req.Subs), MaxBatch)
		}
		lenOff := len(dst)
		dst = append(dst, 0, 0, 0, 0) // blob length, backfilled below
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Subs)))
		for i := range req.Subs {
			sub := &req.Subs[i]
			if len(sub.Key) > MaxKeyLen {
				return dst[:off], fmt.Errorf("%w: sub-op key length %d > %d", ErrMalformed, len(sub.Key), MaxKeyLen)
			}
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(sub.Key)))
			dst = append(dst, sub.Key...)
			if req.Op == OpMPut {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(len(sub.Value)))
				dst = append(dst, sub.Value...)
			}
		}
		binary.LittleEndian.PutUint32(dst[lenOff:], uint32(len(dst)-lenOff-4))
	} else {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Value)))
		dst = append(dst, req.Value...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, req.Limit)
	// Optional trailing epoch word (see Request.Epoch): zero epochs are
	// omitted so the frame stays byte-identical to the pre-ring encoding.
	if req.Epoch != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, req.Epoch)
	}
	return finishFrame(dst, off), nil
}

// DecodeRequest parses a request payload. The returned request's Value
// aliases payload.
func DecodeRequest(payload []byte) (Request, error) {
	d := decoder{p: payload}
	var req Request
	req.ID = d.u64()
	req.Op = Op(d.u8())
	req.Key = string(d.bytes(int(d.u16())))
	if req.Op.Multi() {
		// The value slot carries the counted sub-op blob; parse it with a
		// sub-decoder so its lengths cannot reach past the blob.
		sub := decoder{p: d.bytes(int(d.u32()))}
		n := int(sub.u32())
		minSub := 2 // u16 keyLen
		if req.Op == OpMPut {
			minSub = 6 // + u32 valueLen
		}
		if sub.err == nil && (n > MaxBatch || n > sub.remaining()/minSub) {
			return Request{}, fmt.Errorf("%w: batch count %d", ErrMalformed, n)
		}
		if sub.err == nil && n > 0 {
			req.Subs = make([]BatchSub, 0, n)
			for i := 0; i < n && sub.err == nil; i++ {
				var s BatchSub
				s.Key = string(sub.bytes(int(sub.u16())))
				if req.Op == OpMPut {
					s.Value = sub.bytes(int(sub.u32()))
				}
				req.Subs = append(req.Subs, s)
			}
		}
		if !sub.done() {
			return Request{}, sub.fail("batch request")
		}
	} else {
		req.Value = d.bytes(int(d.u32()))
	}
	req.Limit = d.u32()
	// Optional trailing epoch word: exactly 8 further bytes or nothing.
	if d.err == nil && d.remaining() == 8 {
		req.Epoch = d.u64()
	}
	if !d.done() {
		return Request{}, d.fail("request")
	}
	return req, nil
}

// --------------------------------------------------------------- responses

// AppendResponse appends a framed response to dst. The response is encoded
// in place after a reserved header (no intermediate payload buffer), so
// callers that recycle dst pay zero allocations per frame.
func AppendResponse(dst []byte, resp *Response) []byte {
	msg := resp.Msg
	if len(msg) > MaxKeyLen {
		msg = msg[:MaxKeyLen]
	}
	dst, off := beginFrame(dst)
	dst = binary.LittleEndian.AppendUint64(dst, resp.ID)
	dst = append(dst, byte(resp.Op), byte(resp.Status))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	dst = append(dst, msg...)
	if resp.Op.Multi() && (resp.Status == StatusOK || resp.Status == StatusPartial) {
		// Batched verdicts: one row per sub-op, in request order. Present
		// for OK (all sub-ops succeeded) and PARTIAL (mixed); frame-level
		// failures use the plain statuses and carry no section.
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Batch)))
		for i := range resp.Batch {
			b := &resp.Batch[i]
			bmsg := b.Msg
			if len(bmsg) > MaxKeyLen {
				bmsg = bmsg[:MaxKeyLen]
			}
			dst = append(dst, byte(b.Status))
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(bmsg)))
			dst = append(dst, bmsg...)
			if resp.Op == OpMGet && b.Status == StatusOK {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Value)))
				dst = append(dst, b.Value...)
			}
		}
		return finishFrame(dst, off)
	}
	if resp.Status == StatusOK {
		switch resp.Op {
		case OpGet, OpReplicate, OpTxnGet, OpRing:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Value)))
			dst = append(dst, resp.Value...)
		case OpScan:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Objects)))
			for _, o := range resp.Objects {
				name := o.Name
				if len(name) > MaxKeyLen {
					name = name[:MaxKeyLen]
				}
				dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
				dst = append(dst, name...)
				dst = binary.LittleEndian.AppendUint64(dst, o.Size)
				dst = binary.LittleEndian.AppendUint32(dst, o.Blocks)
			}
		case OpStats:
			st := resp.Stats
			if st == nil {
				st = &StatsReply{}
			}
			dst = appendStats(dst, st)
		case OpHealth:
			h := resp.Health
			if h == nil {
				h = &HealthReply{}
			}
			dst = appendHealthRow(dst, &h.ShardHealth)
			// Shard rows are a trailing optional section: absent for a single
			// store, so those frames match the pre-sharding layout.
			if len(h.Shards) > 0 {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(len(h.Shards)))
				for i := range h.Shards {
					dst = appendHealthRow(dst, &h.Shards[i])
				}
			}
		}
	}
	return finishFrame(dst, off)
}

// appendHealthRow encodes one health row (the aggregate or one shard's):
// degraded flag, truncated reason, four counters, counted quarantine list.
func appendHealthRow(dst []byte, h *ShardHealth) []byte {
	var deg byte
	if h.Degraded {
		deg = 1
	}
	reason := h.Reason
	if len(reason) > MaxKeyLen {
		reason = reason[:MaxKeyLen]
	}
	dst = append(dst, deg)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(reason)))
	dst = append(dst, reason...)
	for _, v := range []uint64{h.IORetries, h.WriteErrors, h.Corruptions, h.Remaps} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(h.QuarantinedBlocks)))
	for _, b := range h.QuarantinedBlocks {
		dst = binary.LittleEndian.AppendUint64(dst, b)
	}
	return dst
}

// decodeHealthRow parses one health row (the inverse of appendHealthRow).
// On underflow the decoder's latched error stands.
func decodeHealthRow(d *decoder, h *ShardHealth) {
	h.Degraded = d.u8() != 0
	h.Reason = string(d.bytes(int(d.u16())))
	h.IORetries, h.WriteErrors, h.Corruptions, h.Remaps = d.u64(), d.u64(), d.u64(), d.u64()
	n := int(d.u32())
	if d.err == nil && n > d.remaining()/8 {
		d.err = fmt.Errorf("%w: quarantine count %d", ErrMalformed, n)
		return
	}
	for i := 0; i < n && d.err == nil; i++ {
		h.QuarantinedBlocks = append(h.QuarantinedBlocks, d.u64())
	}
}

// appendCounters encodes one counter row; row points at it.
func appendCounters(dst []byte, row any) []byte {
	v := reflect.ValueOf(row).Elem()
	for i := range v.NumField() {
		dst = binary.LittleEndian.AppendUint64(dst, v.Field(i).Uint())
	}
	return dst
}

// decodeCounters parses one counter row into *row (the inverse of
// appendCounters); a short payload leaves the row as it was.
func decodeCounters(d *decoder, row any) {
	v := reflect.ValueOf(row).Elem()
	got := reflect.New(v.Type()).Elem()
	for i := range got.NumField() {
		got.Field(i).SetUint(d.u64())
	}
	if d.err == nil {
		v.Set(got)
	}
}

// appendRows encodes a u32-counted list of counter rows.
func appendRows[T any](dst []byte, rows []T) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	for i := range rows {
		dst = appendCounters(dst, &rows[i])
	}
	return dst
}

// decodeRows parses a u32-counted list of counter rows (the inverse of
// appendRows). A count the remaining bytes cannot possibly satisfy is
// rejected before anything is allocated for it.
func decodeRows[T any](d *decoder, what string) []T {
	n := int(d.u32())
	if width := 8 * reflect.TypeFor[T]().NumField(); d.err == nil && n > d.remaining()/width {
		d.err = fmt.Errorf("%w: %s count %d", ErrMalformed, what, n)
		return nil
	}
	var rows []T
	for i := 0; i < n && d.err == nil; i++ {
		var row T
		decodeCounters(d, &row)
		rows = append(rows, row)
	}
	return rows
}

// statsSection is one optional trailing section of the STATS payload.
type statsSection struct {
	present func(*StatsReply) bool
	// encode appends the section, zero-valued when it is absent.
	encode func([]byte, *StatsReply) []byte
	// decode parses the section and attaches it unless it is zero-valued.
	decode func(*decoder, *StatsReply)
}

// blockSection is a section that is one fixed counter block behind a pointer
// field of StatsReply.
func blockSection[T comparable](field func(*StatsReply) **T) statsSection {
	return statsSection{
		present: func(st *StatsReply) bool { return *field(st) != nil },
		encode: func(dst []byte, st *StatsReply) []byte {
			v := *field(st)
			if v == nil {
				v = new(T)
			}
			return appendCounters(dst, v)
		},
		decode: func(d *decoder, st *StatsReply) {
			v := new(T)
			if decodeCounters(d, v); *v != *new(T) {
				*field(st) = v
			}
		},
	}
}

// statsSections lists the optional trailing STATS sections in wire order.
// The sections carry no tags — the decode is positional — so a present
// section forces out every section before it, zero-valued where absent, and
// a zero-valued section decodes back to absent. That is unambiguous because
// no real section is all zeros: a configured cache has a nonzero Capacity, a
// replicating server a nonzero Role, and servers attach the txn and batch
// blocks only with nonzero counts. With no section present the payload ends
// at the fixed block. A new section is appended here and nowhere else.
var statsSections = []statsSection{
	{ // per-shard counter rows
		present: func(st *StatsReply) bool { return len(st.Shards) > 0 },
		encode:  func(dst []byte, st *StatsReply) []byte { return appendRows(dst, st.Shards) },
		decode:  func(d *decoder, st *StatsReply) { st.Shards = decodeRows[ShardStat](d, "shard stats") },
	},
	{ // block cache: the aggregate row, then per-shard rows
		present: func(st *StatsReply) bool { return st.Cache != nil },
		encode: func(dst []byte, st *StatsReply) []byte {
			c := st.Cache
			if c == nil {
				c = &CacheReply{}
			}
			return appendRows(appendCounters(dst, &c.CacheStat), c.Shards)
		},
		decode: func(d *decoder, st *StatsReply) {
			c := &CacheReply{}
			decodeCounters(d, &c.CacheStat)
			c.Shards = decodeRows[CacheStat](d, "cache stats")
			if c.CacheStat != (CacheStat{}) || len(c.Shards) > 0 {
				st.Cache = c
			}
		},
	},
	blockSection(func(st *StatsReply) **ReplReply { return &st.Repl }),
	blockSection(func(st *StatsReply) **TxnReply { return &st.Txn }),
	blockSection(func(st *StatsReply) **BatchReply { return &st.Batch }),
}

// appendStats encodes the STATS payload: the fixed block, then every section
// up to the last present one.
func appendStats(dst []byte, st *StatsReply) []byte {
	dst = appendCounters(dst, &st.ShardStat)
	dst = binary.LittleEndian.AppendUint64(dst, st.ServerConns)
	dst = binary.LittleEndian.AppendUint64(dst, st.ServerRequests)
	last := -1
	for i, sec := range statsSections {
		if sec.present(st) {
			last = i
		}
	}
	for _, sec := range statsSections[:last+1] {
		dst = sec.encode(dst, st)
	}
	return dst
}

// decodeStats parses the STATS payload (the inverse of appendStats): the
// fixed block, then sections in order for as long as bytes remain.
func decodeStats(d *decoder) *StatsReply {
	st := &StatsReply{}
	decodeCounters(d, &st.ShardStat)
	st.ServerConns, st.ServerRequests = d.u64(), d.u64()
	for _, sec := range statsSections {
		if d.err != nil || d.remaining() == 0 {
			break
		}
		sec.decode(d, st)
	}
	return st
}

// DecodeResponse parses a response payload. The returned response's Value
// aliases payload.
func DecodeResponse(payload []byte) (Response, error) {
	d := decoder{p: payload}
	var resp Response
	resp.ID = d.u64()
	resp.Op = Op(d.u8())
	resp.Status = Status(d.u8())
	resp.Msg = string(d.bytes(int(d.u16())))
	if d.err == nil && !resp.Status.Valid() {
		return Response{}, fmt.Errorf("%w: response status %d", ErrMalformed, resp.Status)
	}
	if resp.Op.Multi() && (resp.Status == StatusOK || resp.Status == StatusPartial) {
		n := int(d.u32())
		// Each row is at least 3 bytes (status + msgLen).
		if d.err == nil && (n > MaxBatch || n > d.remaining()/3) {
			return Response{}, fmt.Errorf("%w: batch result count %d", ErrMalformed, n)
		}
		if d.err == nil && n > 0 {
			resp.Batch = make([]BatchResult, 0, n)
			for i := 0; i < n && d.err == nil; i++ {
				var b BatchResult
				b.Status = Status(d.u8())
				if d.err == nil && !b.Status.Valid() {
					return Response{}, fmt.Errorf("%w: batch result status %d", ErrMalformed, b.Status)
				}
				b.Msg = string(d.bytes(int(d.u16())))
				if resp.Op == OpMGet && b.Status == StatusOK {
					b.Value = d.bytes(int(d.u32()))
				}
				resp.Batch = append(resp.Batch, b)
			}
		}
		if !d.done() {
			return Response{}, d.fail("batch response")
		}
		return resp, nil
	}
	if resp.Status == StatusOK {
		switch resp.Op {
		case OpGet, OpReplicate, OpTxnGet, OpRing:
			resp.Value = d.bytes(int(d.u32()))
		case OpScan:
			n := int(d.u32())
			// Each row is at least 14 bytes; reject counts the remaining
			// bytes cannot possibly satisfy before allocating.
			if d.err == nil && n > d.remaining()/14 {
				return Response{}, fmt.Errorf("%w: scan count %d", ErrMalformed, n)
			}
			if d.err == nil && n > 0 {
				resp.Objects = make([]Object, 0, n)
				for i := 0; i < n && d.err == nil; i++ {
					var o Object
					o.Name = string(d.bytes(int(d.u16())))
					o.Size = d.u64()
					o.Blocks = d.u32()
					resp.Objects = append(resp.Objects, o)
				}
			}
		case OpStats:
			resp.Stats = decodeStats(&d)
		case OpHealth:
			h := &HealthReply{}
			decodeHealthRow(&d, &h.ShardHealth)
			if d.err == nil && d.remaining() > 0 {
				n := int(d.u32())
				if d.err == nil && n > d.remaining()/shardHealthMinBytes {
					return Response{}, fmt.Errorf("%w: shard health count %d", ErrMalformed, n)
				}
				for i := 0; i < n && d.err == nil; i++ {
					var row ShardHealth
					decodeHealthRow(&d, &row)
					h.Shards = append(h.Shards, row)
				}
			}
			resp.Health = h
		}
	}
	if !d.done() {
		return Response{}, d.fail("response")
	}
	return resp, nil
}

// ----------------------------------------------------------------- decoder

// decoder is a bounds-checked cursor over a payload. The first underflow
// latches err; subsequent reads return zeros so decode logic stays linear.
type decoder struct {
	p   []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || len(d.p)-d.off < n {
		d.err = ErrMalformed
		return false
	}
	return true
}

func (d *decoder) bytes(n int) []byte {
	if !d.need(n) {
		return nil
	}
	v := d.p[d.off : d.off+n]
	d.off += n
	return v
}

// fixed is bytes(n) for a fixed-width field: zeros once the payload is short.
func (d *decoder) fixed(n int) []byte {
	if v := d.bytes(n); v != nil {
		return v
	}
	return zeros[:n]
}

var zeros [8]byte

func (d *decoder) u8() uint8   { return d.fixed(1)[0] }
func (d *decoder) u16() uint16 { return binary.LittleEndian.Uint16(d.fixed(2)) }
func (d *decoder) u32() uint32 { return binary.LittleEndian.Uint32(d.fixed(4)) }
func (d *decoder) u64() uint64 { return binary.LittleEndian.Uint64(d.fixed(8)) }

func (d *decoder) remaining() int { return len(d.p) - d.off }

// done reports a fully consumed, error-free payload. Trailing bytes are
// malformed: they would let a peer smuggle data past the CRC'd structure.
func (d *decoder) done() bool { return d.err == nil && d.off == len(d.p) }

func (d *decoder) fail(what string) error {
	if d.err != nil {
		return fmt.Errorf("%w: truncated %s", ErrMalformed, what)
	}
	return fmt.Errorf("%w: %d trailing byte(s) after %s", ErrMalformed, len(d.p)-d.off, what)
}
