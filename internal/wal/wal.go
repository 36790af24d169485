// Package wal implements the DIPPER operation log on PMEM (paper §3.4, §3.5,
// §4.4).
//
// The log records logical operations: each record is a 16-byte header and
// its name and parameters,
//
//	LSN u64 | op u16 | state u8 | reserved u8 | nameLen u16 | payLen u16 | name | params
//
// (paper Fig. 3), padded to 8 bytes; its length is derived from the two
// field lengths, so the header carries none.
//
// and is made durable with the paper's atomicity protocol, the body before the
// LSN: an append only stores the record's body in the log (it stays invisible,
// its LSN word still zero), and a publish makes the whole pending suffix of the
// log durable at once — one span flush and a fence make every pending body
// durable, and only then are the LSNs — the first 8 bytes of each record —
// written and persisted behind a second fence. A writer whose content is on its
// way to the SSD publishes while the device works (Publish), so its records are
// durable and uncommitted before the completion, and its commit persists only
// their state bytes; a commit publishes whatever is still pending. The
// order of the flushes inside one fence carries no guarantee: a crash may
// persist any subset of the lines flushed since the last fence, so the paper's
// reverse-order flush buys nothing the fence does not. A record is valid iff
// its LSN is non-zero and monotonically extends the log, so a torn publish is
// indistinguishable from "no record". An 8-byte zero guard is maintained after
// the last record so a scan can never misparse stale bytes from a previous log
// epoch.
//
// Two fixed-size logs form a Pair: the active log receives appends while the
// other is either empty or being replayed by a checkpoint (the archive). A
// checkpoint swaps them: the suffix of the active log starting at the first
// uncommitted record migrates to the new active log (preserving LSNs and
// commit flags), so the archived log holds a fully-committed, LSN-ordered
// prefix — this keeps replay deterministic, including the pool allocations
// that must happen in log order (paper §4.3). Migrating the whole suffix
// (rather than only uncommitted records) is the one deviation from the
// paper's description and is what preserves strict LSN-order replay; see
// DESIGN.md.
//
// The log doubles as DStore's write-write concurrency control (§4.4): the
// window from the first uncommitted record to the tail is scanned for an
// uncommitted record naming the same object; the requester then spins on
// that record's commit flag. NOOP records give olock/ounlock the same
// treatment (§4.5).
//
// Everyone first asks the in-flight-name filter (Pair.Quiet) — readers above
// all, and appenders inside the critical section they already hold: a fixed
// array of atomic counters, indexed by a hash of the record name, that is
// non-zero exactly while a record hashing there is laid down and not yet
// settled. A zero stripe proves the scan would find nothing, so the common
// read never touches a lock the write path holds; only a non-zero stripe (a
// real conflict, or a neighbour sharing the stripe) pays for the exact scan.
// The filter is DRAM-only: it is rebuilt empty by NewPair and RecoverPair,
// where no record is in flight.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"dstore/internal/pmem"
	"dstore/internal/space"
)

// Record layout constants.
const (
	recLSN   = 0  // u64, 0 = invalid
	recOp    = 8  // u16
	recState = 10 // u8: StateUncommitted/StateCommitted/StateDead
	// 11 reserved
	recNameLen = 12 // u16
	recPayLen  = 14 // u16
	recHeader  = 16

	logHeader = 64 // records start after one header line

	// MaxName and MaxPayload bound record fields.
	MaxName    = 1 << 12
	MaxPayload = 1 << 12
)

// Record commit states.
const (
	// StateUncommitted marks an in-flight operation (a CC conflict source).
	StateUncommitted = 0
	// StateCommitted marks a durable operation (replayed by checkpoints).
	StateCommitted = 1
	// StateDead marks a record orphaned by a crash: it is never replayed
	// and never conflicts.
	StateDead = 2
)

// ErrLogFull is returned by Append when the active log cannot hold the
// record; the caller should trigger (or wait for) a checkpoint and retry.
var ErrLogFull = errors.New("wal: active log full")

// ErrNeverFits is returned by Append for a record too large for even an empty
// log: no checkpoint makes room for it.
var ErrNeverFits = fmt.Errorf("%w: record larger than an empty log", ErrLogFull)

// Handle identifies an in-flight (uncommitted) record. Its location may move
// across a log swap; Committed and Wait are safe at any time.
type Handle struct {
	pair      *Pair // the pair that appended the record; only it settles the handle
	lsn       uint64
	stripe    uint32 // the name's in-flight-filter stripe, released at settle
	committed atomic.Bool
	off       uint64 // in the active log; guarded by the Pair's swap lock

	// err is a settle's verdict on the record between its two passes;
	// guarded by the log's mu.
	err error
}

// LSN returns the record's log sequence number.
func (h *Handle) LSN() uint64 { return h.lsn }

// Committed reports whether the record has committed.
func (h *Handle) Committed() bool { return h.committed.Load() }

// Wait spins until the record commits — the paper's "spin on the committed
// flag of the conflicting record" (§4.4).
func (h *Handle) Wait() {
	for !h.committed.Load() {
		runtime.Gosched()
	}
}

// RecordView is a decoded view of a log record. Name and Payload alias log
// memory and are valid only while the log region is stable (archived logs
// during a checkpoint, or any log under the swap lock).
type RecordView struct {
	LSN     uint64
	Op      uint16
	State   uint8
	Off     uint64
	Name    []byte
	Payload []byte
}

// pendingRec is one appended-but-unpublished record: its body and guard are
// stored in the buffer but no flush, fence, or LSN write has happened, so
// readRecord cannot see it yet.
type pendingRec struct {
	lsn   uint64
	off   uint64
	total uint64
}

// Log is a single log region. All mutation goes through its Pair.
type Log struct {
	sp   *space.PMEM
	mu   sync.Mutex // serializes appends and window scans
	tail uint64     // next append offset; guarded by mu
	cur  uint64     // firstUncommitted cursor (advanced by settles and scans); guarded by mu

	// pending lists records appended but not yet published. Invariant: the
	// log is a published prefix followed by the pending suffix, and publishes
	// happen strictly in offset (= LSN) order, so a scan stopping at the
	// first invalid LSN sees exactly the published prefix. Guarded by mu.
	pending []pendingRec
	// lines is publish and settle scratch (deduped cache-line indices),
	// retained to keep both paths allocation-free. Guarded by mu.
	lines []uint64

	// archiveMax is the highest LSN in this log's genuine archived prefix,
	// set when the log is archived by a swap and consumed (folded into the
	// pair's truncation horizon) when the log is recycled by the next swap.
	// Guarded by the Pair's swapMu.
	archiveMax uint64

	// appended and appendedBytes count the records Append and
	// AppendCommitted laid down in this log and their padded sizes; a swap's
	// migrated copies are not appends. Guarded by mu.
	appended, appendedBytes uint64
}

func newLog(sp *space.PMEM) *Log {
	return &Log{sp: sp, tail: logHeader, cur: logHeader}
}

// Tail returns the current append offset.
func (l *Log) Tail() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

func (l *Log) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tail = logHeader
	l.cur = logHeader
	l.pending = l.pending[:0]
	l.sp.PutU64(logHeader, 0) // zero guard
	l.sp.Persist(logHeader, 8)
}

func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

func recordSize(nameLen, payLen int) uint64 {
	return pad8(recHeader + uint64(nameLen) + uint64(payLen))
}

// readRecord decodes the record at off without validation beyond bounds:
// the field lengths within MaxName and MaxPayload, the record within the log.
func (l *Log) readRecord(off uint64) (RecordView, uint64, bool) {
	if off+recHeader > l.sp.Size() {
		return RecordView{}, 0, false
	}
	lsn := l.sp.GetU64(off + recLSN)
	if lsn == 0 {
		return RecordView{}, 0, false
	}
	nl := uint64(l.sp.GetU16(off + recNameLen))
	pl := uint64(l.sp.GetU16(off + recPayLen))
	total := recordSize(int(nl), int(pl))
	if nl > MaxName || pl > MaxPayload || off+total > l.sp.Size() {
		return RecordView{}, 0, false
	}
	rv := RecordView{
		LSN:     lsn,
		Op:      l.sp.GetU16(off + recOp),
		State:   l.sp.GetU8(off + recState),
		Off:     off,
		Name:    l.sp.Slice(off+recHeader, nl),
		Payload: l.sp.Slice(off+recHeader+nl, pl),
	}
	return rv, off + total, true
}

// advanceCursorLocked moves the firstUncommitted cursor past settled
// records. Caller holds l.mu.
func (l *Log) advanceCursorLocked() {
	for l.cur < l.tail {
		rv, next, ok := l.readRecord(l.cur)
		if !ok || rv.State == StateUncommitted {
			return
		}
		l.cur = next
	}
}

// findConflictLocked scans the uncommitted window for a record naming name,
// skipping the record with LSN ignore (a lock record held by the requester:
// olock holders may operate on their own locked objects). Caller holds l.mu.
// Returns the LSN of the first conflicting record.
func (l *Log) findConflictLocked(name []byte, ignore uint64) (uint64, bool) {
	l.advanceCursorLocked()
	off := l.cur
	for off < l.tail {
		rv, next, ok := l.readRecord(off)
		if !ok {
			break // the unpublished (pending) suffix begins here
		}
		if rv.State == StateUncommitted && rv.LSN != ignore && string(rv.Name) == string(name) {
			return rv.LSN, true
		}
		off = next
	}
	// Pending records are invisible to readRecord (their LSN words are still
	// zero) but are real in-flight operations: scan them straight from the
	// buffer. Their stores are visible here because appends and this scan
	// serialize on l.mu.
	for i := range l.pending {
		pr := &l.pending[i]
		if pr.lsn == ignore || l.sp.GetU8(pr.off+recState) != StateUncommitted {
			continue
		}
		nl := uint64(l.sp.GetU16(pr.off + recNameLen))
		if string(l.sp.Slice(pr.off+recHeader, nl)) == string(name) {
			return pr.lsn, true
		}
	}
	return 0, false
}

// walk calls fn for every valid record below end, in log order — the
// LSN-ascending prefix that a scan, a replay and recovery all read — and
// returns the offset past the last one. It stops at fn's first error.
func (l *Log) walk(end uint64, fn func(RecordView) error) (uint64, error) {
	off, prev := uint64(logHeader), uint64(0)
	for off < end {
		rv, next, ok := l.readRecord(off)
		if !ok || rv.LSN <= prev {
			break
		}
		if err := fn(rv); err != nil {
			return off, err
		}
		prev, off = rv.LSN, next
	}
	return off, nil
}

// IterateCommitted calls fn for every committed record in [logHeader, end)
// in LSN order. It is used for checkpoint replay (on a stable archived log)
// and for recovery replay.
func (l *Log) IterateCommitted(end uint64, fn func(RecordView) error) error {
	_, err := l.walk(end, func(rv RecordView) error {
		if rv.State != StateCommitted {
			return nil
		}
		return fn(rv)
	})
	return err
}

// IterateAll calls fn for every valid record regardless of state, in log
// order. For inspection tools; the caller must arrange stability (no
// concurrent swap).
func (l *Log) IterateAll(fn func(RecordView) error) error {
	_, err := l.walk(^uint64(0), fn)
	return err
}

// Pair is the active/archive log pair plus the global LSN counter and the
// registry of in-flight handles.
type Pair struct {
	swapMu sync.RWMutex // W: swap; R: append/commit/conflict checks
	logs   [2]*Log
	active int // guarded by swapMu

	lsn atomic.Uint64

	// truncated is the highest LSN that may no longer be present in either
	// log region — discarded by log recycling, or consumed by checkpoints
	// before a recovery. Replication exports refuse to start below it.
	// Guarded by swapMu.
	truncated uint64

	regMu    sync.Mutex
	registry map[uint64]*Handle // LSN -> in-flight handle; guarded by regMu

	// inflight is the in-flight-name filter: inflight[filterStripe(h)] counts
	// the registered handles whose name hashes to h. It is raised inside the
	// append's l.mu critical section, together with the registration, and
	// lowered where the handle leaves the registry, after its state byte is
	// settled — so at every instant a zero stripe means a window scan for any
	// name hashing there would come back empty. See Quiet.
	inflight [filterStripes]atomic.Int32

	batches atomic.Uint64 // settles of at least one record
	records atomic.Uint64 // records settled
	sealed  atomic.Bool   // set by Seal, under the active log's mu
}

// filterStripes sizes the in-flight-name filter (16 KiB per pair). A store
// has a handful of records in flight — one per concurrent writer, plus held
// olocks — so a few thousand stripes send well under 1 % of conflict checks
// to the scan on account of a neighbour.
const filterStripes = 1 << 12

func filterStripe(hash uint64) uint32 { return uint32(hash & (filterStripes - 1)) }

// NameHash hashes a record name (FNV-1a with a finishing mix, so that every
// bit range of the result is usable as a table index). The filter's stripe is
// a function of it; callers that key their own per-name tables by the same
// hash compute it once per operation and hand it to Quiet.
func NameHash[T ~string | ~[]byte](name T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// DRAM reports the pair's heap bytes: the in-flight-name filter, and the
// pending lists and publish scratch of both logs.
func (p *Pair) DRAM() (filter, pending uint64) {
	for _, l := range p.logs {
		l.mu.Lock()
		pending += uint64(cap(l.pending))*uint64(unsafe.Sizeof(pendingRec{})) + uint64(cap(l.lines))*8
		l.mu.Unlock()
	}
	return uint64(unsafe.Sizeof(p.inflight)), pending
}

// Quiet reports that no unsettled record's name hashes to hash's filter
// stripe — a proof, without taking swapMu or a log's mu, that FindConflict
// would return nil for every name with that hash. False means only "look":
// the record in flight may name something else on the stripe.
//
// The counters are sequentially consistent atomics, which is what lets a
// caller pair this load with a counter of its own (Dekker): a writer appends
// (raising the stripe) and then loads the caller's counter; the caller raises
// its counter and then calls Quiet. One of the two always sees the other.
func (p *Pair) Quiet(hash uint64) bool {
	return p.inflight[filterStripe(hash)].Load() == 0
}

// GroupCommitConfig is the argument of SetGroupCommit, which ignores it.
type GroupCommitConfig struct {
	// Enabled is ignored: group commit is the only commit path.
	Enabled bool
}

// SetGroupCommit does nothing: records committed together always share one
// settle. It stays for the benchmark's WAL probe (benchmark/probes.go:255),
// which calls it.
func (p *Pair) SetGroupCommit(GroupCommitConfig) {}

// GroupCommitStats is a snapshot of the settle counters. Mean records per
// batch is Records/Batches.
type GroupCommitStats struct {
	// Batches counts settles of at least one record.
	Batches uint64
	// Records counts records settled.
	Records uint64
	// Parked is always 0: every committer settles its own records. It stays
	// for the benchmark's layer metrics (benchmark/layers.go), which read it.
	Parked uint64
}

// GroupCommitStats returns a snapshot of the settle counters.
func (p *Pair) GroupCommitStats() GroupCommitStats {
	return GroupCommitStats{Batches: p.batches.Load(), Records: p.records.Load()}
}

// Appended returns the number of records appended to the pair and their
// total log bytes, headers and padding included.
func (p *Pair) Appended() (records, bytes uint64) {
	for _, l := range p.logs {
		l.mu.Lock()
		records, bytes = records+l.appended, bytes+l.appendedBytes
		l.mu.Unlock()
	}
	return records, bytes
}

// NewPair formats a fresh pair over two equally-sized PMEM windows; log a is
// initially active and the next LSN is startLSN.
func NewPair(a, b *space.PMEM, startLSN uint64) *Pair {
	p := &Pair{
		logs:     [2]*Log{newLog(a), newLog(b)},
		registry: make(map[uint64]*Handle),
	}
	p.lsn.Store(startLSN - 1)
	p.logs[0].reset()
	p.logs[1].reset()
	return p
}

// RecoverPair attaches to existing log regions after a crash. activeIdx comes
// from the root object. Every valid record is rescanned: committed records
// stay, uncommitted records are marked dead (their operations died with the
// process and must never be replayed or conflict). The LSN counter resumes
// above the highest LSN seen in either log.
func RecoverPair(a, b *space.PMEM, activeIdx int) (*Pair, error) {
	if activeIdx != 0 && activeIdx != 1 {
		return nil, fmt.Errorf("wal: bad active index %d", activeIdx)
	}
	p := &Pair{
		logs:     [2]*Log{newLog(a), newLog(b)},
		active:   activeIdx,
		registry: make(map[uint64]*Handle),
	}
	var maxLSN uint64
	minFirst := ^uint64(0)
	for _, l := range p.logs {
		tail, _ := l.walk(^uint64(0), func(rv RecordView) error { //nolint:errcheck // fn never fails
			if rv.Off == logHeader {
				minFirst = min(minFirst, rv.LSN)
			}
			maxLSN = max(maxLSN, rv.LSN)
			if rv.State == StateUncommitted {
				l.sp.PutU8(rv.Off+recState, StateDead)
				l.sp.Persist(rv.Off+recState, 1)
			}
			return nil
		})
		l.mu.Lock()
		l.tail, l.cur = tail, tail
		l.mu.Unlock()
	}
	p.lsn.Store(maxLSN)
	// The recycling history is lost with the crash; set the export horizon
	// conservatively. Records below the lowest LSN still present may have
	// been consumed by checkpoints, so replication must not resume there.
	if minFirst == ^uint64(0) {
		p.truncated = maxLSN
	} else {
		p.truncated = minFirst - 1
	}
	return p, nil
}

// Active returns the currently active log. Intended for stats/inspection;
// the result may be stale the moment it returns.
func (p *Pair) Active() *Log {
	p.swapMu.RLock()
	defer p.swapMu.RUnlock()
	return p.logs[p.active]
}

// ActiveIndex returns the index (0 or 1) of the active log.
func (p *Pair) ActiveIndex() int {
	p.swapMu.RLock()
	defer p.swapMu.RUnlock()
	return p.active
}

// Log returns log i (0 or 1).
func (p *Pair) Log(i int) *Log { return p.logs[i] }

// LastLSN returns the most recently assigned LSN.
func (p *Pair) LastLSN() uint64 { return p.lsn.Load() }

// FreeFraction reports the active log's remaining capacity fraction;
// checkpoints trigger when it falls below a threshold (paper §3.5).
func (p *Pair) FreeFraction() float64 {
	p.swapMu.RLock()
	l := p.logs[p.active]
	p.swapMu.RUnlock()
	l.mu.Lock()
	tail := l.tail
	l.mu.Unlock()
	size := l.sp.Size()
	return float64(size-tail) / float64(size)
}

// Seal ends the pair's commits: after the settle at work, every settle fails
// and leaves its records dead in DRAM. A failover seals the retired primary
// before the standby's final drain, which then ships every committed record:
// no uncommitted one can commit any more (ExportCommitted).
func (p *Pair) Seal() {
	p.swapMu.RLock()
	l := p.logs[p.active]
	l.mu.Lock()
	p.sealed.Store(true)
	l.mu.Unlock()
	p.swapMu.RUnlock()
}

// Head returns the oldest unsettled record, or nil when every record is
// settled. A swap keeps the log from that record on, so while it stays
// unsettled no checkpoint frees the space it pins.
func (p *Pair) Head() (head *Handle) {
	p.regMu.Lock()
	defer p.regMu.Unlock()
	for _, h := range p.registry {
		if head == nil || h.lsn < head.lsn {
			head = h
		}
	}
	return head
}

// InFlight returns the number of uncommitted records.
func (p *Pair) InFlight() int {
	p.regMu.Lock()
	defer p.regMu.Unlock()
	return len(p.registry)
}

// Append atomically checks the conflict window and, if no uncommitted record
// names the same object, appends an uncommitted record and returns its
// handle. If a conflict exists, Append returns (nil, conflict, nil) and the
// caller must conflict.Wait() and retry — this is the paper's CC for
// write-write conflicts. ErrLogFull signals that a checkpoint must free log
// space first.
func (p *Pair) Append(op uint16, name, payload []byte) (*Handle, *Handle, error) {
	return p.AppendIgnore(op, name, payload, 0)
}

// AppendIgnore is Append with one uncommitted record (by LSN) excluded from
// the conflict check — the caller's own olock NOOP record (§4.5 reentrancy:
// a lock holder may modify the object it locked).
func (p *Pair) AppendIgnore(op uint16, name, payload []byte, ignore uint64) (*Handle, *Handle, error) {
	if len(name) > MaxName || len(payload) > MaxPayload {
		return nil, nil, fmt.Errorf("wal: record fields too large (%d, %d)", len(name), len(payload))
	}
	stripe := filterStripe(NameHash(name))
	p.swapMu.RLock()
	defer p.swapMu.RUnlock()
	l := p.logs[p.active]

	l.mu.Lock()
	// A zero stripe proves the window scan would come back empty (see
	// inflight): stripes are raised under l.mu, which this append holds.
	if p.inflight[stripe].Load() != 0 {
		if lsn, ok := l.findConflictLocked(name, ignore); ok {
			// An uncommitted record in the window always has its handle: it
			// was registered before the append released l.mu, and it leaves
			// the registry only after its state byte was settled under l.mu.
			h := p.lookup(lsn)
			l.mu.Unlock()
			return nil, h, nil
		}
	}
	total := recordSize(len(name), len(payload))
	off := l.tail
	if off+total+8 > l.sp.Size() {
		l.mu.Unlock()
		if logHeader+total+8 > l.sp.Size() {
			return nil, nil, ErrNeverFits
		}
		return nil, nil, ErrLogFull
	}
	lsn := p.lsn.Add(1)
	// Lay the record down without flush, fence, or LSN write. It stays
	// invisible (and volatile) until a publish makes the whole pending
	// suffix durable behind one shared fence — the caller has not been acked,
	// so losing it to a crash is exactly the no-record guarantee a torn
	// append has. A rejected append leaves the log unchanged: tail stays, and
	// the burned LSN is harmless — LSNs need only be monotonic, not dense.
	if err := l.storeRecordLocked(off, op, StateUncommitted, name, payload, total); err != nil {
		l.mu.Unlock()
		return nil, nil, fmt.Errorf("wal: append failed: %w", err)
	}
	l.pending = append(l.pending, pendingRec{lsn: lsn, off: off, total: total})
	l.tail = off + total
	l.appended, l.appendedBytes = l.appended+1, l.appendedBytes+total
	// Register the handle and raise the filter before l.mu is released: a
	// scan that can see the record (scans hold l.mu) can then always resolve
	// its LSN, and a reader that finds the stripe zero is ordered before this
	// point.
	h := &Handle{pair: p, lsn: lsn, stripe: stripe, off: off}
	p.regMu.Lock()
	p.registry[lsn] = h
	p.regMu.Unlock()
	p.inflight[stripe].Add(1)
	l.mu.Unlock()
	return h, nil, nil
}

// storeRecordLocked lays down the record body and guard at off with no
// flush, fence, or LSN write — the store-only half of the §3.4 protocol.
// The record stays invisible (its LSN word is still the previous guard's
// zero) and volatile until a publish flushes the bytes and writes the LSN;
// losing an unpublished record to a crash is by design — its caller was
// never acknowledged, so recovery seeing no record is correct.
//
//dstore:volatile
func (l *Log) storeRecordLocked(off uint64, op uint16, state uint8, name, payload []byte, total uint64) error {
	sp := l.sp
	if err := sp.CheckFault(off, total+8); err != nil {
		return err
	}
	// Body: everything except the LSN word. The LSN word at off is still
	// zero — it is the previous append's guard. The rest of the header is
	// one image, one store.
	var hdr [recHeader - recOp]byte
	binary.LittleEndian.PutUint16(hdr[0:], op)
	hdr[recState-recOp] = state
	binary.LittleEndian.PutUint16(hdr[recNameLen-recOp:], uint16(len(name)))
	binary.LittleEndian.PutUint16(hdr[recPayLen-recOp:], uint16(len(payload)))
	sp.Write(off+recOp, hdr[:])
	sp.Write(off+recHeader, name)
	sp.Write(off+recHeader+uint64(len(name)), payload)
	padStart := off + recHeader + uint64(len(name)) + uint64(len(payload))
	if padStart < off+total {
		sp.Zero(padStart, off+total-padStart)
	}
	// Extend the guard: zero the next record's LSN slot.
	sp.PutU64(off+total, 0)
	return nil
}

// publishPendingLocked publishes the whole pending suffix — the §3.4
// protocol, and the only code that writes a new record's LSN word: one span
// flush plus one fence make every pending body and guard durable, then — and
// only then — the LSN words are written in offset order and persisted behind
// a second fence. An LSN is never written before every byte of its record is
// persistent (the strict persist-order hook, armed only under tests, checks
// it), so a crash anywhere in here recovers a prefix of the published records
// and nothing torn. Caller holds l.mu. On error (a strict-mode violation) no
// LSN was written and the records stay pending.
func (l *Log) publishPendingLocked() error {
	n := len(l.pending)
	if n == 0 {
		return nil
	}
	sp := l.sp
	lo := l.pending[0].off
	hi := l.pending[n-1].off + l.pending[n-1].total + 8
	sp.Flush(lo, hi-lo)
	sp.Fence()
	if err := sp.CheckPersisted(lo, hi-lo); err != nil {
		return fmt.Errorf("wal: batch publish at %d: %w", lo, err)
	}
	// LSN stores, then their (deduped — offsets ascend) cache lines flushed
	// and fenced. The first line's flush is hoisted so the persist-order
	// checker sees a flush on every path to the fence.
	ll := l.lines[:0]
	for i := range l.pending {
		pr := &l.pending[i]
		sp.PutU64(pr.off+recLSN, pr.lsn)
		if line := (pr.off + recLSN) / pmem.LineSize; len(ll) == 0 || ll[len(ll)-1] != line {
			ll = append(ll, line)
		}
	}
	sp.Flush(ll[0]*pmem.LineSize, pmem.LineSize)
	for _, line := range ll[1:] {
		sp.Flush(line*pmem.LineSize, pmem.LineSize)
	}
	sp.Fence()
	l.pending = l.pending[:0]
	l.lines = ll[:0]
	return nil
}

func (p *Pair) lookup(lsn uint64) *Handle {
	p.regMu.Lock()
	defer p.regMu.Unlock()
	return p.registry[lsn]
}

// release takes a settled handle out of the registry and lowers its filter
// stripe — together, and only while the registry still holds this handle, so
// a handle settled twice lowers its stripe once. Callers have already stored
// the record's state byte, and call this before they set h.committed: a
// committer that sees its record settled finds the stripe released.
func (p *Pair) release(h *Handle) {
	p.regMu.Lock()
	registered := p.registry[h.lsn] == h
	if registered {
		delete(p.registry, h.lsn)
	}
	p.regMu.Unlock()
	if registered {
		p.inflight[h.stripe].Add(-1)
	}
}

// FindConflictIgnore returns a handle for an uncommitted record naming name,
// if any, excluding one LSN (the requester's own lock record; 0 excludes
// nothing). Readers use it for read-write CC (§4.4). On a quiet filter stripe
// it returns without taking a lock; otherwise the window scan gives the exact
// verdict.
func (p *Pair) FindConflictIgnore(name []byte, ignore uint64) *Handle {
	if p.Quiet(NameHash(name)) {
		return nil
	}
	_, h := p.scanConflict(name, ignore)
	return h
}

// scanConflict is the exact check behind the filter: scan the active log's
// uncommitted window for name under l.mu and resolve the record found to its
// handle before releasing it. lsn is 0 when nothing conflicts; a non-zero lsn
// always comes with its handle (see AppendIgnore).
func (p *Pair) scanConflict(name []byte, ignore uint64) (lsn uint64, h *Handle) {
	p.swapMu.RLock()
	defer p.swapMu.RUnlock()
	l := p.logs[p.active]
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn, ok := l.findConflictLocked(name, ignore)
	if !ok {
		return 0, nil
	}
	return lsn, p.lookup(lsn)
}

// Publish makes the active log's pending records durable — valid and still
// uncommitted — ahead of their commits: a write pass calls it once its
// content is on its way to the SSD and its records are appended, so the
// publish's two fences run while the device works and the commit that follows
// the completion persists only state bytes. A crash before that commit finds
// the records uncommitted and recovery marks them dead, as it does a record
// another writer's commit published. On error (a strict-mode violation) the
// records stay pending, and their commit publishes them.
func (p *Pair) Publish() error {
	p.swapMu.RLock()
	defer p.swapMu.RUnlock()
	l := p.logs[p.active]
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.publishPendingLocked()
}

// Commit marks the records of hs committed and durable — step ⑨ of the
// write pipeline (Fig. 4), called only after the operations' data is
// durable. Records committed together share one settle, so its fences cover
// all of them.
//
// On a device error the commit did not durably land: the record stays
// uncommitted on media (a post-crash recovery marks it dead, so the
// operation is not replayed — consistent with the error the caller returns).
// The in-DRAM handle is settled either way so CC waiters are released; the
// caller must treat the store as no longer able to persist (degrade). The
// error is the first failed record's.
func (p *Pair) Commit(hs ...*Handle) error {
	return p.settle(hs, StateCommitted)
}

// Abort marks h's record dead (used when an operation fails after logging,
// e.g. pool exhaustion). Dead records are never replayed. Device-error
// semantics mirror Commit: on error the record stays uncommitted on media,
// which recovery also resolves to dead.
func (p *Pair) Abort(h *Handle) error {
	return p.settle([]*Handle{h}, StateDead)
}

// settle settles every record of hs to state in one section under the swap
// lock and the active log's mu — uncommitted records always live on the
// active log (Swap migrates them and publishes first) — then releases the
// handles, so CC waiters go on.
//
// A handle of another pair is refused before anything is stored: its offset
// names a byte in that pair's log, not in this one (a failover leaves the
// retired primary's olocks behind; they are not the promoted store's to
// settle).
func (p *Pair) settle(hs []*Handle, state uint8) error {
	for _, h := range hs {
		if h.pair != p {
			return fmt.Errorf("wal: settle record %d: handle belongs to another log pair", h.lsn)
		}
	}
	p.swapMu.RLock()
	l := p.logs[p.active]
	l.mu.Lock()
	err := l.publishAndSettleLocked(hs, state, p.sealed.Load())
	l.mu.Unlock()
	p.swapMu.RUnlock()
	if len(hs) > 0 {
		p.batches.Add(1)
		p.records.Add(uint64(len(hs)))
	}
	for _, h := range hs {
		p.release(h)
		h.committed.Store(true)
	}
	return err
}

// publishAndSettleLocked settles hs to state around one publish of the
// pending suffix. A handle whose record is still pending has its state byte
// stored before the publish: the byte rides the body flush and the LSN store
// makes the record valid and settled at once, two fences and no state-line
// flush. (The record is invisible until its LSN is stored, and every byte of
// it is persistent by then: a crash leaves it absent or whole.) A handle
// published earlier — by Publish, another writer's settle or Swap — is
// settled after the publish: state bytes stored, their deduped cache lines
// flushed behind one more fence. A sealed log settles every record dead and
// publishes nothing. Caller holds l.mu.
//
// Exempt from the persist-order checker: a state byte the device refuses
// (CheckFault), or any after a failed publish, is stored dead and left
// volatile by design — scans see the record settled, recovery resolves it to
// dead, consistent with the error the committer gets.
//
//dstore:volatile
func (l *Log) publishAndSettleLocked(hs []*Handle, state uint8, sealed bool) error {
	sp := l.sp
	pendLo := l.tail // the pending suffix is [pendLo, tail)
	if len(l.pending) > 0 {
		pendLo = l.pending[0].off
	}
	for _, h := range hs {
		if h.err = errSealed; !sealed {
			h.err = sp.CheckFault(h.off+recState, 1)
		}
		if h.err == nil && h.off >= pendLo {
			sp.PutU8(h.off+recState, state)
		}
	}
	var pubErr error
	if !sealed {
		pubErr = l.publishPendingLocked()
	}
	var err error
	lines := l.lines[:0]
	for _, h := range hs {
		if h.err == nil {
			h.err = pubErr
		}
		// The volatile store is applied unconditionally so conflict-window
		// scans see the record settled even when durability is refused —
		// dead then, as recovery finds it, so no export ships it.
		if h.err != nil {
			sp.PutU8(h.off+recState, StateDead)
			if err == nil {
				err = fmt.Errorf("wal: settle record %d: %w", h.lsn, h.err)
			}
		} else if h.off < pendLo {
			sp.PutU8(h.off+recState, state)
			lines = append(lines, (h.off+recState)/pmem.LineSize)
		}
		h.err = nil
	}
	if len(lines) > 0 {
		slices.Sort(lines)
		for _, line := range slices.Compact(lines) {
			sp.Flush(line*pmem.LineSize, pmem.LineSize)
		}
		sp.Fence()
	}
	l.lines = lines[:0]
	// An append on a quiet filter stripe skips the window scan, so the cursor
	// moves here, a step per settled record: no scan pays a catch-up walk.
	l.advanceCursorLocked()
	return err
}

// errSealed is a settle's verdict on every record of a sealed pair.
var errSealed = errors.New("wal: log pair sealed")

// SwapResult describes the archived log produced by a Swap.
type SwapResult struct {
	// Archived is the log to replay.
	Archived *Log
	// ArchivedIndex is its index within the pair.
	ArchivedIndex int
	// ReplayEnd bounds the committed prefix: replay records in
	// [start, ReplayEnd) — every record there is committed or dead.
	ReplayEnd uint64
	// NewActiveIndex is the index of the log now receiving appends.
	NewActiveIndex int
	// Migrated is the number of records moved to the new active log.
	Migrated int
}

// Swap archives the active log and redirects appends to the other log
// (paper §3.5: "swapping the active and archived logs ... and moving any
// uncommitted log records to the new active log"). The suffix starting at
// the first uncommitted record — including later committed records, to
// preserve LSN-ordered replay — migrates to the new active log with states
// and LSNs intact. persistRoot runs inside the critical section, after the
// migration is durable and before appends resume: it must durably record the
// new active index and checkpoint state in the root object, so a crash at
// any instant sees a consistent (active, archive) assignment.
//
// A device error fails the swap before anything is published: the active log
// is untouched (the migration writes only the inactive log) and appends
// resume against the old active log, so a failed Swap is fully recoverable —
// though the caller has lost its means of freeing log space and should
// degrade once the active log fills.
func (p *Pair) Swap(persistRoot func(newActive, archived int, replayEnd uint64)) (SwapResult, error) {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()

	old := p.logs[p.active]
	newIdx := 1 - p.active
	nl := p.logs[newIdx]

	old.mu.Lock()
	// Publish the pending suffix first: the migration scan below walks
	// published records only, so an unpublished record would silently vanish
	// from the new log.
	if err := old.publishPendingLocked(); err != nil {
		old.mu.Unlock()
		return SwapResult{}, fmt.Errorf("wal: swap publish: %w", err)
	}
	old.advanceCursorLocked()
	cut := old.cur
	tail := old.tail
	old.mu.Unlock()

	// The reset guard plus the whole migrated suffix is one media operation
	// against the inactive log: fail it up front, before any state changes.
	if err := nl.sp.CheckFault(logHeader, tail-cut+16); err != nil {
		return SwapResult{}, fmt.Errorf("wal: swap migration: %w", err)
	}
	// Recycling nl destroys its archived prefix (already consumed by the
	// previous checkpoint); fold the highest destroyed LSN into the
	// replication export horizon before any bytes are overwritten.
	p.truncated = max(p.truncated, nl.archiveMax)
	nl.archiveMax = 0
	nl.reset()
	// The archived prefix of old is [logHeader, cut): everything below the
	// first migrated record's LSN lives only there until the next swap.
	oldMax := p.lsn.Load()
	if cut < tail {
		if rv, _, ok := old.readRecord(cut); ok {
			oldMax = rv.LSN - 1
		}
	}
	old.archiveMax = oldMax

	// Migrate the suffix [cut, tail) record by record.
	migrated := 0
	off := cut
	var migLo, migHi uint64
	nl.mu.Lock()
	for off < tail {
		rv, next, ok := old.readRecord(off)
		if !ok {
			break
		}
		total := next - off
		dst := nl.tail
		space.Copy(&nl.sp.Arena, dst, &old.sp.Arena, off, total)
		nl.sp.PutU64(dst+total, 0) // guard
		if migrated == 0 {
			migLo = dst
		}
		migHi = dst + total + 8
		nl.tail = dst + total
		if rv.State == StateUncommitted {
			if h := p.lookup(rv.LSN); h != nil {
				h.off = dst
			}
		}
		migrated++
		off = next
	}
	nl.mu.Unlock()
	// Persist unconditionally (a zero-length range reduces to a fence) so
	// every path from the migration writes to the root publish below is
	// fenced — the invariant the persist-order checker verifies.
	nl.sp.Persist(migLo, migHi-migLo)

	persistRoot(newIdx, p.active, cut)

	res := SwapResult{
		Archived:       old,
		ArchivedIndex:  p.active,
		ReplayEnd:      cut,
		NewActiveIndex: newIdx,
		Migrated:       migrated,
	}
	p.active = newIdx
	return res, nil
}
