package dstore

import (
	"fmt"
	"hash/crc32"
	"time"

	"dstore/internal/fault"
	"dstore/internal/meta"
	"dstore/internal/ssd"
	"dstore/internal/wal"
)

// Ctx is a per-goroutine request context (paper Table 2: ds_init /
// ds_finalize). "Each thread submitting IO needs to initialize a context for
// submitting requests."
type Ctx struct {
	s       *Store
	scratch []byte
	locks   map[string]*wal.Handle // olock records held by this context
}

// Init creates a request context. A Ctx is owned by a single goroutine.
func (s *Store) Init() *Ctx { return &Ctx{s: s} }

// Finalize releases the context, committing (releasing) any locks it still
// holds.
func (c *Ctx) Finalize() {
	for name := range c.locks {
		c.Unlock(name) //nolint:errcheck
	}
	c.s = nil
}

// heldLSN returns the LSN of the lock record locks holds on name, or 0. The
// CC checks skip it so a lock holder can operate on its locked object.
func heldLSN(locks map[string]*wal.Handle, name string) uint64 {
	if h, ok := locks[name]; ok {
		return h.LSN()
	}
	return 0
}

// scratchBuf returns a context-owned buffer of n bytes (reused across
// calls; verified partial reads stage whole block spans through it). Growth
// is geometric so a sequence of increasing spans costs one allocation, not
// one per size.
func (c *Ctx) scratchBuf(n uint64) []byte {
	if uint64(cap(c.scratch)) < n {
		c.scratch = make([]byte, max(2*uint64(cap(c.scratch)), n))
	}
	return c.scratch[:n]
}

// OpenFlag selects oopen semantics.
type OpenFlag int

const (
	// OpenRead opens an existing object for reading.
	OpenRead OpenFlag = 1 << iota
	// OpenWrite opens an existing object for writing.
	OpenWrite
	// OpenCreate creates the object (with the given size) if absent.
	OpenCreate
)

// Object is an open handle from the filesystem-style API (paper Table 2).
type Object struct {
	c      *Ctx
	name   string
	flags  OpenFlag
	closed bool
}

// --------------------------------------------------------------- checksums

// castagnoli is the CRC32C polynomial table used for per-block data
// checksums (the same polynomial hardware CRC instructions implement).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockSum computes the CRC32C of one block's logical content. A computed
// zero is remapped to 1 so it never collides with meta.SumUnverified; the
// one-in-2³² aliasing this introduces only ever weakens detection for that
// single value, never produces a false mismatch.
func blockSum(p []byte) uint32 {
	s := crc32.Checksum(p, castagnoli)
	if s == meta.SumUnverified {
		return 1
	}
	return s
}

// blockSums computes the per-block checksums of value split at blockSize.
func blockSums(value []byte) []uint32 {
	n := int(blocksFor(uint64(len(value)), blockSize))
	sums := make([]uint32, n)
	for i := range sums {
		lo := uint64(i) * blockSize
		sums[i] = blockSum(value[lo:min(lo+blockSize, uint64(len(value)))])
	}
	return sums
}

// readBlockVerified reads one block's logical span, consulting the DRAM
// block cache first: a hit skips both the device read and the CRC
// re-verification (an entry is content a read verified or the content a write
// computed the recorded checksum over, and the hit is gated on the caller's
// current checksum and span length, so a stale entry can never satisfy it). On
// a miss the span is read from the device, verified, and — when verification
// applies and the store is healthy — inserted for the next reader: with the
// writer's cachePublish, the only two ways into the cache. Unverified spans
// and degraded-mode reads never populate it.
func (s *Store) readBlockVerified(block uint64, p []byte, sum uint32, name string) error {
	verified := sum != meta.SumUnverified
	if verified && s.bcache.Get(block, sum, p) {
		return nil
	}
	if err := s.readBlockDevice(block, p, sum, name); err != nil {
		return err
	}
	if verified && !s.degraded.Load() {
		s.bcache.Insert(block, sum, p)
	}
	return nil
}

// readBlockDevice reads one block's logical span from the SSD and verifies
// it against the recorded CRC32C, bypassing the cache (Scrub uses it
// directly: a scrub must observe the medium, not DRAM). A mismatch is
// re-read — a corrupted transfer is transient — and only a persistent
// mismatch (at-rest corruption) surfaces as ErrCorrupt.
func (s *Store) readBlockDevice(block uint64, p []byte, sum uint32, name string) error {
	const rereads = 2
	for attempt := 0; ; attempt++ {
		if err := s.ssdRead(s.dataOff(block), p); err != nil {
			return fmt.Errorf("dstore: read block %d of %q: %w", block, name, err)
		}
		if sum == meta.SumUnverified || blockSum(p) == sum {
			return nil
		}
		if attempt >= rereads {
			s.health.corruptions.Add(1)
			return fmt.Errorf("%w: block %d of %q (crc mismatch)", ErrCorrupt, block, name)
		}
	}
}

// isDeviceErr reports whether err originates in the device fault layer
// (as opposed to validation or capacity errors).
func isDeviceErr(err error) bool {
	return fault.IsTransient(err) || fault.IsPermanent(err)
}

// grow extends buf by n bytes, reusing capacity without a temporary
// allocation (the read path is allocation-free when callers recycle
// buffers). An empty buf — every networked GET and every MGET sub-read passes
// nil — gets exactly n: nothing says more will follow. Only a buffer the
// caller is appending to doubles.
func grow(buf []byte, n int) []byte {
	need := len(buf) + n
	if cap(buf) >= need {
		return buf[:need]
	}
	if len(buf) == 0 {
		return make([]byte, need)
	}
	nb := make([]byte, need, need*2)
	copy(nb, buf)
	return nb
}

// validateName checks a user-supplied object name. Names starting with
// '\x00' are reserved for the transaction machinery (prepare/decision
// objects and commit-record names, txn.go) and rejected at the API surface.
func (s *Store) validateName(name string) error {
	if err := s.validateNameAny(name); err != nil {
		return err
	}
	if name[0] == 0 {
		return fmt.Errorf("dstore: name %q uses the reserved \\x00 prefix", name)
	}
	return nil
}

// validateNameAny checks only the structural bounds, admitting the reserved
// namespace; internal writers (putReserved/deleteReserved) use it.
func (s *Store) validateNameAny(name string) error {
	if name == "" {
		return fmt.Errorf("dstore: empty object name")
	}
	if uint64(len(name)) > maxNameLen {
		return fmt.Errorf("dstore: name %q exceeds %d bytes", name, maxNameLen)
	}
	return nil
}

// isTransientRetry reports whether err is a transient device error with
// retry budget left, consuming one attempt and sleeping its backoff.
func isTransientRetry(err error, devRetries *int) bool {
	if fault.IsTransient(err) && *devRetries < ioAttempts {
		*devRetries++
		time.Sleep(time.Duration(*devRetries) * 10 * time.Microsecond)
		return true
	}
	return false
}

func (s *Store) maxObjectBytes() uint64 {
	return s.cfg.MaxBlocksPerObject * blockSize
}

// physPad returns the payload padding for physical-logging mode.
func (s *Store) physPad() int {
	if s.cfg.Mode == ModePhysical {
		return physicalImageBytes
	}
	return 0
}

// ---------------------------------------------------------------- key-value

// Put stores value under key, creating or overwriting the object (paper
// Table 2: oput) — the one-entry write set of an opPut sub-op (write.go).
func (c *Ctx) Put(key string, value []byte) error { return c.write(key, value, false) }

// write runs a user Put of value under key or, with del, a Delete of key.
func (c *Ctx) write(key string, value []byte, del bool) error {
	w, err := c.s.userSet(key, value, del, c.locks)
	if err != nil {
		return err
	}
	return c.s.writeOne(w)
}

// userSet starts the write set of a user Put of value under key or, with
// del, a Delete of key, counting it; locks are the caller's olocks.
func (s *Store) userSet(key string, value []byte, del bool, locks map[string]*wal.Handle) (*oneWrite, error) {
	if s == nil || s.closed.Load() {
		return nil, ErrClosed
	}
	if err := s.validateName(key); err != nil {
		return nil, err
	}
	if del {
		s.ops.deletes.Add(1)
		return s.single(opDelete, key, locks), nil
	}
	s.ops.puts.Add(1)
	return s.putSet(opPut, key, value, locks)
}

// putSet starts the write set of a whole-object write under the given record
// opcode: opPut for the public API, opTxnBegin for reserved cross-shard
// prepare objects (the two replay identically; the opcode distinguishes them
// in the log). The caller has validated key for its namespace.
func (s *Store) putSet(op uint16, key string, value []byte, locks map[string]*wal.Handle) (*oneWrite, error) {
	if uint64(len(value)) > s.maxObjectBytes() {
		return nil, fmt.Errorf("dstore: value of %d bytes exceeds max object size %d", len(value), s.maxObjectBytes())
	}
	w := s.single(op, key, locks)
	w.one[0].data, w.one[0].size, w.one[0].sums = value, uint64(len(value)), blockSums(value)
	return w, nil
}

// Get retrieves key's value, appending it to buf (which may be nil) and
// returning the extended slice (paper Table 2: oget). Every block carrying
// a recorded checksum is verified end to end; a persistent mismatch returns
// ErrCorrupt rather than wrong data.
func (c *Ctx) Get(key string, buf []byte) ([]byte, error) {
	s := c.s
	if s == nil || s.closed.Load() {
		return nil, ErrClosed
	}
	if err := s.validateName(key); err != nil {
		return nil, err
	}
	s.ops.gets.Add(1)

	// Read-write CC (§4.4, readers.go).
	st, hash := s.enterRead(key, c.locks)
	defer st.exit()
	return s.readObject(key, hash, buf)
}

// readObject is Get's lookup-and-read body. The caller holds a CC reader
// section on key, opened with hash (transactional reads share it, txn.go).
func (s *Store) readObject(key string, hash uint64, buf []byte) ([]byte, error) {
	var eb entryBuf
	e, err := s.readLookup(key, hash, &eb)
	if err != nil {
		return nil, err
	}

	start := len(buf)
	buf = grow(buf, int(e.Size))
	out := buf[start:]
	for i, b := range e.Blocks {
		p := s.span(out, i)
		if p == nil {
			break
		}
		if err := s.readBlockVerified(b, p, e.Sums[i], key); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Delete removes key's object (paper Table 2: odelete). A delete that finds
// nothing leaves a dead record — it never replays and changed nothing — and
// returns ErrNotFound.
func (c *Ctx) Delete(key string) error { return c.write(key, nil, true) }

// --------------------------------------------------------------- filesystem

// Open opens (or with OpenCreate, creates at the given size) an object and
// returns a stateful handle (paper Table 2: oopen). A log record is written
// only when the open modifies metadata — i.e. when it creates (§4.3).
func (c *Ctx) Open(name string, size uint64, flags OpenFlag) (*Object, error) {
	s := c.s
	if s == nil || s.closed.Load() {
		return nil, ErrClosed
	}
	if err := s.validateName(name); err != nil {
		return nil, err
	}
	if flags&(OpenRead|OpenWrite|OpenCreate) == 0 {
		return nil, fmt.Errorf("dstore: Open needs at least one of OpenRead/OpenWrite/OpenCreate")
	}
	if size > s.maxObjectBytes() {
		return nil, fmt.Errorf("dstore: size %d exceeds max object size %d", size, s.maxObjectBytes())
	}
	s.ops.opens.Add(1)

	s.treeMu.RLock()
	_, exists := s.front.tree.Get([]byte(name))
	s.treeMu.RUnlock()
	if !exists {
		if flags&OpenCreate == 0 {
			return nil, ErrNotFound
		}
		// Create: the put pipeline without a data write — blocks are
		// allocated, their content is whatever the SSD holds until written,
		// and their checksums start unverified.
		w := s.single(opCreate, name, c.locks)
		w.one[0].size = size
		if err := s.writeOne(w); err != nil {
			return nil, err
		}
	}
	return &Object{c: c, name: name, flags: flags}, nil
}

// Close releases the handle (paper Table 2: oclose).
func (o *Object) Close() { o.closed = true }

// Name returns the object's name.
func (o *Object) Name() string { return o.name }

// Size returns the object's current logical size. Like ReadAt it reads
// inside a CC reader section: an in-flight extend by another context is
// waited out, not seen before it commits.
func (o *Object) Size() (uint64, error) {
	s := o.c.s
	if o.closed || s == nil || s.closed.Load() {
		return 0, ErrClosed
	}
	st, hash := s.enterRead(o.name, o.c.locks)
	defer st.exit()
	var eb entryBuf
	e, err := s.readLookup(o.name, hash, &eb)
	return e.Size, err
}

// readSpan reads len(dst) bytes at offset bo inside block bi of e. When the
// block carries a recorded checksum the whole logical span is staged
// through the context scratch buffer and verified before the requested
// window is copied out.
func (c *Ctx) readSpan(name string, e meta.Entry, bi, bo uint64, dst []byte) error {
	s := c.s
	block := e.Blocks[bi]
	sum := e.Sums[bi]
	if sum == meta.SumUnverified {
		if err := s.ssdRead(s.dataOff(block)+bo, dst); err != nil {
			return fmt.Errorf("dstore: read block %d of %q: %w", block, name, err)
		}
		return nil
	}
	span := min(e.Size-bi*blockSize, blockSize)
	// A whole-span window needs no staging: verify (or hit the cache)
	// directly into the destination.
	if bo == 0 && uint64(len(dst)) == span {
		return s.readBlockVerified(block, dst, sum, name)
	}
	buf := c.scratchBuf(span)
	if err := s.readBlockVerified(block, buf, sum, name); err != nil {
		return err
	}
	copy(dst, buf[bo:])
	return nil
}

// ReadAt implements oread: a partial read at an offset.
func (o *Object) ReadAt(p []byte, off int64) (int, error) {
	s := o.c.s
	if o.closed || s == nil || s.closed.Load() {
		return 0, ErrClosed
	}
	if o.flags&OpenRead == 0 && o.flags&OpenCreate == 0 {
		return 0, fmt.Errorf("dstore: object %q not open for reading", o.name)
	}
	s.ops.reads.Add(1)

	st, hash := s.enterRead(o.name, o.c.locks)
	defer st.exit()
	var eb entryBuf
	e, err := s.readLookup(o.name, hash, &eb)
	if err != nil {
		return 0, err
	}
	if off < 0 || uint64(off) >= e.Size {
		return 0, fmt.Errorf("dstore: read offset %d out of range (size %d)", off, e.Size)
	}
	n := min(uint64(len(p)), e.Size-uint64(off))
	read := uint64(0)
	for read < n {
		pos := uint64(off) + read
		bi := pos / blockSize
		bo := pos % blockSize
		chunk := min(blockSize-bo, n-read)
		if err := o.c.readSpan(o.name, e, bi, bo, p[read:read+chunk]); err != nil {
			return 0, err
		}
		read += chunk
	}
	return int(n), nil
}

// WriteAt implements owrite: a partial write at an offset. Writes within the
// current size go straight to SSD with no log record (§4.3: records for
// owrite are only written if metadata changes); writes past the end extend
// the object through a logged opExtend. Any touched block that carries a
// verified checksum has it durably invalidated first (opInval) — a crash
// mid-write must never leave a stale checksum covering new bytes.
func (o *Object) WriteAt(p []byte, off int64) (int, error) {
	s := o.c.s
	if o.closed || s == nil || s.closed.Load() {
		return 0, ErrClosed
	}
	if err := s.checkWritable(); err != nil {
		return 0, err
	}
	if o.flags&OpenWrite == 0 && o.flags&OpenCreate == 0 {
		return 0, fmt.Errorf("dstore: object %q not open for writing", o.name)
	}
	if off < 0 {
		return 0, fmt.Errorf("dstore: negative offset")
	}
	s.ops.writes.Add(1)
	end := uint64(off) + uint64(len(p))
	if end > s.maxObjectBytes() {
		return 0, fmt.Errorf("dstore: write to %d exceeds max object size %d", end, s.maxObjectBytes())
	}

	_, e, err := s.lookup([]byte(o.name), nil)
	if err != nil {
		return 0, err
	}
	if end > e.Size {
		// An extending write invalidates stale checksums on two fronts
		// before any structure or byte changes (the opExtend record then
		// carries the unverified sums forward): blocks the write overwrites
		// in place (off inside the current size), and the partial tail
		// block, whose verified sum covers the old, shorter logical span —
		// after the extend, reads verify the grown span, so the old sum can
		// never match again.
		lo := uint64(off)
		if tail := e.Size % blockSize; tail != 0 && e.Size-tail < lo {
			lo = e.Size - tail
		}
		if lo < e.Size {
			if err := s.invalidateSums(o, e, lo, e.Size); err != nil {
				return 0, err
			}
		}
		// Grow the logical size (and block list) through a logged opExtend.
		w := s.single(opExtend, o.name, o.c.locks)
		w.one[0].size = end
		if err := s.writeOne(w); err != nil {
			return 0, err
		}
		if _, e, err = s.lookup([]byte(o.name), nil); err != nil {
			return 0, err
		}
	} else {
		// Pure data write: invalidate stale checksums (which also
		// serializes against conflicting metadata operations), then write
		// in place. Durability comes from the SSD's power-loss protected
		// cache; block writes are page-atomic.
		if err := s.invalidateSums(o, e, uint64(off), end); err != nil {
			return 0, err
		}
	}

	written := uint64(0)
	n := uint64(len(p))
	for written < n {
		pos := uint64(off) + written
		bi := pos / blockSize
		bo := pos % blockSize
		chunk := min(blockSize-bo, n-written)
		if werr := s.ssdWrite(ssd.Write{Off: s.dataOff(e.Blocks[bi]) + bo, P: p[written : written+chunk]}); werr != nil {
			if fault.IsPermanent(werr) {
				s.quarantineBlock(e.Blocks[bi])
			}
			return int(written), fmt.Errorf("dstore: data write to block %d: %w", e.Blocks[bi], werr)
		}
		written += chunk
	}
	return int(n), nil
}

// invalidateSums durably resets the checksums of e's blocks overlapping
// [lo, hi) to SumUnverified before an in-place overwrite, via a committed
// opInval record — committed before the data write starts: the invalidation
// must be durable before any new byte lands under the old checksum. Blocks
// already unverified need nothing; when none are verified the call only
// waits out conflicting metadata operations.
func (s *Store) invalidateSums(o *Object, e meta.Entry, lo, hi uint64) error {
	first := lo / blockSize
	last := (hi - 1) / blockSize
	var idxs []int
	for bi := first; bi <= last && bi < uint64(len(e.Sums)); bi++ {
		if e.Sums[bi] != meta.SumUnverified {
			idxs = append(idxs, int(bi))
		}
	}
	if len(idxs) == 0 {
		if conflict := s.eng.Pair().FindConflictIgnore([]byte(o.name), heldLSN(o.c.locks, o.name)); conflict != nil {
			conflict.Wait()
		}
		return nil
	}
	w := s.single(opInval, o.name, o.c.locks)
	w.one[0].idxs = idxs
	return s.writeOne(w)
}

// ----------------------------------------------------- concurrency control

// Lock acquires an exclusive application-level lock on name (paper Table 2:
// olock). Implementation per §4.5: a NOOP record is placed in the log; the
// log's conflict scan then treats the object as locked, and a concurrent
// Lock or write on the same name spins until Unlock commits the record.
func (c *Ctx) Lock(name string) error {
	s := c.s
	if s == nil || s.closed.Load() {
		return ErrClosed
	}
	if err := s.checkWritable(); err != nil {
		return err
	}
	if err := s.validateName(name); err != nil {
		return err
	}
	if _, held := c.locks[name]; held {
		return fmt.Errorf("dstore: %q already locked by this context", name)
	}
	h, err := s.olock(name, c.locks)
	if err != nil {
		return err
	}
	if c.locks == nil {
		c.locks = make(map[string]*wal.Handle)
	}
	c.locks[name] = h
	return nil
}

// Unlock releases a lock taken with Lock (paper Table 2: ounlock): the NOOP
// record is marked committed, which unblocks conflicting requests.
func (c *Ctx) Unlock(name string) error {
	s := c.s
	if s == nil || s.closed.Load() {
		return ErrClosed
	}
	h, ok := c.locks[name]
	delete(c.locks, name)
	if !ok {
		return fmt.Errorf("dstore: %q is not locked by this context", name)
	}
	return s.commit(h)
}
