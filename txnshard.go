package dstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"dstore/internal/wal"
)

// This file is the commit half of Txn (DESIGN.md §12.4): it routes a
// transaction's read and write sets to their owning stores. A write set that
// lands on one store — always, on a bare store's ring of one — commits with
// one opTxnCommit record on that store (commitTxnSet, txn.go). A write set
// spanning shards runs two-phase commit with the lowest write shard as
// coordinator:
//
//  1. olock every write key, shards ascending, keys ascending within a
//     shard — a global deterministic order, held across the whole protocol
//     so no plain write can slip between the decision and a participant's
//     apply.
//  2. Validate the read sets of every non-coordinator shard.
//  3. Durably prepare each participant: its writes are encoded into a
//     reserved object ("\x00txnprep\x00<id>") written through the normal
//     put pipeline as opTxnBegin — an object, not a bare record, so it
//     survives checkpoints.
//  4. The coordinator decides by committing its own opTxnCommit record
//     whose write set includes the decision object ("\x00txndec\x00<id>"
//     listing the participants) — validation of its reads, its local
//     writes, and the durable decision are one atomic record.
//  5. Participants apply: each commits an opTxnCommit covering its writes
//     plus the deletion of its prepare object.
//  6. The coordinator garbage-collects the decision object.
//
// A crash anywhere resolves at the next OpenSharded: a prepare object whose
// decision object exists rolls forward; one without is presumed aborted.

const (
	txnPrepPrefix = "\x00txnprep\x00"
	txnDecPrefix  = "\x00txndec\x00"
)

func txnPrepName(id uint64) string { return fmt.Sprintf("%s%016x", txnPrepPrefix, id) }
func txnDecName(id uint64) string  { return fmt.Sprintf("%s%016x", txnDecPrefix, id) }

// ------------------------------------------------------- prep/dec encoding

// encodeTxnPrep serializes a participant's buffered writes:
// u32 coordinator shard | u32 count | per write: u8 kind, u16 keylen, key,
// and for puts u32 vallen, value.
func encodeTxnPrep(coord int, ops []txnOp) []byte {
	n := 8
	for _, op := range ops {
		n += 3 + len(op.key)
		if !op.del {
			n += 4 + len(op.value)
		}
	}
	p := make([]byte, 0, n)
	p = binary.LittleEndian.AppendUint32(p, uint32(coord))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(ops)))
	for _, op := range ops {
		kind := byte(txnSubPut)
		if op.del {
			kind = txnSubDelete
		}
		p = append(p, kind)
		p = binary.LittleEndian.AppendUint16(p, uint16(len(op.key)))
		p = append(p, op.key...)
		if !op.del {
			p = binary.LittleEndian.AppendUint32(p, uint32(len(op.value)))
			p = append(p, op.value...)
		}
	}
	return p
}

// decodeTxnPrep is encodeTxnPrep's bounds-checked inverse.
func decodeTxnPrep(p []byte) (coord int, ops []txnOp, err error) {
	bad := func(what string) (int, []txnOp, error) {
		return 0, nil, fmt.Errorf("%w: prepare object %s", ErrCorrupt, what)
	}
	if len(p) < 8 {
		return bad("too short")
	}
	coord = int(binary.LittleEndian.Uint32(p))
	count := binary.LittleEndian.Uint32(p[4:])
	p = p[8:]
	ops = make([]txnOp, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 3 {
			return bad("truncated at write header")
		}
		kind := p[0]
		klen := int(binary.LittleEndian.Uint16(p[1:]))
		p = p[3:]
		if len(p) < klen {
			return bad("truncated at key")
		}
		op := txnOp{key: string(p[:klen])}
		p = p[klen:]
		switch kind {
		case txnSubDelete:
			op.del = true
		case txnSubPut:
			if len(p) < 4 {
				return bad("truncated at value length")
			}
			vlen := int(binary.LittleEndian.Uint32(p))
			p = p[4:]
			if len(p) < vlen {
				return bad("truncated at value")
			}
			op.value = append([]byte(nil), p[:vlen]...)
			p = p[vlen:]
		default:
			return bad("has unknown write kind")
		}
		ops = append(ops, op)
	}
	if len(p) != 0 {
		return bad("has trailing bytes")
	}
	return coord, ops, nil
}

// encodeTxnDec serializes the decision object: u32 count | u32 participant
// shard indices.
func encodeTxnDec(participants []int) []byte {
	p := make([]byte, 0, 4+4*len(participants))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(participants)))
	for _, i := range participants {
		p = binary.LittleEndian.AppendUint32(p, uint32(i))
	}
	return p
}

// decodeTxnDec is encodeTxnDec's bounds-checked inverse.
func decodeTxnDec(p []byte) ([]int, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: decision object too short", ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(p))
	if len(p) != 4+4*count {
		return nil, fmt.Errorf("%w: decision object length mismatch", ErrCorrupt)
	}
	parts := make([]int, count)
	for i := range parts {
		parts[i] = int(binary.LittleEndian.Uint32(p[4+4*i:]))
	}
	return parts, nil
}

// hasReserved reports whether name exists in the index (reserved objects
// included).
func (s *Store) hasReserved(name string) bool {
	s.treeMu.RLock()
	_, ok := s.front.tree.Get([]byte(name))
	s.treeMu.RUnlock()
	return ok
}

// ----------------------------------------------------------- sharded txns

// Commit validates and atomically applies the buffered writes across their
// owning shards. The whole commit holds opMu shared so the ring cannot flip
// between routing the write set and applying it; writes to keys mid-
// migration are double-applied to their recipients after the donor-side
// commit, under the keys' migration stripes (DESIGN.md §13).
func (t *txn) Commit() error {
	if t.done {
		return errTxnDone
	}
	t.done = true
	sh := t.sh

	sh.opMu.RLock() //nolint:lock-order // held shared across route+apply; see ShardedCtx.Put
	defer sh.opMu.RUnlock()

	readsBy := make(map[int]map[string]readVer)
	for k, v := range t.reads {
		i := sh.owner(k)
		if readsBy[i] == nil {
			readsBy[i] = make(map[string]readVer)
		}
		readsBy[i][k] = v
	}
	writesBy := make(map[int][]txnOp)
	for k, w := range t.writes {
		i := sh.owner(k)
		writesBy[i] = append(writesBy[i], txnOp{key: k, del: w.del, value: w.value})
	}
	wshards := slices.Sorted(maps.Keys(writesBy))

	// Moving write keys: lock their stripes (deduped, index order — the
	// global stripe order) across commit + mirror so the copier can't
	// interleave between the donor commit and the recipient apply.
	m := sh.migrP.Load()
	movers := make(map[string]int)
	for k := range t.writes {
		if to, moving := m.dest(k, sh.owner(k)); moving {
			movers[k] = to
		}
	}
	for _, st := range m.stripesFor(slices.Collect(maps.Keys(movers))) {
		st.Lock() //nolint:lock-order // stripe order is global (sorted by index); always after opMu
		defer st.Unlock()
	}

	statShard := 0
	if len(wshards) > 0 {
		statShard = wshards[0]
	}
	err := t.commitRouted(readsBy, writesBy, wshards)
	switch {
	case err == nil:
		sh.store(statShard).txns.commits.Add(1)
	case errors.Is(err, ErrTxnConflict):
		sh.store(statShard).txns.conflicts.Add(1)
	}
	if err == nil {
		// Donor commit is durable and authoritative; mirror the moving
		// writes to their recipients. A crash in between is safe pre-flip
		// (the donor rules; residue is collected at open), and the flip
		// cannot intervene while we hold opMu shared.
		for k, to := range movers {
			sh.mirror(m, to, k, t.writes[k].value, t.writes[k].del)
		}
	}
	return err
}

// commitRouted runs the routed commit: single-shard write sets take the
// one-record fast path; cross-shard sets run 2PC.
func (t *txn) commitRouted(readsBy map[int]map[string]readVer, writesBy map[int][]txnOp, wshards []int) error {
	sh := t.sh

	// Read-only: validate every shard's read set. Each validation is atomic
	// per shard; cross-shard the windows are sequential (§12.4 notes the
	// resulting guarantee matches the single-shard snapshot-free Scan).
	if len(wshards) == 0 {
		for _, i := range slices.Sorted(maps.Keys(readsBy)) {
			if err := sh.store(i).validateReadSet(readsBy[i], nil); err != nil {
				return err
			}
		}
		return nil
	}

	// Single write shard: its reads validate atomically inside its commit;
	// foreign read sets validate just before — the same small window the
	// 2PC path has.
	if len(wshards) == 1 {
		w := wshards[0]
		for _, i := range slices.Sorted(maps.Keys(readsBy)) {
			if i == w {
				continue
			}
			if err := sh.store(i).validateReadSet(readsBy[i], nil); err != nil {
				return err
			}
		}
		ws := sh.store(w)
		err := ws.commitTxnSet(ws.txns.seq.Add(1), readsBy[w], writesBy[w], nil)
		if err != nil {
			sh.failover(w, err) // arm the standby for the caller's retry
		}
		return err
	}

	return t.commit2PC(readsBy, writesBy, wshards)
}

// commit2PC runs the cross-shard protocol described at the top of the file.
func (t *txn) commit2PC(readsBy map[int]map[string]readVer, writesBy map[int][]txnOp, wshards []int) error {
	sh := t.sh
	coord := wshards[0]
	participants := wshards[1:]
	id := sh.txnSeq.Add(1) | 1<<63
	prep := txnPrepName(id)
	dec := txnDecName(id)

	// 1. olock all write keys in global (shard, key) order, held across the
	// whole protocol. The locks live in the log of the store that took them:
	// a participant that fails over below leaves them on its retired primary,
	// so they are released through their owner, and are held only while the
	// owner is still the shard's active store.
	type olocks struct {
		owner   *Store
		handles map[string]*wal.Handle
	}
	locks := make(map[int]olocks, len(wshards))
	release := func() {
		for _, i := range wshards {
			if l, ok := locks[i]; ok {
				l.owner.releaseOlocks(l.handles)
			}
		}
	}
	held := func(i int) map[string]*wal.Handle {
		if l := locks[i]; l.owner == sh.store(i) {
			return l.handles
		}
		return nil // the promoted standby takes fresh olocks
	}
	for _, i := range wshards {
		keys := make([]string, len(writesBy[i]))
		for j, op := range writesBy[i] {
			keys[j] = op.key
		}
		s := sh.store(i)
		l, err := s.olockKeys(keys)
		if err != nil {
			release()
			sh.failover(i, err)
			return err
		}
		locks[i] = olocks{owner: s, handles: l}
	}

	// 2. Validate every non-coordinator read set (the coordinator's is
	// validated atomically with the decision in step 4).
	for _, i := range slices.Sorted(maps.Keys(readsBy)) {
		if i == coord {
			continue
		}
		if err := sh.store(i).validateReadSet(readsBy[i], held(i)); err != nil {
			release()
			return err
		}
	}

	// 3. Durable prepares on the participants.
	written := make([]int, 0, len(participants))
	abortPreps := func() {
		for _, j := range written {
			sh.store(j).deleteReserved(prep) //nolint:errcheck // best-effort; recovery presumes abort without a decision
		}
	}
	for _, i := range participants {
		val := encodeTxnPrep(coord, writesBy[i])
		if uint64(len(val)) > sh.store(i).maxObjectBytes() {
			abortPreps()
			release()
			return fmt.Errorf("%w: prepare object needs %d bytes", ErrTxnTooLarge, len(val))
		}
		err := sh.store(i).putReserved(prep, val)
		if err != nil && sh.failover(i, err) {
			err = sh.store(i).putReserved(prep, val)
		}
		if err != nil {
			abortPreps()
			release()
			return err
		}
		written = append(written, i)
	}

	// 4. The decision: the coordinator's commit record covers its local
	// writes plus the decision object — reads validated, writes applied, and
	// the transaction decided in one atomic record.
	decOps := append(append([]txnOp(nil), writesBy[coord]...),
		txnOp{key: dec, value: encodeTxnDec(participants)})
	cerr := sh.store(coord).commitTxnSet(id, readsBy[coord], decOps, held(coord))
	decided := cerr == nil
	if !decided && sh.failover(coord, cerr) {
		// The promoted standby drained the committed tail before promotion:
		// the decision object is there iff the decision record committed.
		decided = sh.store(coord).hasReserved(dec)
	}
	if !decided {
		// No durable decision. A conflict or capacity error is definitive —
		// clean the prepares up now. A degraded coordinator without a standby
		// is indeterminate: leave the prepares for OpenSharded resolution,
		// which presumes abort exactly when the decision record did not
		// survive.
		if !errors.Is(cerr, ErrDegraded) {
			abortPreps()
		}
		release()
		return cerr
	}

	// 5. Participants apply — their writes plus the removal of their
	// prepare, one commit record each. A participant that fails here keeps
	// its prepare; the decision exists, so the next OpenSharded (or the
	// failover retry below) rolls it forward.
	var pendErr error
	for _, i := range participants {
		aops := append(append([]txnOp(nil), writesBy[i]...), txnOp{key: prep, del: true})
		aerr := sh.store(i).commitTxnSet(id, nil, aops, held(i))
		if aerr != nil && sh.failover(i, aerr) {
			// The replicated prepare rolls forward on the promoted standby.
			aerr = sh.store(i).commitTxnSet(id, nil, aops, held(i))
		}
		if aerr != nil && pendErr == nil {
			pendErr = aerr
		}
	}

	// 6. GC the decision once every participant has applied.
	if pendErr == nil {
		if derr := sh.store(coord).deleteReserved(dec); derr != nil && sh.failover(coord, derr) {
			sh.store(coord).deleteReserved(dec) //nolint:errcheck // resolution GC retries at next open
		}
	}
	release()
	if pendErr != nil {
		// The transaction IS durably decided; the failing participant's
		// writes land at its recovery. Surface the shard fault rather than
		// pretending the apply completed.
		return fmt.Errorf("dstore: transaction committed but shard apply pending: %w", pendErr)
	}
	return nil
}

// ------------------------------------------------------------- resolution

// resolveTxns resolves cross-shard transactions interrupted by a crash,
// before OpenSharded serves: every surviving prepare object rolls forward
// when its coordinator's decision object exists and is presumed aborted
// otherwise; decision objects whose participants are all clean are
// collected. Runs single-threaded on freshly recovered shards.
func (sh *Sharded) resolveTxns() error {
	n := sh.Shards()
	for i := 0; i < n; i++ {
		preps, err := sh.store(i).reservedNames(txnPrepPrefix)
		if err != nil {
			return err
		}
		for _, name := range preps {
			val, _, gerr := sh.store(i).getVersioned(name, nil)
			if gerr != nil {
				return fmt.Errorf("shard %d: read %q: %w", i, name, gerr)
			}
			coord, ops, derr := decodeTxnPrep(val)
			if derr != nil {
				return fmt.Errorf("shard %d: %q: %w", i, name, derr)
			}
			if coord < 0 || coord >= n {
				return fmt.Errorf("%w: shard %d: %q names coordinator %d of %d", ErrCorrupt, i, name, coord, n)
			}
			dec := txnDecPrefix + name[len(txnPrepPrefix):]
			if sh.store(coord).hasReserved(dec) {
				// Decided: roll the prepared writes forward and retire the
				// prepare in the same atomic record.
				ops = append(ops, txnOp{key: name, del: true})
				if err := sh.store(i).commitTxnSet(0, nil, ops, nil); err != nil {
					return fmt.Errorf("shard %d: roll forward %q: %w", i, name, err)
				}
			} else {
				// Presumed abort: no decision record survived, so no shard
				// applied anything.
				if err := sh.store(i).deleteReserved(name); err != nil {
					return fmt.Errorf("shard %d: abort %q: %w", i, name, err)
				}
			}
		}
	}
	// GC decisions whose participants all finished.
	for i := 0; i < n; i++ {
		decs, err := sh.store(i).reservedNames(txnDecPrefix)
		if err != nil {
			return err
		}
		for _, name := range decs {
			val, _, gerr := sh.store(i).getVersioned(name, nil)
			if gerr != nil {
				return fmt.Errorf("shard %d: read %q: %w", i, name, gerr)
			}
			parts, derr := decodeTxnDec(val)
			if derr != nil {
				return fmt.Errorf("shard %d: %q: %w", i, name, derr)
			}
			prep := txnPrepPrefix + name[len(txnDecPrefix):]
			clean := true
			for _, p := range parts {
				if p < 0 || p >= n || sh.store(p).hasReserved(prep) {
					clean = false
					break
				}
			}
			if clean {
				if err := sh.store(i).deleteReserved(name); err != nil {
					return fmt.Errorf("shard %d: collect %q: %w", i, name, err)
				}
			}
		}
	}
	return nil
}
