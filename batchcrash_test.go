package dstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dstore/internal/pmem"
)

// Crash-point sweep over batched operations: run a deterministic MPut /
// MDelete workload with WAL group commit enabled and crash at the k-th PMEM
// mutation for a sweep of k values. The sweep crosses every phase of the
// grouped durability protocol — record bodies stored but LSNs unpublished
// (between batch formation and the shared fence), LSNs published but settle
// states unflushed, and everything in between. After each crash, recovery
// must yield a state equal to some prefix of the flattened sub-op sequence:
// sub-ops are applied in order, each atomically, so a crash can never
// surface a later sub-op's effect without every earlier one's.

// batchOp is one flattened sub-operation of the batch workload.
type batchOp struct {
	del bool
	key string
	val []byte
}

// batchRounds returns the workload as the batches it is issued in; the
// flattened concatenation is the model's op sequence.
func batchRounds() [][]batchOp {
	var rounds [][]batchOp
	seq := 0
	for round := 0; round < 14; round++ {
		if round%4 == 3 {
			r := make([]batchOp, 2)
			for j := range r {
				r[j] = batchOp{del: true, key: fmt.Sprintf("b%02d", seq%13)}
				seq++
			}
			rounds = append(rounds, r)
			continue
		}
		r := make([]batchOp, 3+round%5)
		for j := range r {
			r[j] = batchOp{
				key: fmt.Sprintf("b%02d", seq%13),
				val: bytes.Repeat([]byte{byte(seq%250 + 1)}, 400+seq*11),
			}
			seq++
		}
		rounds = append(rounds, r)
	}
	return rounds
}

// runBatchRounds drives the workload through the store's bulk entry points.
func runBatchRounds(s *Store) error {
	for _, r := range batchRounds() {
		keys := make([]string, len(r))
		vals := make([][]byte, len(r))
		for j, op := range r {
			keys[j], vals[j] = op.key, op.val
		}
		var errs []error
		if r[0].del {
			errs = s.MDelete(0, keys)
		} else {
			errs = s.MPut(0, keys, vals)
		}
		for j, err := range errs {
			if err != nil && !(r[0].del && errors.Is(err, ErrNotFound)) {
				return fmt.Errorf("sub-op %d (%s): %w", j, keys[j], err)
			}
		}
	}
	return s.CheckpointNow()
}

// batchModelAt returns the expected contents after the first n flattened
// sub-ops.
func batchModelAt(ops []batchOp, n int) map[string][]byte {
	m := map[string][]byte{}
	for i := 0; i < n; i++ {
		if ops[i].del {
			delete(m, ops[i].key)
		} else {
			m[ops[i].key] = ops[i].val
		}
	}
	return m
}

// stateMatches reports whether the store's contents equal the model exactly
// over the workload's key space.
func stateMatches(ctx *Ctx, model map[string][]byte) bool {
	for i := 0; i < 13; i++ {
		k := fmt.Sprintf("b%02d", i)
		got, err := ctx.Get(k, nil)
		want, present := model[k]
		switch {
		case err == ErrNotFound:
			if present {
				return false
			}
		case err != nil:
			return false
		default:
			if !present || !bytes.Equal(got, want) {
				return false
			}
		}
	}
	return true
}

func TestBatchCrashPointSweep(t *testing.T) {
	// Pin the fan-out to one worker: every PMEM mutation then happens on
	// this goroutine, so the crash hook's panic is recoverable here and
	// mutation indices are deterministic. Group commit stays on (the
	// default), so the single committer still runs the grouped publish
	// protocol: store body → span flush + fence → LSN publish → settle.
	oldWorkers := mopWorkers
	mopWorkers = 1
	defer func() { mopWorkers = oldWorkers }()

	mkConfig := func() Config {
		return Config{
			Blocks:              2048,
			MaxObjects:          512,
			LogBytes:            1 << 14, // small log: the sweep crosses checkpoints
			CheckpointThreshold: 1e-9,    // no async triggers; log-full runs inline
			TrackPersistence:    true,
		}
	}

	// First pass: count total PMEM mutations of the clean workload, and
	// prove the grouped path is the one being swept.
	s, err := Format(mkConfig())
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	pm, _ := s.Devices()
	pm.SetMutationHook(func() { total++ })
	if err := runBatchRounds(s); err != nil {
		t.Fatal(err)
	}
	pm.SetMutationHook(nil)
	if gc := s.Stats().Engine; gc.GCBatches == 0 {
		t.Fatal("workload did not exercise group commit")
	}
	s.Close()
	if total < 500 {
		t.Fatalf("workload performed only %d PMEM mutations", total)
	}

	ops := []batchOp{}
	for _, r := range batchRounds() {
		ops = append(ops, r...)
	}

	stride := total / 89
	if stride == 0 {
		stride = 1
	}
	points := 0
	for k := uint64(1); k < total; k += stride {
		points++
		runBatchCrashPoint(t, mkConfig(), ops, k)
	}
	t.Logf("verified %d batch crash points across %d PMEM mutations", points, total)
}

func runBatchCrashPoint(t *testing.T, cfg Config, ops []batchOp, crashAt uint64) {
	t.Helper()
	s, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pm, data := s.Devices()

	crashed := runToCrash([]*pmem.Device{pm}, crashAt, s.CloseNoCheckpoint, func() {
		if err := runBatchRounds(s); err != nil {
			t.Fatalf("crash point %d: workload error before crash: %v", crashAt, err)
		}
	})
	if !crashed {
		s.Close()
		return
	}

	cfg.PMEM, cfg.SSD = pm, data
	pm.Crash(pmem.CrashDropDirty, int64(crashAt))
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("crash point %d: recovery failed: %v", crashAt, err)
	}
	defer s2.Close()
	if err := s2.Check(); err != nil {
		t.Fatalf("crash point %d: fsck after recovery: %v", crashAt, err)
	}

	// The recovered state must equal the model after SOME prefix of the
	// flattened sub-op sequence: batches are not atomic, but sub-ops are,
	// and nothing later may survive without everything earlier.
	ctx := s2.Init()
	for n := 0; n <= len(ops); n++ {
		if stateMatches(ctx, batchModelAt(ops, n)) {
			return
		}
	}
	t.Fatalf("crash point %d: recovered state matches no sub-op prefix", crashAt)
}
