// Package persistordertest is golden-test input for the persist-order
// checker. Each deliberate violation carries a want comment (a quoted regexp)
// on the line the finding must anchor to; functions without a want comment
// must stay clean.
package persistordertest

import (
	"dstore/internal/pmem"
	"dstore/internal/space"
	"dstore/internal/wal"
)

// missingFlush leaves a dirty write at return.
func missingFlush(d *pmem.Device) {
	d.PutU64(0, 1)
} // want "returns with unflushed persistent writes"

// missingFence flushes but never fences: the line is staged, not persistent.
func missingFence(d *pmem.Device) {
	d.PutU64(0, 1)
	d.Flush(0, 8)
} // want "returns with flushed but not fenced persistent writes"

// flushFenceReturn is the compliant sequence; no finding.
func flushFenceReturn(d *pmem.Device) {
	d.PutU64(0, 1)
	d.Flush(0, 8)
	d.Fence()
}

// commitBeforeFence publishes a WAL commit record while the payload write is
// still dirty — the §3.4 violation the checker exists to catch.
func commitBeforeFence(d *pmem.Device, p *wal.Pair, h *wal.Handle) error {
	d.PutU64(0, 1)
	return p.Commit(h) // want "commit/publish reached with unflushed persistent writes"
}

// commitAfterPersist adds the missing Persist (flush+fence) before the
// commit; the finding must clear.
func commitAfterPersist(d *pmem.Device, p *wal.Pair, h *wal.Handle) error {
	d.PutU64(0, 1)
	d.Persist(0, 8)
	return p.Commit(h)
}

// branchyPersist persists on every path; the if/else join stays clean.
func branchyPersist(d *pmem.Device, wide bool) {
	if wide {
		d.PutU64(0, 1)
		d.Persist(0, 64)
	} else {
		d.PutU64(64, 2)
		d.Persist(64, 8)
	}
}

// oneArmDirty fences only one branch; the join is dirty.
func oneArmDirty(d *pmem.Device, wide bool) {
	d.PutU64(0, 1)
	if wide {
		d.Persist(0, 64)
	}
} // want "returns with unflushed persistent writes"

// scratch writes here are volatile by design; recovery tolerates their loss.
//
//dstore:volatile
func volatileScratch(d *pmem.Device) {
	d.PutU64(0, 1)
}

// arenaWrite stores through a *space.Arena — arena structures are volatile
// until checkpoint FlushAll, so arena writes are invisible to the checker by
// design.
func arenaWrite(a *space.Arena, b []byte) {
	a.Write(0, b)
}

// windowWrite stores through a WAL log window: the promoted Write is a
// durable write like any other and must be flushed and fenced.
func windowWrite(p *space.PMEM, b []byte) {
	p.Write(0, b)
} // want "returns with unflushed persistent writes"

// dirtyHelper writes without flushing; its summary marks it not-ends-clean.
func dirtyHelper(d *pmem.Device) {
	d.PutU64(0, 1)
} // want "returns with unflushed persistent writes"

// callsDirtyHelper inherits the helper's dirt through its summary.
func callsDirtyHelper(d *pmem.Device) {
	dirtyHelper(d)
} // want "returns with unflushed persistent writes"

// callsCleanHelper calls a function that persists everything it writes; the
// caller stays clean.
func callsCleanHelper(d *pmem.Device) {
	flushFenceReturn(d)
}

// panicPath crashes the process before returning; recovery replays the log,
// so the unfenced write on the panic path is not a violation.
func panicPath(d *pmem.Device, ok bool) {
	d.PutU64(0, 1)
	if !ok {
		panic("golden: crash path")
	}
	d.Persist(0, 8)
}

// initPersists carries the Persist in the if's init statement, which runs on
// every path before the condition: clean.
func initPersists(d *pmem.Device) int {
	d.PutU64(0, 1)
	if d.Persist(0, 8); d.Size() > 64 {
		return 1
	}
	return 0
}

// initWrites carries the write in a switch's init statement; no arm persists
// it.
func initWrites(d *pmem.Device, mode int) {
	switch d.PutU64(0, 1); mode {
	case 0:
		d.Persist(0, 8)
	}
} // want "returns with unflushed persistent writes"

// shadowedPanic calls a local function named panic: not the builtin, so the
// path does not crash and its return is an exit like any other.
func shadowedPanic(d *pmem.Device, ok bool) {
	panic := func(string) {}
	d.PutU64(0, 1)
	if !ok {
		panic("golden: not the builtin")
		return // want "returns with unflushed persistent writes"
	}
	d.Persist(0, 8)
}

// breakCarriesState: the write leaves the loop through the break, past the
// Persist that the rest of the body would have reached.
func breakCarriesState(d *pmem.Device, n int) {
	for i := 0; i < n; i++ {
		d.PutU64(0, 1)
		if i == 3 {
			break
		}
		d.Persist(0, 8)
	}
} // want "returns with unflushed persistent writes"
