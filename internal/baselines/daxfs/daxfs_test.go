package daxfs

import (
	"testing"

	"dstore/internal/pmem"
)

func TestModelsRun(t *testing.T) {
	for _, fs := range All(false) {
		for i := uint64(0); i < 200; i++ {
			fs.WriteMeta(i % 8)
		}
	}
}

func TestNOVALogEntriesAccumulate(t *testing.T) {
	n := NewNOVA(false)
	before := n.dev.Stats()
	for i := 0; i < 10; i++ {
		n.WriteMeta(1)
	}
	after := n.dev.Stats()
	if after.BytesWritten-before.BytesWritten < 10*64 {
		t.Fatalf("NOVA wrote only %d bytes", after.BytesWritten-before.BytesWritten)
	}
	if after.Fences-before.Fences < 20 {
		t.Fatalf("NOVA fenced %d times, want >= 20 (entry + tail per write)", after.Fences-before.Fences)
	}
}

func TestEXT4JournalsFullBlocks(t *testing.T) {
	e := NewEXT4(false)
	before := e.dev.Stats()
	e.WriteMeta(0)
	after := e.dev.Stats()
	if after.BytesWritten-before.BytesWritten < 4096 {
		t.Fatalf("ext4 journalled only %d bytes, want >= 4096", after.BytesWritten-before.BytesWritten)
	}
}

func TestRelativeMetadataCost(t *testing.T) {
	// The per-write metadata persistence work must order
	// NOVA < xfs < ext4, matching the mechanisms (64 B log entry vs 256 B
	// transaction vs 4 KiB journal block). This is the Fig. 6 ordering for
	// the filesystems (DStore, measured elsewhere, is cheaper than all).
	// Measured as deterministic device flush work, which is what the
	// latency model charges for.
	cost := func(fs FS, dev *pmem.Device) uint64 {
		const n = 200
		before := dev.Stats()
		for i := 0; i < n; i++ {
			fs.WriteMeta(uint64(i % 4))
		}
		after := dev.Stats()
		return (after.LinesFlushed - before.LinesFlushed) / n
	}
	n, x, e := NewNOVA(false), NewXFS(false), NewEXT4(false)
	nova, xfs, ext4 := cost(n, n.dev), cost(x, x.dev), cost(e, e.dev)
	if !(nova < xfs && xfs < ext4) {
		t.Fatalf("metadata flush-work ordering violated: nova=%d xfs=%d ext4=%d lines/op", nova, xfs, ext4)
	}
}

func TestLabels(t *testing.T) {
	want := map[string]bool{"NOVA": true, "xfs-DAX": true, "ext4-DAX": true}
	for _, fs := range All(false) {
		if !want[fs.Label()] {
			t.Fatalf("unexpected label %q", fs.Label())
		}
		delete(want, fs.Label())
	}
	if len(want) != 0 {
		t.Fatalf("missing models: %v", want)
	}
}
