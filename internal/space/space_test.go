package space

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"dstore/internal/pmem"
)

// both returns a DRAM arena and a window of tracked PMEM, of one size.
func both(size uint64) map[string]*Arena {
	dev := pmem.New(pmem.Config{Size: int(size), TrackPersistence: true})
	return map[string]*Arena{
		"dram": NewDRAM(size),
		"pmem": &MustPMEM(dev, 0, size).Arena,
	}
}

func TestAccessorsBothKinds(t *testing.T) {
	spaces := both(4096)
	for name, sp := range spaces {
		t.Run(name, func(t *testing.T) {
			sp.PutU64(0, 0x1122334455667788)
			if sp.GetU64(0) != 0x1122334455667788 {
				t.Fatal("u64 round trip")
			}
			sp.PutU32(8, 0xAABBCCDD)
			if sp.GetU32(8) != 0xAABBCCDD {
				t.Fatal("u32 round trip")
			}
			sp.PutU16(12, 0xEEFF)
			if sp.GetU16(12) != 0xEEFF {
				t.Fatal("u16 round trip")
			}
			sp.PutU8(14, 0x42)
			if sp.GetU8(14) != 0x42 {
				t.Fatal("u8 round trip")
			}
			sp.Write(100, []byte("payload"))
			if string(sp.Slice(100, 7)) != "payload" {
				t.Fatal("write/slice round trip")
			}
			sp.Zero(100, 7)
			for _, b := range sp.Slice(100, 7) {
				if b != 0 {
					t.Fatal("zero failed")
				}
			}
			// Persistence ops must be harmless on both kinds.
			sp.Flush(0, 16)
			sp.Fence()
			sp.Persist(0, 16)
		})
	}
}

func TestOutOfRangePanics(t *testing.T) {
	spaces := both(256)
	for name, sp := range spaces {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			sp.PutU64(252, 1)
		})
	}
}

func TestPMEMWindowIsolation(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 4096, TrackPersistence: true})
	a := MustPMEM(dev, 0, 1024)
	b := MustPMEM(dev, 1024, 1024)
	a.Write(0, []byte("AAAA"))
	b.Write(0, []byte("BBBB"))
	if string(a.Slice(0, 4)) != "AAAA" || string(b.Slice(0, 4)) != "BBBB" {
		t.Fatal("windows overlap")
	}
	if a.Base() != 0 || b.Base() != 1024 || b.Device() != dev {
		t.Fatal("window metadata")
	}
	// A window must not reach past its end even though the device is larger.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Slice(1020, 8)
}

func TestPMEMWindowValidation(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 4096})
	for _, c := range []struct{ base, size uint64 }{
		{0, 8192},  // exceeds device
		{100, 100}, // unaligned base
	} {
		if _, err := NewPMEM(dev, c.base, c.size); err == nil {
			t.Errorf("NewPMEM(%d,%d) accepted a bad window", c.base, c.size)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustPMEM(%d,%d) did not panic", c.base, c.size)
				}
			}()
			MustPMEM(dev, c.base, c.size)
		}()
	}
	if _, err := NewPMEM(dev, 0, 4096); err != nil {
		t.Fatalf("NewPMEM rejected a valid window: %v", err)
	}
}

func TestPMEMPersistenceThroughSpace(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 4096, TrackPersistence: true})
	sp := MustPMEM(dev, 1024, 1024)
	sp.Write(0, []byte("durable"))
	sp.Persist(0, 7)
	sp.Write(64, []byte("volatile"))
	dev.Crash(pmem.CrashDropDirty, 1)
	if string(sp.Slice(0, 7)) != "durable" {
		t.Fatal("persisted window data lost")
	}
	if string(sp.Slice(64, 8)) == "volatile" {
		t.Fatal("unflushed window data survived adversarial crash")
	}
}

func TestCopyAcrossKinds(t *testing.T) {
	spaces := both(128 * 1024)
	src := spaces["dram"]
	dst := spaces["pmem"]
	data := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 20000) // > one 64 KiB chunk
	src.Write(0, data)
	Copy(dst, 0, src, 0, uint64(len(data)))
	if !bytes.Equal(dst.Slice(0, uint64(len(data))), data) {
		t.Fatal("cross-kind copy mismatch")
	}
	// And back, with offsets.
	Copy(src, 64, dst, 0, 1000)
	if !bytes.Equal(src.Slice(64, 1000), data[:1000]) {
		t.Fatal("offset copy mismatch")
	}
}

// Property: a DRAM arena and a PMEM window are observationally identical
// under any sequence of writes.
func TestQuickKindsEquivalent(t *testing.T) {
	f := func(ops []uint16, vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		spaces := both(1 << 12)
		d, p := spaces["dram"], spaces["pmem"]
		for i, op := range ops {
			off := uint64(op) % (1<<12 - 8)
			v := vals[i%len(vals)]
			switch op % 6 {
			case 0:
				d.PutU64(off, v)
				p.PutU64(off, v)
			case 1:
				d.PutU8(off, uint8(v))
				p.PutU8(off, uint8(v))
			case 2:
				var b [6]byte
				for j := range b {
					b[j] = byte(v >> (8 * j))
				}
				d.Write(off, b[:])
				p.Write(off, b[:])
			case 3:
				d.PutU32(off, uint32(v))
				p.PutU32(off, uint32(v))
			case 4:
				d.PutU16(off, uint16(v))
				p.PutU16(off, uint16(v))
			case 5:
				d.Zero(off, v%(1<<12-off))
				p.Zero(off, v%(1<<12-off))
			}
		}
		return bytes.Equal(d.Slice(0, 1<<12), p.Slice(0, 1<<12))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// recBarrier records the calls an arena makes to its barrier.
type recBarrier struct{ calls []string }

func (r *recBarrier) Enter(off, n uint64) {
	r.calls = append(r.calls, fmt.Sprintf("enter %d+%d", off, n))
}
func (r *recBarrier) Exit() { r.calls = append(r.calls, "exit") }

// Every store calls Enter with its own range and then Exit, once each; no
// read or persistence operation calls the barrier. Both kinds of arena run
// the same script and end byte-identical.
func TestBarrierBracketsEveryStore(t *testing.T) {
	const size = 8192
	store := func(r string) []string { return []string{"enter " + r, "exit"} }
	cases := []struct {
		name string
		op   func(a *Arena)
		want []string
	}{
		{"Write", func(a *Arena) { a.Write(100, []byte("payload")) }, store("100+7")},
		{"Zero", func(a *Arena) { a.Zero(103, 5000) }, store("103+5000")},
		{"PutU64", func(a *Arena) { a.PutU64(8, 0x1122334455667788) }, store("8+8")},
		{"PutU32", func(a *Arena) { a.PutU32(6000, 0xAABBCCDD) }, store("6000+4")},
		{"PutU16", func(a *Arena) { a.PutU16(6001, 0xEEFF) }, store("6001+2")},
		{"PutU8", func(a *Arena) { a.PutU8(size-1, 0x42) }, store("8191+1")},
		{"Slice", func(a *Arena) { a.Slice(0, size) }, nil},
		{"GetU64", func(a *Arena) { a.GetU64(8) }, nil},
		{"GetU32", func(a *Arena) { a.GetU32(6000) }, nil},
		{"GetU16", func(a *Arena) { a.GetU16(6001) }, nil},
		{"GetU8", func(a *Arena) { a.GetU8(size - 1) }, nil},
		{"Persist", func(a *Arena) { a.Flush(0, 64); a.Fence(); a.Persist(0, size) }, nil},
	}
	arenas := both(size)
	for name, a := range arenas {
		b := &recBarrier{}
		a.SetBarrier(b)
		for _, c := range cases {
			b.calls = nil
			c.op(a)
			if !slices.Equal(b.calls, c.want) {
				t.Errorf("%s %s: barrier calls %q, want %q", name, c.name, b.calls, c.want)
			}
		}
	}
	if !bytes.Equal(arenas["dram"].Slice(0, size), arenas["pmem"].Slice(0, size)) {
		t.Fatal("DRAM and PMEM arenas diverged under the same stores")
	}
}
