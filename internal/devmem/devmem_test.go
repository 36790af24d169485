package devmem_test

import (
	"runtime"
	"testing"

	"dstore/internal/devmem"
	"dstore/internal/pmem"
	"dstore/internal/ssd"
)

// TestDroppedDevicesAreReleased creates and drops 200 devices of 8 MiB, half
// of them PMEM devices whose mutation hook closes over the device itself (a
// reference cycle, as fault-injection tests build), and checks that the
// mapped bytes stay within a few devices' worth: every dropped image is
// released and recycled, none is pinned.
func TestDroppedDevicesAreReleased(t *testing.T) {
	const size, devices = 8 << 20, 200
	var peak int64
	for i := 0; i < devices; i++ {
		if i%2 == 0 {
			d := pmem.New(pmem.Config{Size: size})
			d.SetMutationHook(func() { _ = d.Size() })
			d.PutU64(0, uint64(i))
		} else {
			d := ssd.New(ssd.Config{Pages: size / ssd.DefaultPageSize, PowerProtected: true})
			if err := d.WriteAt(0, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		live, spare := devmem.Mapped()
		peak = max(peak, live+spare)
	}
	if peak > 4*size {
		t.Fatalf("%d devices of %d MiB dropped one at a time: %d MiB mapped at the peak", devices, size>>20, peak>>20)
	}
}

// TestRecycledImageIsZeroed checks that an image taken from the spare list
// reads as a fresh device.
func TestRecycledImageIsZeroed(t *testing.T) {
	const size = 1 << 20
	for i := 0; i < 20; i++ {
		d := ssd.New(ssd.Config{Pages: size / ssd.DefaultPageSize, PowerProtected: true})
		buf := make([]byte, size)
		if err := d.ReadAt(0, buf); err != nil {
			t.Fatal(err)
		}
		for off, b := range buf {
			if b != 0 {
				t.Fatalf("device %d: byte %d of a new device is %#x", i, off, b)
			}
		}
		for off := range buf {
			buf[off] = 0xff
		}
		if err := d.WriteAt(0, buf); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
	}
}
