// Package devmem holds the simulated PMEM and SSD images outside the Go
// heap, so the collector paces on the store's own DRAM (DESIGN.md §1). On
// Linux an image is an anonymous mapping; elsewhere, and in race builds so
// that the race detector checks device bytes, it is a heap slice (OffHeap).
//
// The collector does not trace into a mapping: a slice of an image is valid
// only while its Image is reachable. A device holds its Image, so code that
// keeps a slice of a device's bytes must copy it or keep the device.
package devmem

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// spareAge bounds the spare list: a released image is unmapped once this
// many later calls to New have passed it over. A test loop that drops a
// store and builds the next reuses a spare within a few calls (a 4-shard
// ring makes 8); a one-off store's images do not stay resident.
const spareAge = 8

type spare struct {
	b  []byte
	at uint64 // news at release
}

var (
	spareMu sync.Mutex
	spares  []spare // guarded by spareMu; oldest release first
	news    uint64  // guarded by spareMu; calls to New
	live    atomic.Int64
)

// Image owns one device image. It holds no heap pointer, so its finalizer
// runs even when its device sits in a cycle (a mutation hook or fault plan
// closing over the device).
type Image struct{ b []byte }

// New returns a zeroed n-byte image with every page resident, so first-touch
// faults land here and not inside a measured operation. It recycles the
// newest released image of the same length before it maps a fresh one.
func New(n int) *Image {
	spareMu.Lock()
	news++
	var b []byte
	for i := len(spares) - 1; i >= 0 && b == nil; i-- {
		if len(spares[i].b) == n {
			b = spares[i].b
			spares = slices.Delete(spares, i, i+1)
		}
	}
	var old [][]byte
	for len(spares) > 0 && news-spares[0].at > spareAge {
		old = append(old, spares[0].b)
		spares = spares[1:]
	}
	spareMu.Unlock()
	for _, o := range old {
		unmapBytes(o)
	}
	if b == nil {
		b = mapBytes(n)
	} else {
		clear(b)
	}
	live.Add(int64(n))
	im := &Image{b: b}
	runtime.SetFinalizer(im, func(im *Image) {
		live.Add(-int64(len(im.b)))
		if !OffHeap {
			return
		}
		spareMu.Lock()
		spares = append(spares, spare{im.b, news})
		spareMu.Unlock()
	})
	return im
}

// Bytes returns the image; see the package comment for how long it is valid.
func (im *Image) Bytes() []byte { return im.b }

// Mapped reports the bytes of reachable images and of spares; for tests.
func Mapped() (reachable, spare int64) {
	spareMu.Lock()
	defer spareMu.Unlock()
	for _, s := range spares {
		spare += int64(len(s.b))
	}
	return live.Load(), spare
}
