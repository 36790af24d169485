package dstore

import (
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"testing"
	"time"

	"dstore/internal/devmem"
)

// heapCeiling bounds what the package may still hold after its tests ran:
// heap in use plus the device images still reachable off the heap.
// One store pins ~32 MB of simulated devices, and the sweeps create
// thousands: retention of even a few percent of them blows through this.
const heapCeiling = 256 << 20

// TestMain guards the package's resource floor. Every test builds and drops
// stores; a store that is dropped without being stopped keeps its checkpoint
// goroutine and batch workers parked, and those keep its devices reachable
// for the life of the process — which is how the crash sweeps once took this
// package to 15 GB. After the run, goroutines get a moment to settle (the
// same polling the server's stabilization test uses), the heap is collected
// until dropped devices' images are released, and the run fails if more goroutines are alive than before it started or
// the live heap and device images exceed heapCeiling.
func TestMain(m *testing.M) {
	// A fuzz run's engine watches for SIGINT, which starts os/signal's loop
	// goroutine for the rest of the process. Start it before the count, so a
	// fuzz run is held to the same ledger as a test run.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	signal.Stop(sig)
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		live := settleImages()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		var images int64
		if devmem.OffHeap {
			images = live
		}
		if n > base {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "FAIL: %d goroutines alive after the tests, %d before; a store was dropped without being stopped\n%s\n",
				n, base, buf[:runtime.Stack(buf, true)])
			code = 1
		}
		if ms.HeapInuse+uint64(images) > heapCeiling {
			fmt.Fprintf(os.Stderr, "FAIL: %d MiB of heap and %d MiB of device images in use after the tests, ceiling %d MiB; something pins dropped stores\n",
				ms.HeapInuse>>20, images>>20, heapCeiling>>20)
			code = 1
		}
	}
	os.Exit(code)
}
