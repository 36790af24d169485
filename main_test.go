package dstore

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// heapCeiling bounds what the package may still hold after its tests ran.
// One store pins ~32 MB of simulated devices, and the sweeps create
// thousands: retention of even a few percent of them blows through this.
const heapCeiling = 256 << 20

// TestMain guards the package's resource floor. Every test builds and drops
// stores; a store that is dropped without being stopped keeps its checkpoint
// goroutine and batch workers parked, and those keep its devices reachable
// for the life of the process — which is how the crash sweeps once took this
// package to 15 GB. After the run, goroutines get a moment to settle (the
// same polling the server's stabilization test uses), the heap is collected,
// and the run fails if more goroutines are alive than before it started or
// the live heap exceeds heapCeiling.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if n > base {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "FAIL: %d goroutines alive after the tests, %d before; a store was dropped without being stopped\n%s\n",
				n, base, buf[:runtime.Stack(buf, true)])
			code = 1
		}
		if ms.HeapInuse > heapCeiling {
			fmt.Fprintf(os.Stderr, "FAIL: %d MiB of heap in use after the tests, ceiling %d MiB; something pins dropped stores\n",
				ms.HeapInuse>>20, heapCeiling>>20)
			code = 1
		}
	}
	os.Exit(code)
}
