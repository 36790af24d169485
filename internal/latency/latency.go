// Package latency provides calibrated busy-wait latency injection for the
// simulated storage devices.
//
// The reproduction needs device-scale delays (hundreds of nanoseconds for a
// PMEM cache-line flush, ~9 µs for an NVMe 4 KB write). time.Sleep cannot hit
// sub-100 µs targets reliably on Linux, so delays are realised by spinning on
// a monotonic clock. Injection is globally switchable: unit tests run with it
// disabled and execute at memory speed, benchmarks enable it to reproduce the
// paper's latency shapes.
//
// A wait of yieldFloor or more yields its P at most once per yieldQuantum and
// polls the clock in between. runtime.Gosched puts the goroutine on the
// global run queue and takes it off again, each under sched.lock, so a yield
// on every poll made the scheduler the largest cost of a device wait and
// made the waits of two Ps queue on that lock.
package latency

import (
	"runtime"
	"sync/atomic"
	"time"
)

// enabled gates all injection. Disabled by default so `go test ./...` is fast;
// the benchmark harness calls Enable().
var enabled atomic.Bool

// Enable turns latency injection on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns latency injection off process-wide.
func Disable() { enabled.Store(false) }

// Enabled reports whether injection is currently active.
func Enabled() bool { return enabled.Load() }

// yieldFloor is the wait length above which Spin yields the processor while
// waiting. A device with an I/O in flight does not occupy a CPU, so modelling
// multi-microsecond device time as a pure busy-wait both wastes a core and —
// on machines with fewer cores than client threads — serialises waits that
// real hardware would overlap. Sub-microsecond PMEM line costs stay pure spins
// for accuracy; anything at NVMe-page scale (≈9 µs per 4 KB write) yields.
const yieldFloor = 2 * time.Microsecond

// spinTail is the final stretch of a yielding wait that is burned as a pure
// spin so the achieved duration lands tightly on the target instead of on a
// scheduler quantum boundary.
const spinTail = 500 * time.Nanosecond

// yieldQuantum is the longest a yielding wait polls the clock between two
// yields. While it polls it holds its P, so on one P another goroutine's
// wait can end up to a quantum late. On a 2-vCPU host, 2 µs made such waits
// end two to four times later than 1 µs did, and 0.5 µs ran no faster.
const yieldQuantum = time.Microsecond

// Spin waits for at least d if injection is enabled. Short waits poll the
// monotonic clock; accuracy is bounded by the clock read cost (~20-30 ns),
// which is sufficient for the ≥100 ns delays the device models use. Waits of
// yieldFloor or longer release the processor once a yieldQuantum, so
// concurrent device operations overlap the way independent hardware queues
// do; the calibrated duration is a floor, and any scheduling overshoot is the
// same queueing delay a loaded host would add.
func Spin(d time.Duration) {
	if d <= 0 || !enabled.Load() {
		return
	}
	deadline := time.Now().Add(d)
	if d >= yieldFloor {
		last, next := deadline.Add(-spinTail), time.Time{}
		for now := time.Now(); now.Before(last); now = time.Now() {
			if !now.Before(next) {
				runtime.Gosched()
				next = now.Add(yieldQuantum)
			}
		}
	}
	for time.Now().Before(deadline) {
	}
}
