package latency

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDisabledSpinReturnsImmediately(t *testing.T) {
	Disable()
	start := time.Now()
	Spin(50 * time.Millisecond)
	if time.Since(start) > 5*time.Millisecond {
		t.Fatal("disabled Spin waited")
	}
}

// A wait on either side of yieldFloor, and ones of many yield quanta, never
// end before their deadline.
func TestEnabledSpinWaits(t *testing.T) {
	Enable()
	defer Disable()
	for _, d := range []time.Duration{100 * time.Nanosecond, 2 * time.Microsecond, 50 * time.Microsecond, 2 * time.Millisecond} {
		for range 100 {
			start := time.Now()
			Spin(d)
			if got := time.Since(start); got < d {
				t.Fatalf("Spin(%v) returned after %v", d, got)
			}
		}
	}
}

// A yielding wait gives its only P to another goroutine while it runs.
func TestSpinLetsAnotherGoroutineRunOnOneP(t *testing.T) {
	Enable()
	defer Disable()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var progress atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				progress.Add(1)
				runtime.Gosched()
			}
		}
	}()
	before := progress.Load()
	Spin(time.Millisecond)
	after := progress.Load()
	close(stop)
	<-done
	if after == before {
		t.Fatal("no progress on the other goroutine during a 1ms Spin on one P")
	}
}

// Two yielding waits on one P overlap, as two device operations in flight do.
func TestConcurrentSpinsOverlapOnOneP(t *testing.T) {
	Enable()
	defer Disable()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const d = time.Millisecond
	best := time.Hour
	for range 3 { // a descheduled thread only adds time, so keep the fastest
		var wg sync.WaitGroup
		start := time.Now()
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				Spin(d)
			}()
		}
		wg.Wait()
		best = min(best, time.Since(start))
	}
	// Serial waits take 2ms or more; the bound leaves room for a loaded host.
	if best >= 1800*time.Microsecond {
		t.Fatalf("two concurrent %v Spins on one P took %v", d, best)
	}
}

func TestNonPositiveDurations(t *testing.T) {
	Enable()
	defer Disable()
	Spin(0)
	Spin(-time.Second)
}

func TestEnabledReflectsState(t *testing.T) {
	Enable()
	if !Enabled() {
		t.Fatal("Enabled() false after Enable")
	}
	Disable()
	if Enabled() {
		t.Fatal("Enabled() true after Disable")
	}
}
