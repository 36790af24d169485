// Package goroutinelifetest is golden-test input for the
// goroutine-lifecycle checker: spawns with deferred and flow-checked join
// markers, cancellation subscriptions, leaks on error paths, and
// unresolvable spawn targets.
package goroutinelifetest

import (
	"errors"
	"fmt"
	"sync"
)

var errBoom = errors.New("boom")

func work() error { return errBoom }

// deferredJoin is tracked: the WaitGroup.Done is deferred, so every exit
// path signals.
func deferredJoin(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := work(); err != nil {
			return
		}
	}()
}

// straightLineJoin is tracked: the non-deferred marker executes on the only
// path.
func straightLineJoin(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		_ = work()
		wg.Done()
	}()
}

// branchJoin is tracked: both arms of the branch mark before returning.
func branchJoin(done chan struct{}) {
	go func() {
		if err := work(); err != nil {
			close(done)
			return
		}
		close(done)
	}()
}

// cancellable is tracked: the goroutine selects on a stop channel, so the
// spawner can always terminate it.
func cancellable(stop chan struct{}, in chan int) {
	go func() {
		for {
			select {
			case <-stop:
				return
			case v := <-in:
				_ = v
			}
		}
	}()
}

// rangeDrain is tracked: ranging over a channel terminates when the sender
// closes it.
func rangeDrain(in chan int) {
	go func() {
		for v := range in {
			_ = v
		}
	}()
}

type tailer struct {
	done chan struct{}
}

func (t *tailer) run() {
	defer close(t.done)
	_ = work()
}

// namedSpawn is tracked: the callee resolves to run, whose deferred close
// signals exit.
func namedSpawn(t *tailer) {
	go t.run()
}

// untracked leaks: nothing signals exit and nothing can cancel it.
func untracked() {
	go func() { // want "no termination tracking"
		_ = work()
	}()
}

// errorPathLeak has a marker, but the error return skips it.
func errorPathLeak(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() { // want "leaks on error paths"
		if err := work(); err != nil {
			return
		}
		wg.Done()
	}()
}

// unresolvable spawns a function with no body in this module.
func unresolvable() {
	go fmt.Println("fire and forget") // want "cannot be resolved"
}

// suppressed documents an intentional fire-and-forget spawn.
func suppressed() {
	go fmt.Println("logged") //nolint:goroutine-lifecycle // metrics flush; bounded by Println
}

// initMarks is tracked: the marker rides in the if's init statement, which
// runs on every path before the early return.
func initMarks(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		if wg.Done(); work() != nil {
			return
		}
	}()
}

// shadowedPanic leaks: the local function named panic is not the builtin, so
// the path goes on to a return that skips the marker.
func shadowedPanic(wg *sync.WaitGroup) {
	wg.Add(1)
	panic := func(string) {}
	go func() { // want "exit path at line 137 returns without it"
		if err := work(); err != nil {
			panic("golden: not the builtin")
			return
		}
		wg.Done()
	}()
}

// switchWithoutDefault leaks: every arm marks, but no arm need be taken.
func switchWithoutDefault(wg *sync.WaitGroup, mode int) {
	wg.Add(1)
	go func() { // want "exit path at line 152 returns without it"
		switch mode {
		case 0:
			wg.Done()
			return
		}
	}()
}
