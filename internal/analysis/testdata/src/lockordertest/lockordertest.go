// Package lockordertest is golden-test input for the lock-order checker:
// cyclic acquisition orders, re-entrant locking, and blocking operations
// under a held mutex, plus negative cases that must stay silent.
package lockordertest

import (
	"sync"
	"time"
)

// pair has two mutexes acquired in conflicting orders across its methods.
type pair struct {
	mu1 sync.Mutex
	mu2 sync.Mutex
}

func (p *pair) forward() {
	p.mu1.Lock()
	defer p.mu1.Unlock()
	p.mu2.Lock() // want "lock-order cycle"
	defer p.mu2.Unlock()
}

func (p *pair) backward() {
	p.mu2.Lock()
	defer p.mu2.Unlock()
	p.mu1.Lock() // want "lock-order cycle"
	defer p.mu1.Unlock()
}

// indirect has the same conflict, but one direction goes through a callee:
// the acquisition graph must follow call summaries.
type indirect struct {
	muA sync.Mutex
	muB sync.Mutex
}

func (x *indirect) lockB() {
	x.muB.Lock()
	defer x.muB.Unlock()
}

func (x *indirect) viaCall() {
	x.muA.Lock()
	defer x.muA.Unlock()
	x.lockB() // want "lock-order cycle"
}

func (x *indirect) direct() {
	x.muB.Lock()
	defer x.muB.Unlock()
	x.muA.Lock() // want "lock-order cycle"
	defer x.muA.Unlock()
}

// single exercises the non-reentrancy and blocking-op rules.
type single struct {
	mu    sync.Mutex
	wg    sync.WaitGroup
	zones [4]sync.Mutex
	ch    chan int
}

func (s *single) reacquire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu.Lock() // want "not reentrant"
	defer s.mu.Unlock()
}

func (s *single) stripes(i, j int) {
	// Distinct elements of a mutex array are distinct locks: exempt.
	s.zones[i].Lock()
	defer s.zones[i].Unlock()
	s.zones[j].Lock()
	defer s.zones[j].Unlock()
}

func (s *single) sendUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 // want "channel send while holding single.mu"
}

func (s *single) recvUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want "channel receive while holding single.mu"
}

func (s *single) waitUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait() // want "WaitGroup.Wait while holding single.mu"
}

func (s *single) sleepUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding single.mu"
}

func (s *single) selectUnderLock(done chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select without default while holding single.mu"
	case <-done:
	case s.ch <- 1:
	}
}

func (s *single) rangeUnderLock() (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want "range over channel while holding single.mu"
		n += v
	}
	return n
}

// Negative cases: all silent.

func (s *single) sendAfterUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1 // released first: fine
}

func (s *single) nonBlockingSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
	default: // non-blocking: fine
	}
}

func (s *single) branchRelease(fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		s.ch <- 1 // released on this path: fine
		return
	}
	s.mu.Unlock()
}

func (s *single) spawnedNotHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1 // the goroutine does not inherit the lock: fine
	}()
}

func (s *single) suppressed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 2 //nolint:lock-order // deliberate: capacity-1 signal channel
}

// initLocks takes the lock in the if's init statement, which runs on every
// path before the condition.
func (s *single) initLocks(fast bool) {
	if s.mu.Lock(); fast {
		s.ch <- 1 // want "channel send while holding single.mu"
	}
	s.mu.Unlock()
}

// shadowedPanic calls a local function named panic: not the builtin, so
// execution continues past it with the lock still held.
func (s *single) shadowedPanic() {
	panic := func(string) {}
	s.mu.Lock()
	if s.ch == nil {
		panic("golden: not the builtin")
		s.ch <- 1 // want "channel send while holding single.mu"
	}
	s.mu.Unlock()
}

// breakReleased: the path that unlocks and breaks leaves the loop; it does
// not run on into the send below it.
func (s *single) breakReleased(n int) {
	for i := 0; i < n; i++ {
		s.mu.Lock()
		if i == 3 {
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		s.ch <- 1 // released on every path that gets here: fine
	}
}
