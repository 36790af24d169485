// Package channeldisctest is golden-test input for the channel-discipline
// checker: close ownership (locals, send-only parameters, receiver fields,
// foreign fields) and use-after-close on a path.
package channeldisctest

import (
	"dstore/internal/analysis/testdata/src/channeldisctest/chanown"
)

// closeLocal owns the channel it made: fine.
func closeLocal() {
	ch := make(chan int)
	close(ch)
}

// closeSendOnlyParam is fine: the `chan<- T` signature documents that the
// callee is the sending side and may close.
func closeSendOnlyParam(out chan<- int) {
	out <- 1
	close(out)
}

// closeBidirParam closes a channel whose ownership the signature leaves
// ambiguous.
func closeBidirParam(ch chan int) {
	close(ch) // want "bidirectional channel parameter"
}

type owner struct {
	done chan struct{}
}

// closeOwnField is fine: a method may close its own type's channel.
func (o *owner) closeOwnField() {
	close(o.done)
}

// closeForeignField reaches into another package's type.
func closeForeignField(f *chanown.Feed) {
	close(f.Ch) // want "outside its declaring package"
}

// closureClosesEnclosing is fine: the closure closes its enclosing
// function's local, which is still the owning side.
func closureClosesEnclosing() func() {
	ch := make(chan int)
	return func() { close(ch) }
}

// doubleClose closes the same channel twice on one path.
func doubleClose() {
	ch := make(chan int)
	close(ch)
	close(ch) // want "second close of ch"
}

// sendAfterClose sends into a channel already closed on this path.
func sendAfterClose() {
	ch := make(chan int, 1)
	close(ch)
	ch <- 1 // want "send on ch after close"
}

// branchClose: the close happens on one branch, and the send runs after the
// join — reachable panic.
func branchClose(cond bool) {
	ch := make(chan int, 1)
	if cond {
		close(ch)
	}
	ch <- 1 // want "send on ch after close"
}

// remadeChannel is fine: reassignment clears the closed state.
func remadeChannel() {
	ch := make(chan int, 1)
	close(ch)
	ch = make(chan int, 1)
	ch <- 1
}

// closedBranchReturns is fine: the closing branch leaves the function, so
// the send is unreachable after a close.
func closedBranchReturns(cond bool) {
	ch := make(chan int, 1)
	if cond {
		close(ch)
		return
	}
	ch <- 1
}

// deferredClose is fine: the deferred close runs at exit, after every send
// on the path.
func deferredClose() {
	ch := make(chan int, 1)
	defer close(ch)
	ch <- 1
}

// suppressed documents a deliberate exception.
func suppressed(ch chan int) {
	close(ch) //nolint:channel-discipline // handoff protocol: caller passed ownership
}

// initCloses carries the close in a switch's init statement, which runs on
// every path before the send.
func initCloses(mode int) {
	ch := make(chan int, 1)
	switch close(ch); mode {
	case 0:
	}
	ch <- 1 // want "send on ch after close"
}

// shadowedPanic calls a local function named panic: not the builtin, so the
// closing branch falls through to the send.
func shadowedPanic(cond bool) {
	panic := func(string) {}
	ch := make(chan int, 1)
	if cond {
		close(ch)
		panic("golden: not the builtin")
	}
	ch <- 1 // want "send on ch after close"
}

// closedBranchBreaks is fine: the closing branch leaves the loop, so the
// send below it is not reached after a close.
func closedBranchBreaks(n int) {
	ch := make(chan int, 1)
	for i := 0; i < n; i++ {
		if i == 3 {
			close(ch)
			break
		}
		ch <- 1
	}
}

// storedClosure: a function literal is a path of its own wherever it sits,
// not only under defer or go.
func storedClosure() func() {
	ch := make(chan int)
	return func() {
		close(ch)
		close(ch) // want "second close of ch"
	}
}
