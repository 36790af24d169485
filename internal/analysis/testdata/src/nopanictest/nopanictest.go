// Package nopanictest is golden-test input for the no-panic-in-library
// checker.
package nopanictest

import "errors"

var errCorrupt = errors.New("nopanictest: corrupt")

// libraryPanic panics on a condition corrupt media could produce.
func libraryPanic(ok bool) {
	if !ok {
		panic("nopanictest: corrupt media") // want "panic in library code"
	}
}

// invariantGuard panics only on a programmer error: the index is a
// compile-time constant at every call site.
//
//dstore:invariant
func invariantGuard(idx int) {
	if idx < 0 || idx >= 4 {
		panic("nopanictest: index out of range")
	}
}

// typedError returns the condition as a typed error; no finding.
func typedError(ok bool) error {
	if !ok {
		return errCorrupt
	}
	return nil
}

// shadowedPanic calls a local function named panic: not the builtin, no
// finding.
func shadowedPanic(ok bool) {
	panic := func(string) {}
	if !ok {
		panic("nopanictest: not the builtin")
	}
}
