// Package errchecktest is golden-test input for the errcheck-devices
// checker.
package errchecktest

import "dstore/internal/pmem"

// discardExpr drops a fallible device call's error on the floor.
func discardExpr(d *pmem.Device) {
	d.CheckWriteFault(0, 64) // want "discarded error result from pmem.CheckWriteFault"
}

// discardBlank discards via blank assignment.
func discardBlank(d *pmem.Device, p []byte) {
	_ = d.CheckWriteFault(0, uint64(len(p))) // want "discarded \(blank\) error result from pmem.CheckWriteFault"
}

// unobservableDefer defers the call, making the result unobservable.
func unobservableDefer(d *pmem.Device) {
	defer d.CheckWriteFault(0, 64) // want "unobservable \(defer\) error result from pmem.CheckWriteFault"
}

// handled propagates the error; no finding.
func handled(d *pmem.Device, p []byte) error {
	return d.CheckWriteFault(0, uint64(len(p)))
}

// checked inspects the error; no finding.
func checked(d *pmem.Device) bool {
	if err := d.CheckWriteFault(0, 64); err != nil {
		return false
	}
	return true
}

// suppressed carries a same-line justification; no finding.
func suppressed(d *pmem.Device) {
	d.CheckWriteFault(0, 64) //nolint:errcheck // golden test: justified escape hatch
}

// infallible calls a device method with no error result; no finding.
func infallible(d *pmem.Device) {
	d.Persist(0, 64)
}

// carrier returns a device error one frame up: it is fallible by summary.
func carrier(d *pmem.Device, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	return d.CheckWriteFault(0, uint64(len(p)))
}

// discardCarrier drops the device error through the one hop.
func discardCarrier(d *pmem.Device, p []byte) {
	carrier(d, p) // want "discarded error result from errchecktest.carrier, which returns pmem.CheckWriteFault's"
}

// handledCarrier propagates it; no finding — and it is itself a carrier only
// of what it calls directly, so the summary stays one hop deep.
func handledCarrier(d *pmem.Device, p []byte) error {
	return carrier(d, p)
}

// secondHop drops a carrier-of-a-carrier's result: out of the summary's
// reach by design (the hop inside handledCarrier is where it is checked).
func secondHop(d *pmem.Device, p []byte) {
	handledCarrier(d, p)
}

// swallows calls a device API and handles the error itself, returning none;
// dropping nothing, its callers have nothing to check.
func swallows(d *pmem.Device) {
	if err := d.CheckWriteFault(0, 64); err != nil {
		return
	}
}

func callsSwallows(d *pmem.Device) {
	swallows(d)
}
