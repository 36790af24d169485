//go:build race

package dstore

// raceEnabled lets the few tests whose cost is their iteration count scale it
// down under the race detector.
const raceEnabled = true
