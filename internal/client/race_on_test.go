//go:build race

package client_test

// raceEnabled: under the race detector sync.Pool drops a quarter of what it
// is given, so allocation counts say nothing.
const raceEnabled = true
