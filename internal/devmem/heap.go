//go:build !linux || race

package devmem

// OffHeap is false here: images are ordinary heap slices, and a released one
// is left to the collector rather than kept as a spare. Off Linux there is no
// mapping; under the race detector, which checks only heap and data
// addresses, a mapping would hide every access to device bytes from it.
const OffHeap = false

// mapBytes allocates n zeroed bytes on the heap and touches every page.
func mapBytes(n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 4096 {
		b[i] = 0
	}
	return b
}

func unmapBytes([]byte) {} // heap images never become spares
