//go:build linux && !race

package devmem

import "syscall"

// OffHeap reports that images are anonymous mappings outside the Go heap.
const OffHeap = true

// mapBytes maps n zeroed bytes, populated now. Failing, the process is out of
// memory, where make would end it too: New keeps make's contract and panics.
//
//dstore:invariant
func mapBytes(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_POPULATE)
	if err != nil {
		panic("devmem: mmap: " + err.Error())
	}
	return b
}

// unmapBytes unmaps what mapBytes returned; a failure is a bug.
//
//dstore:invariant
func unmapBytes(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("devmem: munmap: " + err.Error())
	}
}
