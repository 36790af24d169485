package dstore

import (
	"fmt"
	"strings"
)

// ObjectInfo describes one object during a Scan.
type ObjectInfo struct {
	// Name is the object's full name.
	Name string
	// Size is its current logical size in bytes.
	Size uint64
	// Blocks is the number of SSD blocks it occupies.
	Blocks int
}

// Scan calls fn for every object whose name starts with prefix, in ascending
// name order, until fn returns false or the namespace is exhausted. An empty
// prefix scans every object.
//
// Scan reads the index under a shared lock, so it serializes briefly with
// metadata updates; object data is not touched. Objects created or deleted
// concurrently with the scan may or may not be observed (standard snapshot-
// free iterator semantics). The filesystem-style namespace of the paper
// ("dependencies between a file and its directory", §4.5) makes ordered
// prefix scans the natural directory-listing primitive.
func (c *Ctx) Scan(prefix string, fn func(info ObjectInfo) bool) error {
	s := c.s
	if s == nil || s.closed.Load() {
		return ErrClosed
	}
	s.treeMu.RLock()
	defer s.treeMu.RUnlock()

	stop := errStopScan
	err := s.front.tree.IterateFrom([]byte(prefix), func(key []byte, slot uint64) error {
		if !strings.HasPrefix(string(key), prefix) {
			return stop // keys are ordered: past the prefix range
		}
		if len(key) > 0 && key[0] == 0 {
			return nil // reserved transaction objects are not user-visible
		}
		e, used, err := s.zoneRead(slot, nil)
		if err != nil {
			return err
		}
		if !used {
			return errCorruptIndex
		}
		if !fn(ObjectInfo{Name: string(key), Size: e.Size, Blocks: len(e.Blocks)}) {
			return stop
		}
		return nil
	})
	if err == stop { //nolint:errorlint // sentinel identity
		return nil
	}
	return err
}

// reservedNames lists the reserved-namespace ('\x00'-prefixed) objects whose
// name starts with prefix, in ascending order. OpenSharded's transaction
// resolution uses it (txnshard.go); the public Scan never shows these.
func (s *Store) reservedNames(prefix string) ([]string, error) {
	s.treeMu.RLock()
	defer s.treeMu.RUnlock()
	var names []string
	err := s.front.tree.IterateFrom([]byte(prefix), func(key []byte, slot uint64) error {
		if !strings.HasPrefix(string(key), prefix) {
			return errStopScan
		}
		names = append(names, string(key))
		return nil
	})
	if err == errStopScan { //nolint:errorlint // sentinel identity
		err = nil
	}
	return names, err
}

// Count returns the number of live objects.
func (s *Store) Count() uint64 {
	s.treeMu.RLock()
	defer s.treeMu.RUnlock()
	return s.front.tree.Len()
}

// userCount returns the number of live user-visible objects: Count minus the
// reserved ('\x00'-prefixed) namespace. Sharded aggregates use it so ring
// metadata and transaction bookkeeping never show up as stored keys.
// Reserved names sort before every valid user name, so the subtraction walks
// only the reserved prefix.
func (s *Store) userCount() uint64 {
	s.treeMu.RLock()
	defer s.treeMu.RUnlock()
	n := s.front.tree.Len()
	var reserved uint64
	err := s.front.tree.IterateFrom([]byte{0}, func(key []byte, _ uint64) error {
		if len(key) == 0 || key[0] != 0 {
			return errStopScan
		}
		reserved++
		return nil
	})
	if err != nil && err != errStopScan { //nolint:errorlint // sentinel identity
		return n
	}
	return n - reserved
}

var (
	errStopScan = &scanSentinel{"stop"}
	// errCorruptIndex wraps ErrCorrupt so callers can classify an index that
	// points at a free metadata slot with errors.Is(err, ErrCorrupt) — and so
	// the network backend maps it onto StatusCorrupt instead of a generic
	// internal error.
	errCorruptIndex = fmt.Errorf("%w: index entry points at free slot", ErrCorrupt)
)

type scanSentinel struct{ msg string }

func (e *scanSentinel) Error() string { return e.msg }
