package dstore

import (
	"errors"
	"fmt"
	"slices"
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
// Scan reads the index a chunk at a time, each chunk under one shared lock,
// and calls fn with no lock held, so fn may write to the store. Object data
// is not touched. Objects created or deleted concurrently with the scan may
// or may not be observed (standard snapshot-free iterator semantics); none is
// reported twice. The filesystem-style namespace of the paper ("dependencies
// between a file and its directory", §4.5) makes ordered prefix scans the
// natural directory-listing primitive. Reserved ('\x00'-prefixed) names
// never show, so a reserved prefix scans nothing.
func (c *Ctx) Scan(prefix string, fn func(info ObjectInfo) bool) error {
	return scan([]*Store{c.s}, prefix, func(_ int, name string) bool { return !strings.HasPrefix(name, "\x00") }, fn)
}

// scanChunk bounds one chunk read: enough entries that the lock round trip
// is spread over many callbacks, few enough that a writer waiting on the
// index lock waits out at most that many zone reads.
const scanChunk = 64

// chunk returns, in dst's room, up to scanChunk objects (reserved names
// too) whose name starts with prefix and sorts strictly after after ("" starts
// at the prefix), in ascending order, read under one shared index lock.
func (s *Store) chunk(dst []ObjectInfo, prefix, after string) ([]ObjectInfo, error) {
	if s == nil || s.closed.Load() {
		return nil, ErrClosed
	}
	start := prefix
	if after != "" {
		start = after + "\x00"
	}
	out := slices.Grow(dst[:0], scanChunk)
	var eb entryBuf // every entry's lists land here: only their length is kept
	s.treeMu.RLock()
	defer s.treeMu.RUnlock()
	err := s.front.tree.IterateFrom([]byte(start), func(key []byte, slot uint64) error {
		if len(out) == scanChunk || !strings.HasPrefix(string(key), prefix) {
			return errStopScan // full, or past the prefix range (keys are ordered)
		}
		e, used, err := s.zoneRead(slot, &eb)
		if err != nil {
			return err
		}
		if !used {
			return errCorruptIndex
		}
		out = append(out, ObjectInfo{Name: string(key), Size: e.Size, Blocks: len(e.Blocks)})
		return nil
	})
	if err == errStopScan { //nolint:errorlint // sentinel identity
		err = nil
	}
	return out, err
}

// scan calls fn, in ascending name order until it returns false, for every
// object under prefix on any of stores, except the names store i holds that
// own(i, name) disowns (nil owns all). Each store's cursor refills a chunk at
// a time into one buffer, and fn runs on the caller's goroutine with no lock
// held; n is the shard count, so a linear pick of the least head is the
// merge. Ties go to the lower store.
func scan(stores []*Store, prefix string, own func(i int, name string) bool, fn func(info ObjectInfo) bool) error {
	type cursor struct {
		mem   []ObjectInfo // the chunk buffer every refill reuses
		buf   []ObjectInfo // mem's entries not yet handed to fn
		after string
		done  bool
	}
	cs := make([]cursor, len(stores))
	for {
		least := -1
		for i := range cs {
			c := &cs[i]
			for len(c.buf) == 0 && !c.done {
				buf, err := stores[i].chunk(c.mem, prefix, c.after)
				if err != nil {
					return err
				}
				c.mem = buf
				if c.done = len(buf) < scanChunk; len(buf) > 0 {
					c.after = buf[len(buf)-1].Name
				}
				if own != nil {
					buf = slices.DeleteFunc(buf, func(o ObjectInfo) bool { return !own(i, o.Name) })
				}
				c.buf = buf
			}
			if len(c.buf) > 0 && (least < 0 || c.buf[0].Name < cs[least].buf[0].Name) {
				least = i
			}
		}
		if least < 0 {
			return nil
		}
		head := cs[least].buf[0]
		cs[least].buf = cs[least].buf[1:]
		if !fn(head) {
			return nil
		}
	}
}

// reservedNames lists the reserved-namespace ('\x00'-prefixed) objects whose
// name starts with prefix, in ascending order. OpenSharded's transaction
// resolution uses it (txnshard.go); the public Scan never shows these.
func (s *Store) reservedNames(prefix string) ([]string, error) {
	var names []string
	err := scan([]*Store{s}, prefix, nil, func(info ObjectInfo) bool {
		names = append(names, info.Name)
		return true
	})
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
	errStopScan = errors.New("stop scan")
	// errCorruptIndex wraps ErrCorrupt so callers can classify an index that
	// points at a free metadata slot with errors.Is(err, ErrCorrupt) — and so
	// the network backend maps it onto StatusCorrupt instead of a generic
	// internal error.
	errCorruptIndex = fmt.Errorf("%w: index entry points at free slot", ErrCorrupt)
)
