// Package btree implements the object index of DStore (paper §4.2: "For
// maintaining an index of objects in the system, we utilize a btree").
//
// The tree is a B+ tree that lives entirely inside an allocator-managed
// Arena: nodes and long keys are arena allocations and every link is a
// relative pointer. Exactly the same code therefore operates on the DRAM
// frontend copy and the PMEM shadow copy (DIPPER's same-code property, paper
// §3.5), and cloning the arena clones the tree.
//
// The tree maps variable-length object names (at most MaxKeyLen bytes) to a
// u64 value (DStore stores the metadata-zone slot index). It is not
// internally synchronized: DStore serializes structural access with a
// short-critical-section lock, and its checkpoint replay runs on a private
// shadow copy.
//
// Layout. A node is 496 bytes, which fills the allocator's 512-byte class: a
// leaf holds LeafCap (key reference, value) entries and the next-leaf link,
// an internal node LeafCap key references and LeafCap+1 children. A key
// reference is 24 bytes: the key's first 16 bytes, zero-padded, then a word
// holding the key's length in its top byte and, for a key longer than 16
// bytes only, the arena offset of a full copy. A search reads each node with
// one Slice and compares in place: the heads compare as two big-endian u64s
// and unequal heads decide. With equal heads, if either key fits in 16 bytes
// the shorter is a prefix of the longer and the lengths decide; only two
// longer keys sharing a head compare against the arena copy. Both node shapes
// are binary-searched. This is the "poor man's normalized key" of Graefe,
// Modern B-Tree Techniques (2011). The paper's Table 3 puts the B-tree step
// at ~300 ns; the benchmark's btree.get_ns probe (a DRAM tree of the
// workload's 14-byte keys, 2-core x86 host) measures 0.27–0.36 µs, against
// 0.53–0.88 µs when every comparison followed a pointer to a separately
// allocated key.
//
// Insert splits every full node it passes on the way down (CLRS B-Tree-
// Insert), and a split takes its allocations before its first store, so an
// insert that runs out of arena leaves a valid tree holding the keys it held.
// Deletion removes leaf entries in place without rebalancing; underfull (or
// empty) leaves are absorbed by later inserts. This keeps replay code
// identical and simple; the paper does not depend on delete rebalancing.
package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"dstore/internal/alloc"
	"dstore/internal/space"
)

const (
	// LeafCap is the number of keys either node shape holds; an internal
	// node has LeafCap+1 children.
	LeafCap = 15
	// MaxKeyLen is the longest key Insert accepts: a reference keeps the
	// length in one byte.
	MaxKeyLen = 255

	flagLeaf = 1

	nodeFlags = 0 // u8
	nodeNKeys = 2 // u16
	nodeBody  = 8

	// A key reference: the head, then the length/offset word.
	headLen = 16
	refWord = headLen
	refSize = headLen + 8
	offMask = 1<<56 - 1

	// Leaf node: (reference, val u64) x LeafCap, then next u64.
	leafStride  = refSize + 8
	leafEntries = nodeBody
	leafNext    = leafEntries + leafStride*LeafCap

	// Internal node: references[LeafCap], then children[LeafCap+1] u64.
	intKeys     = nodeBody
	intChildren = intKeys + refSize*LeafCap

	// nodeSize is both shapes' size: leafNext+8 == intChildren+8*(LeafCap+1).
	nodeSize = leafNext + 8

	// Tree header block.
	hdrRoot  = 0
	hdrCount = 8
	hdrSize  = 16
)

var le = binary.LittleEndian

// Tree is a B+ tree handle. The zero value is invalid; use New or Open.
type Tree struct {
	al  *alloc.Allocator
	sp  *space.Arena
	hdr uint64
}

// New allocates an empty tree in al's arena and returns it along with the
// header offset to persist (e.g. in an allocator root slot).
func New(al *alloc.Allocator) (*Tree, uint64, error) {
	hdr, err := al.Alloc(hdrSize)
	if err != nil {
		return nil, 0, err
	}
	leaf, err := al.Alloc(nodeSize)
	if err != nil {
		return nil, 0, err
	}
	sp := al.Space()
	sp.PutU8(leaf+nodeFlags, flagLeaf)
	sp.PutU64(hdr+hdrRoot, leaf)
	sp.PutU64(hdr+hdrCount, 0)
	return &Tree{al: al, sp: sp, hdr: hdr}, hdr, nil
}

// Open attaches to an existing tree given its header offset.
func Open(al *alloc.Allocator, hdr uint64) *Tree {
	return &Tree{al: al, sp: al.Space(), hdr: hdr}
}

// Decoders over a node's bytes, as one Slice returned them.
func isLeaf(b []byte) bool         { return b[nodeFlags]&flagLeaf != 0 }
func nkeys(b []byte) int           { return int(le.Uint16(b[nodeNKeys:])) }
func child(b []byte, i int) uint64 { return le.Uint64(b[intChildren+8*i:]) }
func leafEntry(i int) int          { return leafEntries + leafStride*i }

func (t *Tree) node(n uint64) []byte     { return t.sp.Slice(n, nodeSize) }
func (t *Tree) setNKeys(n uint64, k int) { t.sp.PutU16(n+nodeNKeys, uint16(k)) }

// Len returns the number of live keys.
func (t *Tree) Len() uint64 { return t.sp.GetU64(t.hdr + hdrCount) }

func (t *Tree) root() uint64      { return t.sp.GetU64(t.hdr + hdrRoot) }
func (t *Tree) setRoot(r uint64)  { t.sp.PutU64(t.hdr+hdrRoot, r) }
func (t *Tree) bumpCount(d int64) { t.sp.PutU64(t.hdr+hdrCount, uint64(int64(t.Len())+d)) }

// probe is a search key with its head decoded once.
type probe struct {
	key    []byte
	hi, lo uint64
}

func newProbe(key []byte) probe {
	var h [headLen]byte
	copy(h[:], key)
	return probe{key, binary.BigEndian.Uint64(h[:8]), binary.BigEndian.Uint64(h[8:])}
}

// cmpRef orders the key referenced at b[r:] against p's (see the package
// comment for the rule).
func (t *Tree) cmpRef(b []byte, r int, p *probe) int {
	if c := cmp.Compare(binary.BigEndian.Uint64(b[r:]), p.hi); c != 0 {
		return c
	}
	if c := cmp.Compare(binary.BigEndian.Uint64(b[r+8:]), p.lo); c != 0 {
		return c
	}
	w := le.Uint64(b[r+refWord:])
	if n := int(w >> 56); n <= headLen || len(p.key) <= headLen {
		return cmp.Compare(n, len(p.key))
	}
	return bytes.Compare(t.sp.Slice(w&offMask, w>>56), p.key)
}

// search binary-searches the k references of b that start at base, stride
// bytes apart: i is the first whose key is >= p's, eq whether it is equal.
func (t *Tree) search(b []byte, base, stride, k int, p *probe) (i int, eq bool) {
	lo, hi := 0, k
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := t.cmpRef(b, base+stride*mid, p); {
		case c == 0:
			return mid, true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// childIndex returns the child of internal node b to descend into for p: a
// separator equal to the key sends it right.
func (t *Tree) childIndex(b []byte, p *probe) int {
	i, eq := t.search(b, intKeys, refSize, nkeys(b), p)
	if eq {
		i++
	}
	return i
}

// leaf returns the leaf whose range holds p's key, and its bytes.
func (t *Tree) leaf(p *probe) (uint64, []byte) {
	n := t.root()
	b := t.node(n)
	for !isLeaf(b) {
		n = child(b, t.childIndex(b, p))
		b = t.node(n)
	}
	return n, b
}

// key returns the key referenced at b[r:], aliasing arena memory.
func (t *Tree) key(b []byte, r int) []byte {
	w := le.Uint64(b[r+refWord:])
	if n := int(w >> 56); n <= headLen {
		return b[r : r+n : r+n]
	}
	return t.sp.Slice(w&offMask, w>>56)
}

// newRef lays a reference to key down in the zeroed dst, first copying a key
// longer than its head into the arena.
func (t *Tree) newRef(dst, key []byte) error {
	var off uint64
	if len(key) > headLen {
		var err error
		if off, err = t.al.Alloc(uint64(len(key))); err != nil {
			return err
		}
		t.sp.Write(off, key)
	}
	copy(dst[:headLen], key)
	le.PutUint64(dst[refWord:], uint64(len(key))<<56|off)
	return nil
}

// Get returns the value for key, if present.
func (t *Tree) Get(key []byte) (uint64, bool) {
	p := newProbe(key)
	_, b := t.leaf(&p)
	i, ok := t.search(b, leafEntries, leafStride, nkeys(b), &p)
	if !ok {
		return 0, false
	}
	return le.Uint64(b[leafEntry(i)+refSize:]), true
}

// Insert sets key to val, returning the previous value if the key existed.
// On error the tree holds exactly the keys and values it held before.
func (t *Tree) Insert(key []byte, val uint64) (old uint64, replaced bool, err error) {
	if len(key) > MaxKeyLen {
		return 0, false, fmt.Errorf("btree: key of %d bytes exceeds %d", len(key), MaxKeyLen)
	}
	p := newProbe(key)
	n := t.root()
	b := t.node(n)
	if nkeys(b) == LeafCap {
		// Grow by one level: a new root takes the full one as its only
		// child and splits it.
		nr, err := t.al.Alloc(nodeSize)
		if err != nil {
			return 0, false, err
		}
		t.sp.PutU64(nr+intChildren, n)
		nb := t.node(nr)
		if err := t.split(nr, nb, 0, n, b); err != nil {
			return 0, false, errors.Join(err, t.al.Free(nr))
		}
		t.setRoot(nr)
		n, b = nr, nb
	}
	for !isLeaf(b) {
		ci := t.childIndex(b, &p)
		c := child(b, ci)
		cb := t.node(c)
		if nkeys(cb) < LeafCap {
			n, b = c, cb
			continue
		}
		// b aliases n, so the next round sees the new separator.
		if err := t.split(n, b, ci, c, cb); err != nil {
			return 0, false, err
		}
	}
	i, eq := t.search(b, leafEntries, leafStride, nkeys(b), &p)
	v := uint64(leafEntry(i) + refSize)
	if eq {
		old = le.Uint64(b[v:])
		t.sp.PutU64(n+v, val)
		return old, true, nil
	}
	var e [leafStride]byte
	if err := t.newRef(e[:], key); err != nil {
		return 0, false, err
	}
	le.PutUint64(e[refSize:], val)
	k := nkeys(b)
	t.write(n, leafEntry(i), e[:], b[leafEntry(i):leafEntry(k)])
	t.setNKeys(n, k+1)
	t.bumpCount(1)
	return 0, false, nil
}

// write lays head and then tail down at offset at of node n with one Write.
func (t *Tree) write(n uint64, at int, head, tail []byte) {
	var stage [nodeSize]byte
	m := copy(stage[:], head)
	m += copy(stage[m:], tail)
	if m > 0 {
		t.sp.Write(n+uint64(at), stage[:m])
	}
}

// split divides the full node c (bytes cb), child ci of the internal node n
// (bytes b, not full), between c and a new right sibling and enters the
// separator between them into n. It takes its allocations before its first
// store, so an exhausted arena leaves the tree as it was.
func (t *Tree) split(n uint64, b []byte, ci int, c uint64, cb []byte) error {
	const mid = LeafCap / 2
	right, err := t.al.Alloc(nodeSize)
	if err != nil {
		return err
	}
	var sep [refSize]byte
	var stage [nodeSize]byte // the right node, then n's shifted span
	rb := stage[:]
	rk := LeafCap - mid - 1
	if isLeaf(cb) {
		// The right half keeps the middle entry; the separator is a copy of
		// its key, owned by n so that a leaf delete never dangles it.
		rk++
		rb[nodeFlags] = flagLeaf
		copy(rb[leafEntries:], cb[leafEntry(mid):leafEntry(LeafCap)])
		copy(rb[leafNext:], cb[leafNext:leafNext+8])
		if err := t.newRef(sep[:], t.key(cb, leafEntry(mid))); err != nil {
			return errors.Join(err, t.al.Free(right))
		}
	} else {
		// The middle reference, and the arena copy it owns, moves up.
		copy(sep[:], cb[intKeys+refSize*mid:])
		copy(rb[intKeys:], cb[intKeys+refSize*(mid+1):intChildren])
		copy(rb[intChildren:], cb[intChildren+8*(mid+1):nodeSize])
	}
	le.PutUint16(rb[nodeNKeys:], uint16(rk))
	t.sp.Write(right, rb)
	t.setNKeys(c, mid)
	if isLeaf(cb) {
		t.sp.PutU64(c+leafNext, right)
	}

	// Enter (sep, right) into n at ci: references [ci, k) and children
	// [ci+1, k+1) move up one, staged from reference ci through child k+1.
	k := nkeys(b)
	lo, hi := intKeys+refSize*ci, intChildren+8*(k+2)
	s := stage[:hi-lo]
	copy(s, b[lo:hi])
	copy(s[refSize:], b[lo:intKeys+refSize*k])
	copy(s, sep[:])
	at := intChildren + 8*(ci+1)
	copy(s[at-lo+8:], b[at:intChildren+8*(k+1)])
	le.PutUint64(s[at-lo:], right)
	t.sp.Write(n+uint64(lo), s)
	t.setNKeys(n, k+1)
	return nil
}

// Delete removes key, returning its value. Leaf entries are removed without
// rebalancing. A non-nil error means the key's arena storage did not free
// cleanly (corrupt block header) — the index entry is still removed.
func (t *Tree) Delete(key []byte) (uint64, bool, error) {
	p := newProbe(key)
	n, b := t.leaf(&p)
	k := nkeys(b)
	i, ok := t.search(b, leafEntries, leafStride, k, &p)
	if !ok {
		return 0, false, nil
	}
	r := leafEntry(i)
	val := le.Uint64(b[r+refSize:])
	var err error
	if w := le.Uint64(b[r+refWord:]); w>>56 > headLen {
		err = t.al.Free(w & offMask)
	}
	t.write(n, r, nil, b[r+leafStride:leafEntry(k)])
	t.setNKeys(n, k-1)
	t.bumpCount(-1)
	return val, true, err
}

// Iterate calls fn for every (key, value) in ascending key order. fn's key
// slice aliases arena memory; copy it to retain it. Iteration stops early if
// fn returns a non-nil error, which Iterate returns.
func (t *Tree) Iterate(fn func(key []byte, val uint64) error) error {
	n := t.root()
	for b := t.node(n); !isLeaf(b); b = t.node(n) {
		n = child(b, 0)
	}
	return t.iterateLeaves(n, 0, nil, fn)
}

// IterateFrom calls fn for every (key, value) with key >= start, in
// ascending order. Same aliasing and early-stop rules as Iterate.
func (t *Tree) IterateFrom(start []byte, fn func(key []byte, val uint64) error) error {
	p := newProbe(start)
	n, b := t.leaf(&p)
	pos, _ := t.search(b, leafEntries, leafStride, nkeys(b), &p)
	return t.iterateLeaves(n, pos, start, fn)
}

// iterateLeaves walks the leaf chain from (n, pos). start guards against
// lazily-deleted leaves that may still hold smaller keys further down the
// chain (deletion does not rebalance).
func (t *Tree) iterateLeaves(n uint64, pos int, start []byte, fn func(key []byte, val uint64) error) error {
	for n != 0 {
		b := t.node(n)
		for i, k := pos, nkeys(b); i < k; i++ {
			key := t.key(b, leafEntry(i))
			if start != nil && bytes.Compare(key, start) < 0 {
				continue
			}
			if err := fn(key, le.Uint64(b[leafEntry(i)+refSize:])); err != nil {
				return err
			}
		}
		n = le.Uint64(b[leafNext:])
		pos = 0
	}
	return nil
}

// Check validates structural invariants (ordering, fanout bounds, leaf links)
// and returns an error describing the first violation. Used by tests and the
// recovery verifier.
func (t *Tree) Check() error {
	var prev []byte
	seen := uint64(0)
	err := t.Iterate(func(key []byte, _ uint64) error {
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			return fmt.Errorf("btree: keys out of order: %q !< %q", prev, key)
		}
		prev = append(prev[:0], key...)
		seen++
		return nil
	})
	if err != nil {
		return err
	}
	if seen != t.Len() {
		return fmt.Errorf("btree: count %d != iterated %d", t.Len(), seen)
	}
	return t.checkNode(t.root(), 0)
}

func (t *Tree) checkNode(n uint64, depth int) error {
	if depth > 64 {
		return fmt.Errorf("btree: depth exceeds 64 (cycle?)")
	}
	b := t.node(n)
	k := nkeys(b)
	if isLeaf(b) {
		if k > LeafCap {
			return fmt.Errorf("btree: leaf overflow: %d", k)
		}
		return nil
	}
	if k < 1 || k > LeafCap {
		return fmt.Errorf("btree: internal node fanout %d out of range", k)
	}
	for i := 0; i <= k; i++ {
		if err := t.checkNode(child(b, i), depth+1); err != nil {
			return err
		}
	}
	return nil
}
