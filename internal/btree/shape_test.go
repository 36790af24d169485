package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dstore/internal/alloc"
	"dstore/internal/pmem"
	"dstore/internal/space"
)

// modelTree runs an insert/replace/delete stream on a tree and on a sorted
// model of it, checking Get and Len after every step.
type modelTree struct {
	tb testing.TB
	tr *Tree
	m  map[string]uint64
}

func newModelTree(tb testing.TB, sp *space.Arena) *modelTree {
	tr, _, err := New(alloc.Format(sp))
	if err != nil {
		tb.Fatal(err)
	}
	return &modelTree{tb: tb, tr: tr, m: map[string]uint64{}}
}

func (c *modelTree) step(del bool, key []byte, val uint64) {
	c.tb.Helper()
	want, had := c.m[string(key)]
	if del {
		got, ok, err := c.tr.Delete(key)
		if err != nil || ok != had || got != want {
			c.tb.Fatalf("Delete(%q) = %d, %v, %v; model %d, %v", key, got, ok, err, want, had)
		}
		delete(c.m, string(key))
	} else {
		old, replaced, err := c.tr.Insert(key, val)
		if err != nil || replaced != had || old != want {
			c.tb.Fatalf("Insert(%q) = %d, %v, %v; model %d, %v", key, old, replaced, err, want, had)
		}
		c.m[string(key)] = val
	}
	if got, ok := c.tr.Get(key); ok == del || (!del && got != val) {
		c.tb.Fatalf("Get(%q) = %d, %v after %s", key, got, ok, map[bool]string{true: "delete", false: "insert"}[del])
	}
	if c.tr.Len() != uint64(len(c.m)) {
		c.tb.Fatalf("Len = %d, model %d", c.tr.Len(), len(c.m))
	}
}

// final checks Iterate, Check, and IterateFrom from every model key and from
// bounds between keys, against the model.
func (c *modelTree) final() {
	c.tb.Helper()
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if err := c.tr.Check(); err != nil {
		c.tb.Fatal(err)
	}
	from := func(start []byte, all bool) {
		c.tb.Helper()
		i, _ := slices.BinarySearch(keys, string(start))
		var got []string
		fn := func(k []byte, v uint64) error {
			if c.m[string(k)] != v {
				return fmt.Errorf("%q maps to %d, model %d", k, v, c.m[string(k)])
			}
			got = append(got, string(k))
			return nil
		}
		var err error
		if all {
			i, err = 0, c.tr.Iterate(fn)
		} else {
			err = c.tr.IterateFrom(start, fn)
		}
		if err != nil || !slices.Equal(got, keys[i:]) {
			c.tb.Fatalf("iterate from %q (all=%v): %d keys, want %d: %v", start, all, len(got), len(keys)-i, err)
		}
	}
	from(nil, true)
	from([]byte{}, false)
	from(bytes.Repeat([]byte{0xff}, 65), false)
	for _, k := range keys {
		from([]byte(k), false)
		from([]byte(k+"\x00"), false) // between k and its successor
		if k != "" {
			from([]byte(k[:len(k)-1]), false)
		}
	}
}

// shapedKey draws a 0–64-byte key that exercises every branch of the head
// rule; r(n) returns a draw in [0, n).
func shapedKey(r func(n int) int) []byte {
	const head = "0123456789abcdef" // exactly one head long
	tail := func(max int) []byte {
		b := make([]byte, r(max+1))
		for i := range b {
			b[i] = "\x00ab\xff"[r(4)]
		}
		return b
	}
	switch r(6) {
	case 0: // short keys over a tiny alphabet, trailing zeros included
		return tail(16)
	case 1: // longer than a head, all sharing one head
		return append([]byte(head), tail(48)...)
	case 2: // a head-length key, user or reserved, and it plus "\x00"s
		return append([]byte([]string{head, "\x00txn/0123456789a"}[r(2)]), make([]byte, r(3))...)
	case 3: // "a", "a\x00", "a\x00\x00"
		return append([]byte("a"), make([]byte, r(3))...)
	case 4: // '\x00'-prefixed reserved names, short and long
		return append([]byte("\x00txn/"), tail(24)...)
	default:
		return fmt.Appendf(nil, "user%010d", r(64))
	}
}

func TestKeyShapesAgainstModel(t *testing.T) {
	const size = 4 << 20
	spaces := map[string]func() *space.Arena{
		"dram": func() *space.Arena { return space.NewDRAM(size) },
		"pmem": func() *space.Arena { return &space.MustPMEM(pmem.New(pmem.Config{Size: size}), 0, size).Arena },
	}
	for name, sp := range spaces {
		t.Run(name, func(t *testing.T) {
			c := newModelTree(t, sp())
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 6000; i++ {
				c.step(rng.Intn(3) == 0, shapedKey(rng.Intn), uint64(i))
			}
			c.final()
		})
	}
}

// FuzzTreeOps runs the model check over streams decoded from the input: per
// op, one byte picks insert or delete and the next ones shape the key.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte("\x01\x00\x05\x01\x01\x03\x02\x00\x01\x02\x00\x02\x00\x02\x01"))
	f.Add(bytes.Repeat([]byte{1, 1, 40, 0, 3, 2}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		r := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		c := newModelTree(t, space.NewDRAM(1<<20))
		for i := 0; len(data) > 0; i++ {
			del := r(3) == 0
			c.step(del, shapedKey(r), uint64(i))
		}
		c.final()
	})
}

// An insert that runs out of arena must leave a valid tree. Each round
// builds a tree of n 23-byte keys, leaves the arena one 64-byte block (a key
// copy) and one 512-byte block (a node), and inserts one key more: it either
// succeeds or errors with the tree exactly as it was. Splitting the full leaf
// of n = 16 used to take the new key's copy and the right leaf, fail on the
// separator's copy and leave the right leaf without a parent entry.
func TestInsertOutOfArenaLeavesValidTree(t *testing.T) {
	key := func(i int) []byte { return fmt.Appendf(nil, "split-failure-key-%05d", i) }
	failed := 0
	for n := 1; n <= 48; n++ {
		al := alloc.Format(space.NewDRAM(alloc.HeaderSize + 64<<10))
		tr, _, err := New(al)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, _, err := tr.Insert(key(i), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		keyBlock, err := al.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		var nodeBlock uint64
		for off, err := al.Alloc(500); err == nil; off, err = al.Alloc(500) {
			nodeBlock = off
		}
		for _, err := al.Alloc(1); err == nil; _, err = al.Alloc(1) {
		}
		if nodeBlock == 0 || al.Free(keyBlock) != nil || al.Free(nodeBlock) != nil {
			t.Fatalf("n=%d: could not leave one key block and one node block", n)
		}

		if _, _, err := tr.Insert(key(n), uint64(n)); err == nil {
			continue
		}
		failed++
		if err := tr.Check(); err != nil {
			t.Fatalf("n=%d: after the failed insert: %v", n, err)
		}
		if tr.Len() != uint64(n) {
			t.Fatalf("n=%d: Len = %d after the failed insert", n, tr.Len())
		}
		lost := 0
		for i := 0; i < n; i++ {
			if v, ok := tr.Get(key(i)); !ok || v != uint64(i) {
				lost++
			}
		}
		if lost > 0 {
			t.Fatalf("n=%d: %d of %d earlier keys unreachable after the failed insert", n, lost, n)
		}
		if _, ok := tr.Get(key(n)); ok {
			t.Fatalf("n=%d: the failed key is present", n)
		}
	}
	if failed == 0 {
		t.Fatal("no insert ran out of arena; the test no longer reaches a split")
	}
}

func TestInsertRejectsKeyOverMaxLen(t *testing.T) {
	tr := newTree(t, 1<<20)
	if _, _, err := tr.Insert(make([]byte, 256), 1); err == nil {
		t.Fatal("a 256-byte key was accepted")
	}
	if _, _, err := tr.Insert(make([]byte, 255), 1); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Get(make([]byte, 255)); !ok || v != 1 || tr.Len() != 1 {
		t.Fatalf("255-byte key: %d, %v, len %d", v, ok, tr.Len())
	}
}
