package ring

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"dstore/internal/ycsb"
)

// legacyShardIndex is the pre-ring routing (shard.go's shardIndex until the
// ring carried every store), kept here as the reference ModeModN is pinned
// against.
func legacyShardIndex(key string, n int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

func TestModNMatchesLegacyShardIndex(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		r := NewModN(n)
		if r.Epoch() != 0 || r.Mode() != ModeModN || r.Len() != n {
			t.Fatalf("NewModN(%d): epoch=%d mode=%d len=%d", n, r.Epoch(), r.Mode(), r.Len())
		}
		for i := 0; i < 1000; i++ {
			k := fmt.Sprintf("user%04d/object-%d", i, i*i)
			if got, want := r.Owner(k), uint32(legacyShardIndex(k, n)); got != want {
				t.Fatalf("n=%d key=%q: Owner=%d legacy=%d", n, k, got, want)
			}
		}
	}
}

func TestHashedDeterministicAndBalanced(t *testing.T) {
	r1, err := NewHashed(3, []Member{{ID: 0, Weight: 1}, {ID: 1, Weight: 1}, {ID: 2, Weight: 1}, {ID: 3, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewHashed(3, []Member{{ID: 3, Weight: 1}, {ID: 1, Weight: 1}, {ID: 0, Weight: 1}, {ID: 2, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[uint32]int)
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("key-%d", i)
		o := r1.Owner(k)
		if o2 := r2.Owner(k); o2 != o {
			t.Fatalf("member order changed placement: %d vs %d", o, o2)
		}
		counts[o]++
	}
	for id, c := range counts {
		// 4 members, 20000 keys: expect ~5000 each; vnode hashing should
		// keep everyone within a loose 2x band.
		if c < 2500 || c > 10000 {
			t.Fatalf("member %d owns %d of 20000 keys (badly imbalanced)", id, c)
		}
	}
}

func TestWeightSkewsPlacement(t *testing.T) {
	r, err := NewHashed(1, []Member{{ID: 0, Weight: 1}, {ID: 1, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[uint32]int)
	for i := 0; i < 20000; i++ {
		counts[r.Owner(fmt.Sprintf("k%d", i))]++
	}
	if counts[1] <= counts[0] {
		t.Fatalf("weight-3 member owns %d keys, weight-1 owns %d", counts[1], counts[0])
	}
}

func TestWithAddMovesKeysOnlyToNewMember(t *testing.T) {
	r, err := NewHashed(1, []Member{{ID: 0, Weight: 1}, {ID: 1, Weight: 1}, {ID: 2, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.WithAdd(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Epoch() != r.Epoch()+1 {
		t.Fatalf("epoch %d -> %d", r.Epoch(), r2.Epoch())
	}
	moved, total := 0, 20000
	for i := 0; i < total; i++ {
		k := fmt.Sprintf("key-%d", i)
		a, b := r.Owner(k), r2.Owner(k)
		if a != b {
			moved++
			if b != 3 {
				t.Fatalf("key %q moved %d -> %d, not to the new member", k, a, b)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new member")
	}
	if moved > total/2 {
		t.Fatalf("%d of %d keys moved; consistent hashing should move ~1/4", moved, total)
	}
}

func TestWithRemoveMovesKeysOnlyFromRemoved(t *testing.T) {
	r, err := NewHashed(5, []Member{{ID: 0, Weight: 1}, {ID: 1, Weight: 1}, {ID: 2, Weight: 1}, {ID: 3, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.WithRemove(2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Contains(2) {
		t.Fatal("removed member still present")
	}
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("key-%d", i)
		a, b := r.Owner(k), r2.Owner(k)
		if a != b && a != 2 {
			t.Fatalf("key %q moved %d -> %d though member 2 was removed", k, a, b)
		}
		if b == 2 {
			t.Fatalf("key %q still owned by removed member", k)
		}
	}
	if _, err := r2.WithRemove(2); err == nil {
		t.Fatal("removing a non-member should fail")
	}
	one, err := NewHashed(1, []Member{{ID: 0, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.WithRemove(0); err == nil {
		t.Fatal("removing the last member should fail")
	}
}

func TestModNAddConvertsToHashed(t *testing.T) {
	r := NewModN(2)
	r2, err := r.WithAdd(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Mode() != ModeHashed || r2.Epoch() != 1 || r2.Len() != 3 {
		t.Fatalf("mode=%d epoch=%d len=%d", r2.Mode(), r2.Epoch(), r2.Len())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rings := []*Ring{NewModN(1), NewModN(4)}
	h, err := NewHashed(7, []Member{{ID: 0, Weight: 2}, {ID: 3, Weight: 1}, {ID: 9, Weight: 5}})
	if err != nil {
		t.Fatal(err)
	}
	rings = append(rings, h)
	for _, r := range rings {
		enc := r.Encode()
		if !bytes.Equal(enc, r.Encode()) {
			t.Fatal("Encode is not deterministic")
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got.Epoch() != r.Epoch() || got.Mode() != r.Mode() || got.Len() != r.Len() {
			t.Fatalf("round-trip mismatch: %+v vs %+v", got, r)
		}
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("rt-%d", i)
			if got.Owner(k) != r.Owner(k) {
				t.Fatalf("round-trip changed placement of %q", k)
			}
		}
		if !bytes.Equal(got.Encode(), enc) {
			t.Fatal("re-encode differs")
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := NewModN(2).Encode()
	cases := map[string][]byte{
		"empty":        {},
		"short header": good[:5],
		"bad version":  append([]byte{99}, good[1:]...),
		"bad mode":     func() []byte { b := append([]byte(nil), good...); b[1] = 7; return b }(),
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte(nil), good...), 0),
		"zero count": func() []byte {
			b := append([]byte(nil), good[:headerLen]...)
			b[10], b[11], b[12], b[13] = 0, 0, 0, 0
			return b
		}(),
		"zero weight": func() []byte { b := append([]byte(nil), good...); b[headerLen+4] = 0; return b }(),
		"dup member": func() []byte {
			b := append([]byte(nil), good...)
			copy(b[headerLen+memberLen:], b[headerLen:headerLen+memberLen])
			return b
		}(),
		"modN not dense": func() []byte {
			b := append([]byte(nil), good...)
			b[headerLen+memberLen] = 5 // second member ID 1 -> 5
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Fatalf("%s: Decode accepted malformed input", name)
		}
	}
}

func TestMaxID(t *testing.T) {
	r, err := NewHashed(1, []Member{{ID: 1, Weight: 1}, {ID: 6, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxID() != 6 {
		t.Fatalf("MaxID=%d", r.MaxID())
	}
}

// TestHashedPlacementSpreadsSequentialNames: once a ring has changed
// membership, names that differ only in their last bytes spread over its
// members — no member takes more than 60 of 100 sequential names of any
// shape — and each member's share of 50,000 YCSB keys is within 2 points of
// the share of the circle its arcs cover.
func TestHashedPlacementSpreadsSequentialNames(t *testing.T) {
	r, err := NewModN(2).WithAdd(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []string{"lock-%02d", "user%04d", "k%05d"} {
		counts := map[uint32]int{}
		for i := 0; i < 100; i++ {
			counts[r.Owner(fmt.Sprintf(shape, i))]++
		}
		for id, c := range counts {
			if c > 60 {
				t.Errorf("%q: member %d owns %d of 100 names (%v)", shape, id, c, counts)
			}
		}
	}
	arc := map[uint32]float64{} // a point owns the arc back to its predecessor
	for i, p := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		arc[p.id] += float64(p.hash-prev) / math.Exp2(64)
	}
	const keys = 50000
	counts := map[uint32]int{}
	for i := 0; i < keys; i++ {
		counts[r.Owner(ycsb.Key(i))]++
	}
	for _, m := range r.Members() {
		if got := float64(counts[m.ID]) / keys; math.Abs(got-arc[m.ID]) > 0.02 {
			t.Errorf("member %d: %.3f of the YCSB keys, %.3f of the circle", m.ID, got, arc[m.ID])
		}
	}
}
