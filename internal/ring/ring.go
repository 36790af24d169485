// Package ring implements the weighted consistent-hash ring that routes
// keys to shards in a Sharded store.
//
// A Ring is an immutable value: membership changes (WithAdd / WithRemove)
// return a new Ring with the epoch advanced, never mutate in place. That
// makes it safe to publish through an atomic pointer and hand out to
// concurrent readers without locks.
//
// Two placement modes exist:
//
//   - ModeModN is the static routing (FNV-1a 64 of the key, mod member
//     count) and the live placement of every fresh store: FormatSharded
//     persists a ModeModN ring at epoch 0, and it routes until the first
//     membership change. It is also what OpenSharded synthesizes for a
//     store formatted before the ring existed, which carries no ring
//     object, so every pre-existing key remains reachable.
//   - ModeHashed is the consistent-hash placement: each member contributes
//     weight*vnodesPerWeight pseudo-random points on a 64-bit circle and a
//     key is owned by the successor point of its hash. Membership changes
//     move only the keys adjacent to the added/removed member's points.
//
// Any membership change converts a ModeModN ring to ModeHashed (the legacy
// placement cannot absorb a member without moving nearly every key anyway,
// so the one-time conversion cost is paid by the same migration).
//
// The serialized form is deterministic — same members, same bytes — so the
// encoding can be persisted crash-atomically as a reserved object and
// compared byte-wise in tests.
package ring

import (
	"errors"
	"fmt"
	"sort"
)

// Mode selects the placement function.
type Mode uint8

const (
	// ModeModN is the legacy static placement: fnv64(key) % len(members).
	// Member IDs must be dense 0..n-1 in this mode.
	ModeModN Mode = 0
	// ModeHashed is weighted consistent hashing with virtual nodes.
	ModeHashed Mode = 1
)

// vnodesPerWeight is the number of points each unit of member weight
// contributes to the circle. 64 points per weight keeps the expected
// per-member load imbalance under a few percent for small clusters while
// keeping lookup tables tiny (a 16-shard ring is 1024 points).
const vnodesPerWeight = 64

// Member is one shard's entry in the ring. ID is the shard slot index in
// the Sharded store (stable for the life of the store: removed members
// leave their slot drained but allocated).
type Member struct {
	ID     uint32
	Weight uint32
}

// point is one virtual node on the hash circle.
type point struct {
	hash uint64
	id   uint32
}

// Ring is an immutable placement map from keys to member IDs.
type Ring struct {
	mode    Mode
	epoch   uint64
	members []Member // sorted by ID, unique
	points  []point  // sorted by hash; built for ModeHashed only
}

// Encoding layout (all little-endian):
//
//	version u8 | mode u8 | epoch u64 | count u32 | { id u32, weight u32 }*count
const encVersion = 1

// headerLen is the fixed prefix of the encoding: version, mode, epoch, count.
const headerLen = 1 + 1 + 8 + 4

// memberLen is the per-member encoding size.
const memberLen = 4 + 4

// Errors returned by Decode.
var (
	ErrBadEncoding = errors.New("ring: malformed encoding")
	ErrBadVersion  = errors.New("ring: unsupported encoding version")
)

// FNV-1a 64 constants; ModeModN must keep reproducing the pre-ring placement
// bit-for-bit, which ring_test.go pins against its legacyShardIndex.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// pointHash derives the circle position of virtual node (id, replica). It
// must be deterministic across processes and Go versions, so it is a
// fixed-constant mix (splitmix64 over the packed pair) rather than
// anything seeded.
func pointHash(id uint32, replica uint32) uint64 {
	x := uint64(id)<<32 | uint64(replica)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewModN builds the legacy epoch-0 ring over dense member IDs 0..n-1.
// OpenSharded uses it for stores that predate persisted rings. Shard counts
// are configuration, not media state, so n <= 0 is a programmer error and
// panics.
//
//dstore:invariant
func NewModN(n int) *Ring {
	if n <= 0 {
		panic("ring: NewModN needs n > 0")
	}
	members := make([]Member, n)
	for i := range members {
		members[i] = Member{ID: uint32(i), Weight: 1}
	}
	return &Ring{mode: ModeModN, epoch: 0, members: members}
}

// NewHashed builds a consistent-hash ring over the given members at the
// given epoch. Members are copied, deduplicated by ID (last wins), and
// sorted; zero weights are rounded up to 1.
func NewHashed(epoch uint64, members []Member) (*Ring, error) {
	if len(members) == 0 {
		return nil, errors.New("ring: need at least one member")
	}
	byID := make(map[uint32]Member, len(members))
	for _, m := range members {
		if m.Weight == 0 {
			m.Weight = 1
		}
		byID[m.ID] = m
	}
	ms := make([]Member, 0, len(byID))
	for _, m := range byID {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	r := &Ring{mode: ModeHashed, epoch: epoch, members: ms}
	r.buildPoints()
	return r, nil
}

func (r *Ring) buildPoints() {
	total := 0
	for _, m := range r.members {
		total += int(m.Weight) * vnodesPerWeight
	}
	pts := make([]point, 0, total)
	for _, m := range r.members {
		n := uint32(m.Weight) * vnodesPerWeight
		for rep := uint32(0); rep < n; rep++ {
			pts = append(pts, point{hash: pointHash(m.ID, rep), id: m.ID})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		// Ties broken by ID so the ring is deterministic even in the
		// astronomically unlikely event of a point-hash collision.
		return pts[i].id < pts[j].id
	})
	r.points = pts
}

// String names the mode for diagnostics (dstore-inspect, test failures).
func (m Mode) String() string {
	switch m {
	case ModeModN:
		return "modN"
	case ModeHashed:
		return "hashed"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Mode reports the placement mode.
func (r *Ring) Mode() Mode { return r.mode }

// Epoch reports the ring version. Every membership change advances it.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Members returns the current membership, sorted by ID. The slice is
// shared; callers must not mutate it.
func (r *Ring) Members() []Member { return r.members }

// Len reports the number of members.
func (r *Ring) Len() int { return len(r.members) }

// Contains reports whether id is a ring member.
func (r *Ring) Contains(id uint32) bool {
	i := sort.Search(len(r.members), func(i int) bool { return r.members[i].ID >= id })
	return i < len(r.members) && r.members[i].ID == id
}

// MaxID returns the largest member ID, or -1 for an (impossible) empty ring.
func (r *Ring) MaxID() int {
	if len(r.members) == 0 {
		return -1
	}
	return int(r.members[len(r.members)-1].ID)
}

// Owner maps a key to the member that stores it.
func (r *Ring) Owner(key string) uint32 {
	h := fnv64(key)
	if r.mode == ModeModN {
		return uint32(h % uint64(len(r.members)))
	}
	// Successor point on the circle, wrapping at the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id
}

// WithAdd returns a new ring that includes member id with the given weight
// (0 rounds up to 1), at epoch+1, always in ModeHashed. Adding an existing
// member updates its weight.
func (r *Ring) WithAdd(id uint32, weight uint32) (*Ring, error) {
	if weight == 0 {
		weight = 1
	}
	ms := make([]Member, 0, len(r.members)+1)
	ms = append(ms, r.members...)
	ms = append(ms, Member{ID: id, Weight: weight})
	return NewHashed(r.epoch+1, ms)
}

// WithRemove returns a new ring without member id, at epoch+1, always in
// ModeHashed. Removing the last member or a non-member is an error.
func (r *Ring) WithRemove(id uint32) (*Ring, error) {
	if !r.Contains(id) {
		return nil, fmt.Errorf("ring: member %d not present", id)
	}
	if len(r.members) == 1 {
		return nil, errors.New("ring: cannot remove the last member")
	}
	ms := make([]Member, 0, len(r.members)-1)
	for _, m := range r.members {
		if m.ID != id {
			ms = append(ms, m)
		}
	}
	return NewHashed(r.epoch+1, ms)
}

// Encode returns the deterministic serialized form of the ring.
func (r *Ring) Encode() []byte {
	b := make([]byte, 0, headerLen+len(r.members)*memberLen)
	b = append(b, encVersion, byte(r.mode))
	b = appendU64(b, r.epoch)
	b = appendU32(b, uint32(len(r.members)))
	for _, m := range r.members {
		b = appendU32(b, m.ID)
		b = appendU32(b, m.Weight)
	}
	return b
}

// Decode parses an encoding produced by Encode. Trailing bytes, short
// buffers, zero membership, duplicate or unsorted members, and (for
// ModeModN) non-dense IDs are all rejected.
func Decode(b []byte) (*Ring, error) {
	if len(b) < headerLen {
		return nil, ErrBadEncoding
	}
	if b[0] != encVersion {
		return nil, ErrBadVersion
	}
	mode := Mode(b[1])
	if mode != ModeModN && mode != ModeHashed {
		return nil, ErrBadEncoding
	}
	epoch := getU64(b[2:])
	count := getU32(b[10:])
	if count == 0 || count > 1<<20 {
		return nil, ErrBadEncoding
	}
	if uint64(len(b)) != uint64(headerLen)+uint64(count)*memberLen {
		return nil, ErrBadEncoding
	}
	members := make([]Member, count)
	off := headerLen
	for i := range members {
		members[i] = Member{ID: getU32(b[off:]), Weight: getU32(b[off+4:])}
		if members[i].Weight == 0 {
			return nil, ErrBadEncoding
		}
		if i > 0 && members[i].ID <= members[i-1].ID {
			return nil, ErrBadEncoding
		}
		off += memberLen
	}
	r := &Ring{mode: mode, epoch: epoch, members: members}
	if mode == ModeModN {
		for i, m := range members {
			if m.ID != uint32(i) {
				return nil, ErrBadEncoding
			}
		}
	} else {
		r.buildPoints()
	}
	return r, nil
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
