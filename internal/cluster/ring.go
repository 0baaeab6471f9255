// Package cluster turns N optiwise serve processes into one logical
// profiling service: a consistent-hash ring routes every submission to
// the node that owns its content-addressed job key, probe-based
// membership removes dead nodes from the ring, and each node becomes
// the ring tier of its server's result store — a node that misses
// locally fetches from the key's owner or previous owner before
// recomputing (DESIGN.md §11).
//
// Routing on the content address is what makes the cluster cheap:
// identical submissions hash to the same owner no matter which
// frontend accepted them, so the single-node dedup machinery (result
// cache plus in-flight coalescing) extends across the fleet without a
// coordination protocol. The ring only has to stay approximately
// consistent between nodes; a stale view routes a job to a non-owner,
// which merely computes it redundantly — correctness never depends on
// agreement.
package cluster

import (
	"sort"
)

// Ring is an immutable consistent-hash ring: each member contributes
// vnodes points on a 64-bit circle, and a key belongs to the member
// owning the first point at or clockwise of the key's hash. Membership
// changes build a new Ring, so readers never lock.
type Ring struct {
	vnodes  int
	points  []ringPoint // sorted by hash, ties by member
	members []string    // sorted, deduplicated
}

type ringPoint struct {
	hash   uint64
	member string
}

// DefaultVnodes balances ring smoothness against rebuild cost: at 128
// points per member the max/mean load ratio across 3-7 nodes stays
// within ~1.35 for uniformly hashed keys (see TestRingBalance).
const DefaultVnodes = 128

// NewRing builds a ring over members (order-insensitive, duplicates
// ignored). vnodes <= 0 selects DefaultVnodes.
func NewRing(vnodes int, members []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	set := make(map[string]bool, len(members))
	for _, m := range members {
		if m != "" {
			set[m] = true
		}
	}
	r := &Ring{vnodes: vnodes}
	for m := range set {
		r.members = append(r.members, m)
	}
	sort.Strings(r.members)
	r.points = make([]ringPoint, 0, len(r.members)*vnodes)
	var buf []byte
	for _, m := range r.members {
		for v := 0; v < vnodes; v++ {
			buf = buf[:0]
			buf = append(buf, m...)
			buf = append(buf, '#', byte(v), byte(v>>8))
			r.points = append(r.points, ringPoint{hash: hash64(buf), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Size returns the number of members.
func (r *Ring) Size() int {
	if r == nil {
		return 0
	}
	return len(r.members)
}

// Members returns the sorted member list (shared; treat as read-only).
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	return r.members
}

// Has reports whether m is on the ring.
func (r *Ring) Has(m string) bool {
	if r == nil {
		return false
	}
	i := sort.SearchStrings(r.members, m)
	return i < len(r.members) && r.members[i] == m
}

// Owner returns the member owning key, or "" on an empty ring. Keys
// are the 64-hex job digests, but any string hashes consistently.
func (r *Ring) Owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].member
}

// Owners returns up to n distinct members in ring order starting at
// key's owner: the preference chain a router walks when the primary
// owner is unreachable. Deterministic for a fixed member set.
func (r *Ring) Owners(key string, n int) []string {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(key); len(out) < n && i < len(r.points); i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// search returns the index of the first point at or clockwise of key's
// hash, wrapping at the top of the circle.
func (r *Ring) search(key string) int {
	h := hashString64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// hash64 is FNV-1a 64 over b: deterministic across processes and Go
// versions (unlike maphash), which is what lets every node compute the
// same ownership without exchanging anything but the member list.
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	// splitmix-style finalizer: FNV alone keeps low-byte structure from
	// short inputs; the avalanche spreads vnode points evenly.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}

func hashString64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}
