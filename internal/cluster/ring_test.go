package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// testKeys returns n keys shaped like real job digests (64 hex chars of
// a SHA-256), so the balance bounds are measured on the distribution
// the ring actually routes.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("job-%d", i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:8077", i+1)
	}
	return out
}

// TestRingBalance bounds the load skew: for every cluster size the
// ROADMAP targets (3-7 nodes), the most loaded member owns at most
// 1.45x the mean over 20k digest-shaped keys. The bound is loose
// enough to be stable across hash tweaks but tight enough to catch a
// broken vnode spread (a single-point-per-member ring lands near 2-3x).
func TestRingBalance(t *testing.T) {
	keys := testKeys(20000)
	for nodes := 3; nodes <= 7; nodes++ {
		r := NewRing(members(nodes))
		load := make(map[string]int)
		for _, k := range keys {
			load[r.Owner(k)]++
		}
		if len(load) != nodes {
			t.Fatalf("%d nodes: only %d received keys", nodes, len(load))
		}
		mean := float64(len(keys)) / float64(nodes)
		for m, c := range load {
			if ratio := float64(c) / mean; ratio > 1.45 {
				t.Errorf("%d nodes: member %s owns %.2fx the mean (%d keys)", nodes, m, ratio, c)
			}
		}
	}
}

// TestRingMinimalDisruption checks the consistent-hashing contract:
// adding a node moves only keys that land on the new node (about 1/N
// of them) and removing a node moves only the removed node's keys.
func TestRingMinimalDisruption(t *testing.T) {
	keys := testKeys(10000)
	base := members(4)
	r4 := NewRing(base)

	// Grow 4 -> 5.
	added := "10.0.0.5:8077"
	r5 := NewRing(append(append([]string(nil), base...), added))
	moved := 0
	for _, k := range keys {
		before, after := r4.Owner(k), r5.Owner(k)
		if before != after {
			moved++
			if after != added {
				t.Fatalf("key %s moved %s -> %s, not to the added node", k[:12], before, after)
			}
		}
	}
	// Expect ~1/5 of keys on the new node; allow generous slack, but a
	// naive mod-N rehash moves ~4/5 and must fail here.
	if frac := float64(moved) / float64(len(keys)); frac > 0.30 {
		t.Errorf("adding one node moved %.0f%% of keys; want ~20%%", 100*frac)
	}

	// Shrink 4 -> 3 (drop base[1]).
	r3 := NewRing(append(append([]string(nil), base[:1]...), base[2:]...))
	for _, k := range keys {
		before, after := r4.Owner(k), r3.Owner(k)
		if before != base[1] && before != after {
			t.Fatalf("key %s moved %s -> %s though its owner stayed on the ring", k[:12], before, after)
		}
		if before == base[1] && after == base[1] {
			t.Fatalf("key %s still owned by removed member", k[:12])
		}
	}
}

// TestRingDeterministicOwnership: two rings built from the same member
// set — in different orders, with duplicates — agree on every owner and
// on the full failover chain. This is the property that lets every
// node route independently.
func TestRingDeterministicOwnership(t *testing.T) {
	ms := members(5)
	a := NewRing(ms)
	shuffled := []string{ms[3], ms[0], ms[4], ms[1], ms[2], ms[0], ""}
	b := NewRing(shuffled)
	if a.Size() != 5 || b.Size() != 5 {
		t.Fatalf("sizes: %d, %d (want 5; duplicates and empties dropped)", a.Size(), b.Size())
	}
	for _, k := range testKeys(2000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner disagreement for %s: %s vs %s", k[:12], a.Owner(k), b.Owner(k))
		}
		ca, cb := a.Owners(k, 3), b.Owners(k, 3)
		if len(ca) != 3 || len(cb) != 3 {
			t.Fatalf("failover chain lengths: %d, %d", len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("failover chain disagreement for %s at %d: %v vs %v", k[:12], i, ca, cb)
			}
		}
		if ca[0] != a.Owner(k) {
			t.Fatalf("chain head %s is not the owner %s", ca[0], a.Owner(k))
		}
		if ca[1] == ca[0] || ca[2] == ca[0] || ca[2] == ca[1] {
			t.Fatalf("failover chain has duplicates: %v", ca)
		}
	}
}

// TestRingEdgeCases covers the degenerate shapes the membership layer
// can hand the router during churn.
func TestRingEdgeCases(t *testing.T) {
	var nilRing *Ring
	if nilRing.Owner("k") != "" || nilRing.Size() != 0 || nilRing.Has("x") {
		t.Fatal("nil ring must behave as empty")
	}
	empty := NewRing(nil)
	if empty.Owner("k") != "" || empty.Owners("k", 3) != nil {
		t.Fatal("empty ring must own nothing")
	}
	solo := NewRing([]string{"a:1"})
	if solo.Owner("k") != "a:1" {
		t.Fatal("single-member ring must own everything")
	}
	if got := solo.Owners("k", 5); len(got) != 1 || got[0] != "a:1" {
		t.Fatalf("Owners on single-member ring: %v", got)
	}
	if !solo.Has("a:1") || solo.Has("b:2") {
		t.Fatal("Has is wrong")
	}
}
