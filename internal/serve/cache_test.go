package serve

import (
	"strings"
	"testing"

	"optiwise"
)

const cacheTestSrc = `
.module m
.text
.func main
main:
    li t0, 8
l:
    addi t0, t0, -1
    bnez t0, l
    li a0, 0
    li a7, 93
    syscall
.endfunc
`

func cacheTestResult(t *testing.T) *optiwise.Result {
	t.Helper()
	prog, err := optiwise.Assemble("m", cacheTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optiwise.Profile(prog, optiwise.Options{SamplePeriod: 50})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// wireSize is res's memory-tier entry size: its wire payload's length.
func wireSize(t *testing.T, res *optiwise.Result) int64 {
	t.Helper()
	payload, _, err := EncodeWireResult(res)
	if err != nil || len(payload) == 0 {
		t.Fatalf("EncodeWireResult: %d bytes, %v", len(payload), err)
	}
	return int64(len(payload))
}

// TestCacheLRUEviction checks the byte-budget discipline: inserting
// beyond the budget evicts the least recently used entry, and a get
// refreshes recency.
func TestCacheLRUEviction(t *testing.T) {
	res := cacheTestResult(t)
	size := wireSize(t, res)
	// Budget for exactly two entries.
	c := newResultCache(2*size, nil)
	c.put("a", res, size)
	c.put("b", res, size)
	if c.len() != 2 || c.usedBytes() != 2*size {
		t.Fatalf("after two puts: len=%d bytes=%d", c.len(), c.usedBytes())
	}
	// Touch "a" so "b" becomes the eviction victim.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", res, size)
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
	if c.usedBytes() > 2*size {
		t.Errorf("cache over budget: %d > %d", c.usedBytes(), 2*size)
	}

	// Re-putting an existing key must not double-count bytes.
	c.put("a", res, size)
	if c.len() != 2 || c.usedBytes() != 2*size {
		t.Errorf("after re-put: len=%d bytes=%d", c.len(), c.usedBytes())
	}
}

// TestCacheDisabledAndOversized covers the degenerate budgets.
func TestCacheDisabledAndOversized(t *testing.T) {
	res := cacheTestResult(t)
	size := wireSize(t, res)
	disabled := newResultCache(-1, nil)
	disabled.put("k", res, size)
	if _, ok := disabled.get("k"); ok {
		t.Error("disabled cache stored an entry")
	}
	tiny := newResultCache(1, nil) // smaller than any serialized profile
	tiny.put("k", res, size)
	if _, ok := tiny.get("k"); ok {
		t.Error("cache stored an entry larger than its whole budget")
	}
}

// TestJobKey locks in the content addressing: identical inputs agree,
// and every dimension of the key (program, machine, each option)
// changes it.
func TestJobKey(t *testing.T) {
	prog, err := optiwise.Assemble("m", cacheTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := optiwise.Assemble("m", strings.Replace(cacheTestSrc, "li t0, 8", "li t0, 9", 1))
	if err != nil {
		t.Fatal(err)
	}
	base := optiwise.Options{}.Canonical()
	k1, err := jobKey(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	if k2, _ := jobKey(prog, base); k2 != k1 {
		t.Error("identical inputs produced different keys")
	}
	// Default-equivalent options must collide after canonicalization.
	if k3, _ := jobKey(prog, optiwise.Options{SamplePeriod: 2000}.Canonical()); k3 != k1 {
		t.Error("default-equivalent options produced a different key")
	}
	// A hot threshold without tiered mode is inert (Canonical strips
	// it), so it must not fragment the cache either.
	if k6, _ := jobKey(prog, optiwise.Options{HotThreshold: 0.3}.Canonical()); k6 != k1 {
		t.Error("inert HotThreshold produced a different key")
	}
	// Tiered submissions with a zero and an explicit-default threshold
	// describe the same profile and must collide with each other —
	// while remaining distinct from non-tiered submissions (covered by
	// the variants table below).
	kt1, _ := jobKey(prog, optiwise.Options{Tiered: true}.Canonical())
	kt2, _ := jobKey(prog, optiwise.Options{Tiered: true, HotThreshold: optiwise.DefaultHotThreshold}.Canonical())
	if kt1 != kt2 {
		t.Error("tiered default-threshold submissions diverged")
	}
	variants := map[string]optiwise.Options{
		"machine":   {Machine: optiwise.NeoverseN1()},
		"period":    {SamplePeriod: 999},
		"precise":   {Precise: true},
		"jitter":    {SampleJitter: true},
		"nostack":   {DisableStackProfiling: true},
		"attr":      {Attribution: optiwise.AttrNone},
		"threshold": {LoopThreshold: 7},
		"maxcycles": {MaxCycles: 123456},
		"seed":      {RandSeed: 42},
		"tiered":    {Tiered: true},
		"hotthr":    {Tiered: true, HotThreshold: 0.2},
	}
	seen := map[string]string{k1: "base"}
	for name, o := range variants {
		k, err := jobKey(prog, o.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}
	kp, _ := jobKey(prog2, base)
	if _, dup := seen[kp]; dup {
		t.Error("different program collided with an options variant")
	}
}
