package cache

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// refLevel is the dense level model the chunked Level replaced: every set
// allocated up front, validity in its own array. It is the reference the
// chunked hierarchy must match access for access.
type refLevel struct {
	sets, ways int
	lineBits   uint
	latency    uint64
	tags, lru  []uint64
	valid      []bool
	stamp      uint64
	// filled lists the first index of every set fill has touched, so
	// reset clears only those.
	filled []int

	hits, misses uint64
}

func newRefLevel(size, ways, lineSize int, latency uint64) *refLevel {
	sets := size / (ways * lineSize)
	lineBits := uint(0)
	for 1<<lineBits != lineSize {
		lineBits++
	}
	return &refLevel{
		sets: sets, ways: ways, lineBits: lineBits, latency: latency,
		tags:  make([]uint64, sets*ways),
		lru:   make([]uint64, sets*ways),
		valid: make([]bool, sets*ways),
	}
}

func (l *refLevel) set(addr uint64) (int, uint64) {
	line := addr >> l.lineBits
	return int(line&uint64(l.sets-1)) * l.ways, line
}

func (l *refLevel) lookup(addr uint64) bool {
	base, line := l.set(addr)
	l.stamp++
	for i := base; i < base+l.ways; i++ {
		if l.valid[i] && l.tags[i] == line {
			l.lru[i] = l.stamp
			return true
		}
	}
	return false
}

func (l *refLevel) fill(addr uint64) {
	base, line := l.set(addr)
	victim := base
	for i := base; i < base+l.ways; i++ {
		if !l.valid[i] {
			victim = i
			break
		}
		if l.lru[i] < l.lru[victim] {
			victim = i
		}
	}
	if !l.valid[base] {
		l.filled = append(l.filled, base)
	}
	l.stamp++
	l.tags[victim] = line
	l.valid[victim] = true
	l.lru[victim] = l.stamp
}

// reset returns the level to its freshly built state.
func (l *refLevel) reset() {
	for _, base := range l.filled {
		clear(l.tags[base : base+l.ways])
		clear(l.lru[base : base+l.ways])
		clear(l.valid[base : base+l.ways])
	}
	*l = refLevel{sets: l.sets, ways: l.ways, lineBits: l.lineBits, latency: l.latency,
		tags: l.tags, lru: l.lru, valid: l.valid, filled: l.filled[:0]}
}

// refHierarchy is the dense hierarchy: the old Access and Prefetch walks
// over refLevels.
type refHierarchy struct {
	levels      []*refLevel
	memLatency  uint64
	memAccesses uint64
}

func newRefHierarchy(cfg Config) *refHierarchy {
	h := &refHierarchy{memLatency: cfg.MemLatency}
	for _, lc := range cfg.Levels {
		h.levels = append(h.levels, newRefLevel(lc.Size, lc.Ways, cfg.LineSize, lc.Latency))
	}
	return h
}

func (h *refHierarchy) reset() {
	for _, l := range h.levels {
		l.reset()
	}
	h.memAccesses = 0
}

func (h *refHierarchy) access(addr uint64) uint64 {
	for i, l := range h.levels {
		if l.lookup(addr) {
			l.hits++
			for j := 0; j < i; j++ {
				h.levels[j].fill(addr)
			}
			return l.latency
		}
		l.misses++
	}
	h.memAccesses++
	for _, l := range h.levels {
		l.fill(addr)
	}
	return h.memLatency
}

func (h *refHierarchy) prefetch(addr uint64) uint64 {
	for i, l := range h.levels {
		if l.lookup(addr) {
			for j := 0; j < i; j++ {
				h.levels[j].fill(addr)
			}
			return l.latency
		}
	}
	h.memAccesses++
	for _, l := range h.levels {
		l.fill(addr)
	}
	return h.memLatency
}

// smallConfig is small()'s geometry: both levels under one chunk of sets.
func smallConfig() Config {
	return Config{
		LineSize:   64,
		MemLatency: 200,
		Levels: []LevelConfig{
			{Name: "L1", Size: 1 << 10, Ways: 2, Latency: 4},
			{Name: "L2", Size: 8 << 10, Ways: 4, Latency: 12},
		},
	}
}

var referenceConfigs = []struct {
	name string
	cfg  Config
}{
	{"XeonW2195", XeonW2195()},
	{"NeoverseN1", NeoverseN1()},
	{"small", smallConfig()},
}

// refOp is one step of an address stream.
type refOp struct {
	addr     uint64
	prefetch bool
}

// checkAgainstReference drives a fresh chunked hierarchy and ref, a fresh
// or reset reference of the same geometry, with ops and fails at the
// first difference in a returned latency, a level's Hits or Misses, or
// MemAccesses.
func checkAgainstReference(t *testing.T, cfg Config, ref *refHierarchy, ops []refOp) {
	t.Helper()
	h := New(cfg)
	for i, op := range ops {
		var got, want uint64
		if op.prefetch {
			got, want = h.Prefetch(op.addr), ref.prefetch(op.addr)
		} else {
			got, want = h.Access(op.addr), ref.access(op.addr)
		}
		if got != want {
			t.Fatalf("op %d (%#x, prefetch %v): latency %d, reference %d", i, op.addr, op.prefetch, got, want)
		}
		for j, l := range h.Levels() {
			r := ref.levels[j]
			if l.Hits != r.hits || l.Misses != r.misses {
				t.Fatalf("op %d (%#x, prefetch %v): %s hits/misses %d/%d, reference %d/%d",
					i, op.addr, op.prefetch, l.Name(), l.Hits, l.Misses, r.hits, r.misses)
			}
		}
		if h.MemAccesses != ref.memAccesses {
			t.Fatalf("op %d (%#x, prefetch %v): MemAccesses %d, reference %d",
				i, op.addr, op.prefetch, h.MemAccesses, ref.memAccesses)
		}
	}
}

// conflictStride is a multiple of every reference geometry's set count ×
// line size (the Xeon L3's 32768 sets × 64 B is the largest), so lines
// this far apart share a set in every level.
const conflictStride = 2 << 20

// referenceStream builds n mixed Access/Prefetch ops from four patterns:
// uniform random words in a 64 MiB region, a sequential sweep, a pointer
// chase over a 4 MiB region, and lines that collide in one set of every
// level across up to 24 tags (twice the widest level's ways), spread over
// neighbouring sets and over sets chunks apart.
func referenceStream(rng *rand.Rand, n int) []refOp {
	ops := make([]refOp, 0, n)
	var sweep, chase uint64 = 0, 0x40
	for len(ops) < n {
		pattern, run := rng.Intn(4), 1+rng.Intn(200)
		for k := 0; k < run && len(ops) < n; k++ {
			var addr uint64
			switch pattern {
			case 0:
				addr = uint64(rng.Int63n(64<<20)) &^ 7
			case 1:
				sweep += 8
				addr = sweep
			case 2:
				chase = (chase*6364136223846793005 + 1442695040888963407) % (4 << 20)
				addr = chase &^ 7
			case 3:
				set := uint64(rng.Intn(4))
				if rng.Intn(2) == 0 {
					set *= chunkSets * 5
				}
				addr = uint64(rng.Intn(24))*conflictStride + set*64 + uint64(rng.Intn(8))*8
			}
			ops = append(ops, refOp{addr: addr, prefetch: rng.Intn(8) == 0})
		}
	}
	return ops
}

// TestHierarchyMatchesReference pins the chunked, lazily built levels to
// the dense model they replaced: same latencies, same per-level counts and
// memory accesses, op for op, on both machines and on a geometry whose
// levels are smaller than one chunk.
func TestHierarchyMatchesReference(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for i, rc := range referenceConfigs {
		t.Run(rc.name, func(t *testing.T) {
			ops := referenceStream(rand.New(rand.NewSource(int64(i+1))), n)
			checkAgainstReference(t, rc.cfg, newRefHierarchy(rc.cfg), ops)
		})
	}
}

// fuzzOps decodes fuzz bytes, three at a time, into ops. The first byte
// picks prefetch (bit 0) and, in bits 1-2, how the other two make the
// address: a line in one of 256 neighbouring sets (a few chunks) under
// one of 256 conflicting tags; the same with sets a chunk apart; a word,
// offset by the first byte's upper bits, in one of 8 neighbouring sets
// under a conflicting tag; or 16 raw address bits scaled by a word.
func fuzzOps(data []byte) []refOp {
	var ops []refOp
	for ; len(data) >= 3; data = data[3:] {
		ctl, a, b := data[0], uint64(data[1]), uint64(data[2])
		var addr uint64
		switch ctl >> 1 & 3 {
		case 0:
			addr = b*conflictStride + a*64
		case 1:
			addr = b*conflictStride + a*chunkSets*64
		case 2:
			addr = b*conflictStride + (a&7)*64 + uint64(ctl>>3)*8
		case 3:
			addr = uint64(binary.LittleEndian.Uint16(data[1:])) * 8
		}
		ops = append(ops, refOp{addr: addr, prefetch: ctl&1 == 1})
	}
	return ops
}

// FuzzHierarchyMatchesReference drives arbitrary op streams through the
// chunked hierarchy and the dense reference on every reference geometry.
// The references are built once and reset between inputs: building the
// dense Xeon and N1 levels costs more than most inputs take to check.
func FuzzHierarchyMatchesReference(f *testing.F) {
	refs := make([]*refHierarchy, len(referenceConfigs))
	for i, rc := range referenceConfigs {
		refs[i] = newRefHierarchy(rc.cfg)
	}
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 1, 2, 1, 1, 0})
	f.Add([]byte{2, 0, 0, 2, 0, 1, 2, 0, 2, 2, 0, 3, 2, 0, 4, 2, 0, 0})
	seed := make([]byte, 0, 3*64)
	for i := 0; i < 64; i++ {
		seed = append(seed, byte(i&1|4), byte(i%3), byte(i))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps(data)
		for i, rc := range referenceConfigs {
			refs[i].reset()
			checkAgainstReference(t, rc.cfg, refs[i], ops)
		}
	})
}
