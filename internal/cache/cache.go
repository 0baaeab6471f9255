// Package cache implements the set-associative data-cache hierarchy of the
// pipeline simulator.
//
// The hierarchy's latency spread is what makes per-instruction CPI
// interesting: an L1 hit is invisible inside an out-of-order window, while
// an LLC miss produces the CPI≈279 loads the deepsjeng case study (§VI-B)
// hunts. The geometry defaults mimic the paper's Xeon W-2195 (1.1/18/24 MiB
// L1/L2/L3 per §V).
//
// A level costs what the simulated program touches, not what the modelled
// machine holds: its sets are built in chunks of 64, each on the first fill
// that lands in it. A program whose data fits in a few hundred KiB never
// builds most of the Xeon's 24 MiB L3.
package cache

import "fmt"

// A level's sets are stored in chunks of chunkSets sets; a level with
// fewer sets is one chunk of exactly its size.
const (
	chunkBits = 6
	chunkSets = 1 << chunkBits
)

// way is one cache way: tag holds the cached line number plus one, so the
// zero value is an invalid way, and lru its last-touch stamp.
type way struct {
	tag uint64
	lru uint64
}

// Level is one set-associative cache level with LRU replacement.
type Level struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	latency  uint64

	// chunks[c] holds sets c*chunkSets onwards, way w of the chunk's set
	// s at index s*ways+w. A nil chunk has never been filled: every way
	// in it is invalid.
	chunks [][]way
	stamp  uint64

	// Stats.
	Hits   uint64
	Misses uint64
}

// NewLevel builds a cache level. size and lineSize are in bytes; latency is
// the hit latency in cycles.
func NewLevel(name string, size, ways, lineSize int, latency uint64) *Level {
	if size%(ways*lineSize) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by ways*line", name, size))
	}
	sets := size / (ways * lineSize)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: sets %d not a power of two", name, sets))
	}
	lineBits := uint(0)
	for 1<<lineBits != lineSize {
		lineBits++
		if lineBits > 12 {
			panic("bad line size")
		}
	}
	return &Level{
		name: name, sets: sets, ways: ways, lineBits: lineBits, latency: latency,
		chunks: make([][]way, (sets+chunkSets-1)/chunkSets),
	}
}

// Name returns the level's label ("L1", …).
func (l *Level) Name() string { return l.name }

// Latency returns the hit latency in cycles.
func (l *Level) Latency() uint64 { return l.latency }

// set returns addr's set index and its tag (line number plus one).
func (l *Level) set(addr uint64) (int, uint64) {
	line := addr >> l.lineBits
	return int(line & uint64(l.sets-1)), line + 1
}

// waysOf returns the ways of set, or nil when its chunk was never filled.
func (l *Level) waysOf(set int) []way {
	c := l.chunks[set>>chunkBits]
	if c == nil {
		return nil
	}
	base := (set & (chunkSets - 1)) * l.ways
	return c[base : base+l.ways]
}

// lookup probes for addr and updates LRU on hit.
func (l *Level) lookup(addr uint64) bool {
	set, tag := l.set(addr)
	l.stamp++
	ws := l.waysOf(set)
	for i := range ws {
		if ws[i].tag == tag {
			ws[i].lru = l.stamp
			return true
		}
	}
	return false
}

// fill installs addr's line, evicting the first invalid way, else the
// first least-recently-used one.
func (l *Level) fill(addr uint64) {
	set, tag := l.set(addr)
	ws := l.waysOf(set)
	if ws == nil {
		n := chunkSets
		if l.sets < n {
			n = l.sets
		}
		l.chunks[set>>chunkBits] = make([]way, n*l.ways)
		ws = l.waysOf(set)
	}
	victim := 0
	for i := range ws {
		if ws[i].tag == 0 {
			victim = i
			break
		}
		if ws[i].lru < ws[victim].lru {
			victim = i
		}
	}
	l.stamp++
	ws[victim] = way{tag: tag, lru: l.stamp}
}

// Hierarchy is an inclusive multi-level cache hierarchy backed by a
// fixed-latency memory.
type Hierarchy struct {
	levels     []*Level
	memLatency uint64
	// MemAccesses counts accesses that reached memory.
	MemAccesses uint64
}

// Config describes a hierarchy to build.
type Config struct {
	LineSize   int
	MemLatency uint64
	Levels     []LevelConfig
}

// LevelConfig describes one level.
type LevelConfig struct {
	Name    string
	Size    int
	Ways    int
	Latency uint64
}

// XeonW2195 returns the paper evaluation machine's data-side geometry:
// 32 KiB L1D, 1 MiB L2, 24 MiB (shared, here private) L3.
func XeonW2195() Config {
	return Config{
		LineSize:   64,
		MemLatency: 220,
		Levels: []LevelConfig{
			{Name: "L1", Size: 32 << 10, Ways: 8, Latency: 4},
			{Name: "L2", Size: 1 << 20, Ways: 16, Latency: 14},
			{Name: "L3", Size: 24 << 20, Ways: 12, Latency: 44},
		},
	}
}

// NeoverseN1 returns an N1-like geometry (64 KiB L1, 1 MiB L2, 8 MiB LLC).
func NeoverseN1() Config {
	return Config{
		LineSize:   64,
		MemLatency: 200,
		Levels: []LevelConfig{
			{Name: "L1", Size: 64 << 10, Ways: 4, Latency: 4},
			{Name: "L2", Size: 1 << 20, Ways: 8, Latency: 11},
			{Name: "L3", Size: 8 << 20, Ways: 16, Latency: 35},
		},
	}
}

// New builds a hierarchy from cfg.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{memLatency: cfg.MemLatency}
	for _, lc := range cfg.Levels {
		h.levels = append(h.levels, NewLevel(lc.Name, lc.Size, lc.Ways, cfg.LineSize, lc.Latency))
	}
	return h
}

// Access looks addr up, filling all levels on the way back (inclusive),
// and returns the access latency in cycles.
func (h *Hierarchy) Access(addr uint64) uint64 { return h.access(addr, true) }

// Prefetch pulls addr's line into every level, changing tag state exactly
// as Access does. It counts MemAccesses but no per-level Hits or Misses,
// which count demand accesses only. It returns the latency the access
// would have cost; the pipeline charges a prefetch one cycle and does not
// use it.
func (h *Hierarchy) Prefetch(addr uint64) uint64 { return h.access(addr, false) }

// access walks the levels for addr, fills the levels above the one that
// hits (all of them on a miss to memory) and returns the latency. demand
// selects whether the per-level Hits and Misses count the walk.
func (h *Hierarchy) access(addr uint64, demand bool) uint64 {
	lat := h.memLatency
	hit := len(h.levels)
	for i, l := range h.levels {
		if l.lookup(addr) {
			if demand {
				l.Hits++
			}
			lat, hit = l.latency, i
			break
		}
		if demand {
			l.Misses++
		}
	}
	if hit == len(h.levels) {
		h.MemAccesses++
	}
	for _, l := range h.levels[:hit] {
		l.fill(addr)
	}
	return lat
}

// Levels exposes the per-level stats.
func (h *Hierarchy) Levels() []*Level { return h.levels }

// MemLatency returns the backing memory latency in cycles.
func (h *Hierarchy) MemLatency() uint64 { return h.memLatency }
