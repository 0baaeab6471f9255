// Package cache implements the set-associative data-cache hierarchy of the
// pipeline simulator.
//
// The hierarchy's latency spread is what makes per-instruction CPI
// interesting: an L1 hit is invisible inside an out-of-order window, while
// an LLC miss produces the CPI≈279 loads the deepsjeng case study (§VI-B)
// hunts. The geometry defaults mimic the paper's Xeon W-2195 (1.1/18/24 MiB
// L1/L2/L3 per §V).
package cache

import "fmt"

// Level is one set-associative cache level with LRU replacement.
type Level struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	latency  uint64

	// Way w of set s lives at index s*ways+w of each array, so a level
	// is three allocations however many sets it has.
	tags []uint64
	// lru holds each way's last-touch stamp.
	lru   []uint64
	valid []bool
	stamp uint64

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
	l := &Level{
		name: name, sets: sets, ways: ways, lineBits: lineBits, latency: latency,
		tags:  make([]uint64, sets*ways),
		lru:   make([]uint64, sets*ways),
		valid: make([]bool, sets*ways),
	}
	return l
}

// Name returns the level's label ("L1", …).
func (l *Level) Name() string { return l.name }

// Latency returns the hit latency in cycles.
func (l *Level) Latency() uint64 { return l.latency }

// set returns the first array index of addr's set, and addr's line.
func (l *Level) set(addr uint64) (int, uint64) {
	line := addr >> l.lineBits
	return int(line&uint64(l.sets-1)) * l.ways, line
}

// lookup probes for addr and updates LRU on hit.
func (l *Level) lookup(addr uint64) bool {
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

// fill installs addr's line, evicting LRU.
func (l *Level) fill(addr uint64) {
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
	l.stamp++
	l.tags[victim] = line
	l.valid[victim] = true
	l.lru[victim] = l.stamp
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
func (h *Hierarchy) Access(addr uint64) uint64 {
	for i, l := range h.levels {
		if l.lookup(addr) {
			l.Hits++
			// Fill the levels above the hit.
			for j := 0; j < i; j++ {
				h.levels[j].fill(addr)
			}
			return l.latency
		}
		l.Misses++
	}
	h.MemAccesses++
	for _, l := range h.levels {
		l.fill(addr)
	}
	return h.memLatency
}

// Prefetch pulls addr's line into every level without charging latency to
// the caller. It returns the latency the fill would have cost, which the
// pipeline model uses to decide when the line becomes usable.
func (h *Hierarchy) Prefetch(addr uint64) uint64 {
	// A prefetch is an access whose latency is hidden; tag state changes
	// identically.
	for i, l := range h.levels {
		if l.lookup(addr) {
			for j := 0; j < i; j++ {
				h.levels[j].fill(addr)
			}
			return l.latency
		}
	}
	h.MemAccesses++
	for _, l := range h.levels {
		l.fill(addr)
	}
	return h.memLatency
}

// Levels exposes the per-level stats.
func (h *Hierarchy) Levels() []*Level { return h.levels }

// MemLatency returns the backing memory latency in cycles.
func (h *Hierarchy) MemLatency() uint64 { return h.memLatency }

// Stats renders a one-line summary per level.
func (h *Hierarchy) Stats() string {
	s := ""
	for _, l := range h.levels {
		total := l.Hits + l.Misses
		rate := 0.0
		if total > 0 {
			rate = float64(l.Hits) / float64(total)
		}
		s += fmt.Sprintf("%s: %d/%d hits (%.1f%%)  ", l.name, l.Hits, total, 100*rate)
	}
	return s + fmt.Sprintf("mem: %d", h.MemAccesses)
}
