package ooo

// Cycle windows: an opt-in, cycle-windowed counter stream from the
// simulated core, in the spirit of the paper's figure-2 commit-semantics
// analysis — the simulator itself becomes an observable device. Every
// WindowCycles-cycle window the tracker emits one Interval carrying
// IPC, average ROB occupancy, branch-mispredict rate, per-level cache
// miss rates, and a stall-cause breakdown classified from the machine
// state each cycle (who is blocking the head of the ROB, and why). The
// same record is the run's only window: the run loop hands each one it
// closes to Options.OnWindow, synchronously on the simulation goroutine,
// so a caller can slice its own per-window data (the sampler's records)
// at exactly the interval's boundaries.
//
// Discipline: the feature is off by default (Options.WindowCycles ==
// 0); the run loop then pays exactly one nil pointer compare per
// simulated cycle. When on, the per-cycle tick is a handful of integer
// adds against tracker-local fields; the window flush (every N cycles)
// snapshots the shared counters. Quiet cycles the run loop skips are
// added in one multiply-add (account), and a skip always stops short of
// the next flush.

import (
	"strconv"

	"optiwise/internal/isa"
	"optiwise/internal/jsonenc"
)

// LevelRate is one cache level's activity within an interval.
type LevelRate struct {
	Level  string  `json:"level"`
	Hits   uint64  `json:"hits"`
	Misses uint64  `json:"misses"`
	Rate   float64 `json:"miss_rate"` // misses / (hits+misses), 0 when idle
}

// StallBreakdown attributes each cycle of an interval to the reason the
// machine did (or did not) make commit progress that cycle.
type StallBreakdown struct {
	// Commit counts cycles that retired at least one instruction.
	Commit uint64 `json:"commit"`
	// Frontend counts cycles with an empty ROB (fetch redirect shadow,
	// serialization, or program exhaustion).
	Frontend uint64 `json:"frontend"`
	// Memory counts cycles blocked on a load or store at the ROB head.
	Memory uint64 `json:"memory"`
	// StoreBuffer counts cycles where the head store finished executing
	// but could not retire (store buffer full or result in flight).
	StoreBuffer uint64 `json:"store_buffer"`
	// Execute counts cycles blocked on a non-memory op in execution.
	Execute uint64 `json:"execute"`
	// Other counts cycles blocked on unissued work (dependency or
	// structural waits).
	Other uint64 `json:"other"`
}

// Dominant returns the largest non-commit stall cause, or "commit" when
// the interval mostly retired.
func (b StallBreakdown) Dominant() string {
	name, max := "commit", b.Commit
	for _, c := range []struct {
		name string
		n    uint64
	}{
		{"frontend", b.Frontend},
		{"memory", b.Memory},
		{"store_buffer", b.StoreBuffer},
		{"execute", b.Execute},
		{"other", b.Other},
	} {
		if c.n > max {
			name, max = c.name, c.n
		}
	}
	return name
}

// Interval is one cycle window of core telemetry.
type Interval struct {
	// Start is the cycle number at which the window opened.
	Start uint64 `json:"start"`
	// Cycles is the window length (the final window may be short).
	Cycles uint64 `json:"cycles"`
	// UserCycles is the part of Cycles spent outside the sampling
	// interrupt handler.
	UserCycles uint64 `json:"user_cycles"`
	// Instructions committed within the window.
	Instructions uint64 `json:"instructions"`
	// IPC is Instructions / Cycles.
	IPC float64 `json:"ipc"`
	// ROBOccupancy is the average in-flight uop count over the window.
	ROBOccupancy float64 `json:"rob_occupancy"`
	// Branches and Mispredicts committed/observed within the window.
	Branches    uint64 `json:"branches"`
	Mispredicts uint64 `json:"mispredicts"`
	// MispredictRate is Mispredicts / Branches (0 when branch-free).
	MispredictRate float64 `json:"mispredict_rate"`
	// Cache holds per-level hit/miss activity within the window.
	Cache []LevelRate `json:"cache,omitempty"`
	// Stalls attributes each cycle of the window to a cause.
	Stalls StallBreakdown `json:"stalls"`
}

// AppendJSON appends iv as encoding/json encodes it, its members at
// depth (0 for compact JSON; see jsonenc.Key).
func (iv *Interval) AppendJSON(b []byte, depth int, d *jsonenc.Doc) []byte {
	b = jsonenc.Key(append(b, '{'), depth, true, "start")
	b = strconv.AppendUint(b, iv.Start, 10)
	b = strconv.AppendUint(jsonenc.Key(b, depth, false, "cycles"), iv.Cycles, 10)
	b = strconv.AppendUint(jsonenc.Key(b, depth, false, "user_cycles"), iv.UserCycles, 10)
	b = strconv.AppendUint(jsonenc.Key(b, depth, false, "instructions"), iv.Instructions, 10)
	b = d.Float(jsonenc.Key(b, depth, false, "ipc"), iv.IPC)
	b = d.Float(jsonenc.Key(b, depth, false, "rob_occupancy"), iv.ROBOccupancy)
	b = strconv.AppendUint(jsonenc.Key(b, depth, false, "branches"), iv.Branches, 10)
	b = strconv.AppendUint(jsonenc.Key(b, depth, false, "mispredicts"), iv.Mispredicts, 10)
	b = d.Float(jsonenc.Key(b, depth, false, "mispredict_rate"), iv.MispredictRate)
	in := jsonenc.Inner(depth)
	if len(iv.Cache) > 0 {
		b = append(jsonenc.Key(b, depth, false, "cache"), '[')
		m := jsonenc.Inner(in)
		for i := range iv.Cache {
			c := &iv.Cache[i]
			b = jsonenc.Key(append(jsonenc.Elem(b, in, i), '{'), m, true, "level")
			b = jsonenc.AppendString(b, c.Level)
			b = strconv.AppendUint(jsonenc.Key(b, m, false, "hits"), c.Hits, 10)
			b = strconv.AppendUint(jsonenc.Key(b, m, false, "misses"), c.Misses, 10)
			b = d.Float(jsonenc.Key(b, m, false, "miss_rate"), c.Rate)
			b = jsonenc.End(b, m, false, '}')
		}
		b = jsonenc.End(b, in, false, ']')
	}
	st := &iv.Stalls
	b = jsonenc.Key(append(jsonenc.Key(b, depth, false, "stalls"), '{'), in, true, "commit")
	b = strconv.AppendUint(b, st.Commit, 10)
	b = strconv.AppendUint(jsonenc.Key(b, in, false, "frontend"), st.Frontend, 10)
	b = strconv.AppendUint(jsonenc.Key(b, in, false, "memory"), st.Memory, 10)
	b = strconv.AppendUint(jsonenc.Key(b, in, false, "store_buffer"), st.StoreBuffer, 10)
	b = strconv.AppendUint(jsonenc.Key(b, in, false, "execute"), st.Execute, 10)
	b = strconv.AppendUint(jsonenc.Key(b, in, false, "other"), st.Other, 10)
	b = jsonenc.End(b, in, false, '}')
	return jsonenc.End(b, depth, false, '}')
}

// intervalTracker accumulates one open window.
type intervalTracker struct {
	window uint64
	nextAt uint64 // flush when cycle reaches this
	// onWindow, when non-nil, receives each window the run loop closes.
	onWindow func(Interval)

	// Counter values at window start (deltas produce the interval).
	start       uint64
	kernel      uint64
	insts       uint64
	branches    uint64
	mispredicts uint64
	levels      []levelSnap

	robSum uint64
	stalls StallBreakdown

	out []Interval
}

type levelSnap struct {
	hits   uint64
	misses uint64
}

func newIntervalTracker(window uint64, onWindow func(Interval)) *intervalTracker {
	return &intervalTracker{window: window, nextAt: window, onWindow: onWindow}
}

// open snapshots the shared counters at the start of a window.
func (iv *intervalTracker) open(s *Sim) {
	iv.start = s.cycle
	iv.kernel = s.kernelCycles
	iv.insts = s.stats.Instructions
	iv.branches = s.stats.Branches
	iv.mispredicts = s.stats.Mispredicts
	levels := s.cache.Levels()
	if cap(iv.levels) < len(levels) {
		iv.levels = make([]levelSnap, len(levels))
	}
	iv.levels = iv.levels[:len(levels)]
	for i, l := range levels {
		iv.levels[i] = levelSnap{hits: l.Hits, misses: l.Misses}
	}
	iv.robSum = 0
	iv.stalls = StallBreakdown{}
}

// tick classifies the cycle that just executed and flushes the window
// when it is full. Called once per cycle with s.cycle already advanced;
// tolerates kernel-time jumps (advanceKernel) by closing the window at
// whatever length the jump produced.
func (iv *intervalTracker) tick(s *Sim) {
	iv.account(s, 1)
	if s.cycle >= iv.nextAt {
		if iv.flush(s) && iv.onWindow != nil {
			iv.onWindow(iv.out[len(iv.out)-1])
		}
		iv.open(s)
		iv.nextAt = s.cycle + iv.window
	}
}

// account adds n cycles spent in the machine's current state to the open
// window without flushing it; the run loop calls it directly for the
// quiet cycles it skips.
func (iv *intervalTracker) account(s *Sim, n uint64) {
	iv.robSum += n * uint64(s.robLen())
	switch {
	case s.committedThis:
		iv.stalls.Commit += n
	case s.robLen() == 0:
		iv.stalls.Frontend += n
	default:
		head := s.at(s.headSeq)
		switch {
		case head.state == stDone:
			// Finished but unretirable: store-buffer pressure (figure 8)
			// or the result lands later this cycle.
			iv.stalls.StoreBuffer += n
		case head.kind == isa.KindLoad || head.kind == isa.KindStore:
			iv.stalls.Memory += n
		case head.state == stIssued:
			iv.stalls.Execute += n
		default:
			iv.stalls.Other += n
		}
	}
}

// flush closes the current window into the output slice and reports
// whether it did: empty windows (zero cycles) are skipped.
func (iv *intervalTracker) flush(s *Sim) bool {
	cycles := s.cycle - iv.start
	if cycles == 0 {
		return false
	}
	out := Interval{
		Start:        iv.start,
		Cycles:       cycles,
		UserCycles:   cycles - (s.kernelCycles - iv.kernel),
		Instructions: s.stats.Instructions - iv.insts,
		ROBOccupancy: float64(iv.robSum) / float64(cycles),
		Branches:     s.stats.Branches - iv.branches,
		Mispredicts:  s.stats.Mispredicts - iv.mispredicts,
		Stalls:       iv.stalls,
	}
	out.IPC = float64(out.Instructions) / float64(cycles)
	if out.Branches > 0 {
		out.MispredictRate = float64(out.Mispredicts) / float64(out.Branches)
	}
	levels := s.cache.Levels()
	for i, l := range levels {
		if i >= len(iv.levels) {
			break
		}
		lr := LevelRate{
			Level:  l.Name(),
			Hits:   l.Hits - iv.levels[i].hits,
			Misses: l.Misses - iv.levels[i].misses,
		}
		if tot := lr.Hits + lr.Misses; tot > 0 {
			lr.Rate = float64(lr.Misses) / float64(tot)
		}
		out.Cache = append(out.Cache, lr)
	}
	iv.out = append(iv.out, out)
	return true
}

// finish closes the trailing partial window after the run loop exits.
// It does not reach OnWindow: the caller learns the run is over when
// RunContext returns, and finds the trailing window, if any, at the end
// of Intervals.
func (iv *intervalTracker) finish(s *Sim) {
	if iv == nil {
		return
	}
	iv.flush(s)
	iv.open(s) // reset so a second finish is a no-op
}

// Intervals returns the telemetry stream collected so far (nil when
// Options.WindowCycles was zero).
func (s *Sim) Intervals() []Interval {
	if s.iv == nil {
		return nil
	}
	out := make([]Interval, len(s.iv.out))
	copy(out, s.iv.out)
	return out
}
