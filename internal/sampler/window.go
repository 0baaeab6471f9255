package sampler

import "optiwise/internal/ooo"

// Streaming windowed profiling: when Options.WindowCycles is set, the
// sampling run emits a profile *increment* at every window boundary — a
// zero-copy Profile view of that window's records plus its counter
// deltas — and a final increment for the trailing partial window after
// the run exits. The increments are for observing the run while it
// executes; the run's own Profile is the only sampling profile built.
// Their records concatenate, in emission order, to the run's records,
// and their counter deltas telescope to the run's totals.
//
// Increment profiles are in-memory hand-offs, not trust-boundary
// artifacts: a sample whose weight spans a window boundary makes an
// individual increment violate the weight-sum ≤ UserCycles invariant
// that Validate enforces on serialized profiles.

// windowEmitter slices the growing record stream at each simulator
// window boundary into increment profiles. It runs entirely on the
// simulation goroutine (the ooo window callback is synchronous), so it
// reads the profile under construction without locking.
type windowEmitter struct {
	p    *Profile
	emit func(inc *Profile, final bool)

	lastRecs  int
	lastTotal uint64
	lastUser  uint64
	lastInsts uint64
}

// boundary converts one window mark into an increment.
func (w *windowEmitter) boundary(m ooo.WindowMark) {
	w.slice(m.Cycle, m.UserCycles, m.Instructions, false)
}

// final emits the trailing partial window from the finished run's
// totals. Always emitted — even when empty — so consumers see an
// explicit end-of-stream marker per pass.
func (w *windowEmitter) final(stats ooo.Stats) {
	w.slice(stats.Cycles, stats.UserCycles, stats.Instructions, true)
}

func (w *windowEmitter) slice(cycles, user, insts uint64, final bool) {
	n := len(w.p.Records)
	inc := &Profile{
		Module:  w.p.Module,
		Period:  w.p.Period,
		Precise: w.p.Precise,
		// Full slice expression: later appends to the run's record
		// stream must reallocate rather than scribble past this
		// increment's view.
		Records:      w.p.Records[w.lastRecs:n:n],
		TotalCycles:  cycles - w.lastTotal,
		UserCycles:   user - w.lastUser,
		Instructions: insts - w.lastInsts,
	}
	w.lastRecs = n
	w.lastTotal, w.lastUser, w.lastInsts = cycles, user, insts
	w.emit(inc, final)
}
