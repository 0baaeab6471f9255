package sampler

import "optiwise/internal/ooo"

// Window is one sampling-pass window as the run hands it over while it
// executes: the simulator's Interval record for the window's cycles and
// a zero-copy view of the samples taken in them. The windows' Intervals
// are the run's own Profile.Intervals, and their Records concatenate,
// in emission order, to the run's Records.
//
// A sample whose weight spans a window boundary makes a window's
// weight sum exceed its UserCycles; windows are in-memory hand-offs,
// not validated artifacts.
type Window struct {
	ooo.Interval
	Records []Record
}

// windowEmitter slices the growing record stream at each window the
// simulator closes. It runs entirely on the simulation goroutine (the
// ooo window callback is synchronous), so it reads the profile under
// construction without locking.
type windowEmitter struct {
	p    *Profile
	emit func(w Window, final bool)

	sent     int // windows emitted so far
	lastRecs int // records already handed over
}

// boundary emits one window the run loop closed.
func (w *windowEmitter) boundary(iv ooo.Interval) {
	w.slice(iv, false)
}

// final emits the trailing partial window once the run is over: the
// last of the profile's Intervals if the run loop did not deliver it,
// else an empty window. Always emitted, so consumers see an explicit
// end-of-stream marker per pass.
func (w *windowEmitter) final() {
	var iv ooo.Interval
	if n := len(w.p.Intervals); n > w.sent {
		iv = w.p.Intervals[n-1]
	}
	w.slice(iv, true)
}

func (w *windowEmitter) slice(iv ooo.Interval, final bool) {
	n := len(w.p.Records)
	// Full slice expression: later appends to the run's record stream
	// must reallocate rather than scribble past this window's view.
	w.emit(Window{Interval: iv, Records: w.p.Records[w.lastRecs:n:n]}, final)
	w.lastRecs = n
	w.sent++
}
