package dbi

// Streaming windowed profiling, instrumentation half: when
// Options.WindowInstructions is set, the engine reports a Window every
// N retired (original-program) instructions plus a final one after the
// run exits. A Window is an observation of progress, not a profile
// increment: the run's own Profile is the only edge profile built, and
// the windows' counts telescope to its totals.
//
// Windows are measured in retired instructions because the functional
// interpreter has no cycle clock; the caller maps its cycle-based
// stream window onto instructions, the same loose equivalence
// optiwise.Options.MaxCycles already uses for this pass. Boundaries are
// checked at block granularity (blocks are a handful of instructions),
// so when disabled the run loop pays one nil compare per block.

// Window summarizes the instrumentation work of one stream window.
type Window struct {
	// Instructions is the original-program instructions retired.
	Instructions uint64
	// BlockExecs is the instrumented block executions.
	BlockExecs uint64
	// NewBlocks is the blocks first discovered. A block is executed in
	// the loop iteration that discovers it, so every new block also
	// contributes to BlockExecs.
	NewBlocks int
}

// winState is the engine's window-emission state, nil when streaming is
// off.
type winState struct {
	every uint64
	next  uint64
	emit  func(w Window, final bool)
	last  Window // run totals at the previous flush
}

// flushWindow emits the run's progress since the previous flush.
func (e *Engine) flushWindow(final bool) {
	w := e.win
	now := Window{Instructions: e.m.Steps, NewBlocks: len(e.prof.Blocks)}
	for _, b := range e.prof.Blocks {
		now.BlockExecs += b.Count
	}
	w.emit(Window{
		Instructions: now.Instructions - w.last.Instructions,
		BlockExecs:   now.BlockExecs - w.last.BlockExecs,
		NewBlocks:    now.NewBlocks - w.last.NewBlocks,
	}, final)
	w.last = now
}
