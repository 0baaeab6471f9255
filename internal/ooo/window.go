package ooo

// Profile-window marks: an opt-in boundary callback from the run loop,
// the substrate of the streaming (windowed) profiling mode. Unlike the
// interval-telemetry tracker (telemetry.go), which accumulates derived
// rates inside the simulator, the window hook only reports where the
// boundaries fell — the sampler slices its own record stream at each
// mark into a profile increment, so the simulator stays ignorant of
// what a "profile" is.
//
// Discipline: off by default (Options.WindowCycles == 0); the run loop
// then pays exactly one nil function compare per simulated cycle,
// mirroring the interval tracker. When on, the per-cycle cost is one
// integer compare until the boundary, where the callback fires
// synchronously on the simulation goroutine (so callbacks may read
// simulator-owned state such as the sample stream without locking). A
// boundary is an event for the run loop's quiet-cycle skipping, so a
// skip never jumps over one.

// WindowMark describes one window boundary: the cumulative counters of
// the run at the moment the boundary was crossed. Consumers diff
// successive marks to recover per-window quantities.
type WindowMark struct {
	// Start is the cycle at which the window opened.
	Start uint64
	// Cycle is the cumulative cycle count at the boundary.
	Cycle uint64
	// UserCycles is the cumulative user-mode (non-interrupt) cycle count.
	UserCycles uint64
	// Instructions is the cumulative committed-instruction count.
	Instructions uint64
}

// windowTick fires the boundary callback when the current cycle crossed
// the next window edge. Called once per cycle with s.cycle already
// advanced; tolerates kernel-time jumps (advanceKernel) by closing the
// window at whatever length the jump produced, like the interval
// tracker.
func (s *Sim) windowTick() {
	if s.cycle < s.winNext {
		return
	}
	s.onWindow(WindowMark{
		Start:        s.winStart,
		Cycle:        s.cycle,
		UserCycles:   s.cycle - s.kernelCycles,
		Instructions: s.stats.Instructions,
	})
	s.winStart = s.cycle
	s.winNext = s.cycle + s.winEvery
}
