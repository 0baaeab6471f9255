// Package stream observes a profiling run window by window.
//
// Continuous profiling (§V of the paper discusses per-run overhead; this
// layer is the repo's continuous-operation extension) splits each of the
// two OptiWISE passes into a stream of windows: the sampling pass hands
// over each simulated-cycle window as a sampler.Window (the window's
// ooo.Interval, which is also one of the Result's Intervals, plus a
// zero-copy view of its records), and the instrumentation pass a
// dbi.Window count summary per retired-instruction window. A Combiner folds them
// into per-window summaries, running totals and a hot-function list —
// the mid-run view. It never rebuilds a profile: each pass builds its
// own profile once, and the run's Result is the one combine of those.
package stream

import (
	"fmt"
	"sync"

	"optiwise/internal/core"
	"optiwise/internal/dbi"
	"optiwise/internal/program"
	"optiwise/internal/sampler"
)

// Increment is one windowed hand-off from a profiling pass.
type Increment struct {
	// Pass is core.PassSampling or core.PassInstrumentation.
	Pass string
	// Seq numbers increments per pass, from zero, in emission order.
	Seq int
	// Final marks the trailing increment of a pass (always emitted,
	// even when empty, as the end-of-stream marker).
	Final bool
	// Sample is set on sampling increments: the window's interval and
	// a view of its records. Edge is set on instrumentation increments.
	Sample *sampler.Window
	Edge   *dbi.Window
}

// SampleWindow summarizes one sampling increment for reporting: a
// projection of its interval (IPC over user cycles, unlike the
// interval's own IPC over all cycles) plus its sample count and weight.
type SampleWindow struct {
	Seq          int     `json:"seq"`
	Cycles       uint64  `json:"cycles"`
	UserCycles   uint64  `json:"user_cycles"`
	Instructions uint64  `json:"instructions"`
	Samples      int     `json:"samples"`
	WeightCycles uint64  `json:"weight_cycles"`
	IPC          float64 `json:"ipc"`
	Final        bool    `json:"final"`
}

// EdgeWindow summarizes one instrumentation increment.
type EdgeWindow struct {
	Seq          int    `json:"seq"`
	Instructions uint64 `json:"instructions"`
	BlockExecs   uint64 `json:"block_execs"`
	NewBlocks    int    `json:"new_blocks"`
	Final        bool   `json:"final"`
}

// FuncCycles is a cumulative per-function cycle estimate from sample
// weights, maintained incrementally as windows arrive.
type FuncCycles struct {
	Name    string `json:"name"`
	Cycles  uint64 `json:"cycles"`
	Samples uint64 `json:"samples"`
}

// Snapshot is a point-in-time view of a streaming run: the per-window
// summaries plus cumulative totals. It is cheap (no core combine) and
// safe to take while the run is still emitting.
type Snapshot struct {
	SampleWindows []SampleWindow `json:"sample_windows"`
	EdgeWindows   []EdgeWindow   `json:"edge_windows"`
	SampleDone    bool           `json:"sample_done"`
	EdgeDone      bool           `json:"edge_done"`
	Complete      bool           `json:"complete"`

	// Cumulative sampling-pass totals.
	Cycles       uint64  `json:"cycles"`
	UserCycles   uint64  `json:"user_cycles"`
	Instructions uint64  `json:"instructions"`
	Samples      int     `json:"samples"`
	IPC          float64 `json:"ipc"`
	// Cumulative instrumentation-pass totals.
	EdgeInstructions uint64 `json:"edge_instructions"`
	Blocks           int    `json:"blocks"`

	// TopFuncs are cumulative per-function cycle estimates, hottest
	// first, capped at topFuncLimit.
	TopFuncs []FuncCycles `json:"top_funcs,omitempty"`
}

// topFuncLimit bounds the per-snapshot hot-function list.
const topFuncLimit = 10

// Combiner folds increments into per-window summaries and running
// totals. All methods are safe for concurrent use: the two passes emit
// from their own goroutines while snapshots are taken from others.
type Combiner struct {
	mu   sync.Mutex
	prog *program.Program

	sampleWindows []SampleWindow
	edgeWindows   []EdgeWindow
	sampleDone    bool
	edgeDone      bool

	// Running totals over the absorbed windows.
	cycles, userCycles, instructions uint64
	samples                          int
	edgeInstructions                 uint64
	blocks                           int

	funcs map[string]*FuncCycles
}

// NewCombiner returns a Combiner for a streaming run of prog; prog
// names the functions that sample records fall in.
func NewCombiner(prog *program.Program) *Combiner {
	return &Combiner{
		prog:  prog,
		funcs: make(map[string]*FuncCycles),
	}
}

// Add folds one increment into the cumulative state. Each pass's
// increments must arrive in emission order: a Seq other than the
// number of windows that pass has already absorbed (a duplicate or a
// gap) is rejected, since folding it would miscount the cumulative
// totals.
func (c *Combiner) Add(inc Increment) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch inc.Pass {
	case core.PassSampling:
		return c.addSample(inc)
	case core.PassInstrumentation:
		return c.addEdge(inc)
	default:
		return fmt.Errorf("stream: unknown pass %q", inc.Pass)
	}
}

func (c *Combiner) addSample(inc Increment) error {
	if inc.Sample == nil {
		return fmt.Errorf("stream: sampling increment without a profile")
	}
	if c.sampleDone {
		return fmt.Errorf("stream: sampling increment after the final window")
	}
	if err := checkSeq(inc, len(c.sampleWindows)); err != nil {
		return err
	}
	var weight uint64
	for i := range inc.Sample.Records {
		r := &inc.Sample.Records[i]
		weight += r.Weight
		name := "[unknown]"
		if f, ok := c.prog.FuncAt(r.Offset); ok {
			name = f.Name
		}
		fc := c.funcs[name]
		if fc == nil {
			fc = &FuncCycles{Name: name}
			c.funcs[name] = fc
		}
		fc.Cycles += r.Weight
		fc.Samples++
	}
	iv := &inc.Sample.Interval
	c.cycles += iv.Cycles
	c.userCycles += iv.UserCycles
	c.instructions += iv.Instructions
	c.samples += len(inc.Sample.Records)
	c.sampleWindows = append(c.sampleWindows, SampleWindow{
		Seq:          inc.Seq,
		Cycles:       iv.Cycles,
		UserCycles:   iv.UserCycles,
		Instructions: iv.Instructions,
		Samples:      len(inc.Sample.Records),
		WeightCycles: weight,
		IPC:          ipc(iv.Instructions, iv.UserCycles),
		Final:        inc.Final,
	})
	if inc.Final {
		c.sampleDone = true
	}
	return nil
}

func (c *Combiner) addEdge(inc Increment) error {
	if inc.Edge == nil {
		return fmt.Errorf("stream: instrumentation increment without a window")
	}
	if c.edgeDone {
		return fmt.Errorf("stream: instrumentation increment after the final window")
	}
	if err := checkSeq(inc, len(c.edgeWindows)); err != nil {
		return err
	}
	c.edgeInstructions += inc.Edge.Instructions
	c.blocks += inc.Edge.NewBlocks
	c.edgeWindows = append(c.edgeWindows, EdgeWindow{
		Seq:          inc.Seq,
		Instructions: inc.Edge.Instructions,
		BlockExecs:   inc.Edge.BlockExecs,
		NewBlocks:    inc.Edge.NewBlocks,
		Final:        inc.Final,
	})
	if inc.Final {
		c.edgeDone = true
	}
	return nil
}

// Complete reports whether both passes have delivered their final
// increments.
func (c *Combiner) Complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sampleDone && c.edgeDone
}

// Snapshot returns the current per-window summaries and cumulative
// totals without running a combine.
func (c *Combiner) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		SampleWindows: append([]SampleWindow(nil), c.sampleWindows...),
		EdgeWindows:   append([]EdgeWindow(nil), c.edgeWindows...),
		SampleDone:    c.sampleDone,
		EdgeDone:      c.edgeDone,
		Complete:      c.sampleDone && c.edgeDone,
	}
	s.Cycles = c.cycles
	s.UserCycles = c.userCycles
	s.Instructions = c.instructions
	s.Samples = c.samples
	s.IPC = ipc(c.instructions, c.userCycles)
	s.EdgeInstructions = c.edgeInstructions
	s.Blocks = c.blocks
	for _, fc := range c.funcs {
		s.TopFuncs = append(s.TopFuncs, *fc)
	}
	// Hottest first; ties break by name for deterministic output.
	for i := 1; i < len(s.TopFuncs); i++ {
		for j := i; j > 0 && hotter(s.TopFuncs[j], s.TopFuncs[j-1]); j-- {
			s.TopFuncs[j], s.TopFuncs[j-1] = s.TopFuncs[j-1], s.TopFuncs[j]
		}
	}
	if len(s.TopFuncs) > topFuncLimit {
		s.TopFuncs = s.TopFuncs[:topFuncLimit]
	}
	return s
}

func hotter(a, b FuncCycles) bool {
	if a.Cycles != b.Cycles {
		return a.Cycles > b.Cycles
	}
	return a.Name < b.Name
}

// checkSeq rejects an increment whose Seq is not the next one its
// pass expects.
func checkSeq(inc Increment, absorbed int) error {
	if inc.Seq != absorbed {
		return fmt.Errorf("stream: %s increment seq %d out of order (want %d)", inc.Pass, inc.Seq, absorbed)
	}
	return nil
}

func ipc(insts, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(insts) / float64(cycles)
}
