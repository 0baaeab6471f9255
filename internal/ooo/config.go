// Package ooo implements the cycle-level out-of-order superscalar pipeline
// simulator that stands in for the paper's evaluation hardware (Intel Xeon
// W-2195 and Arm Neoverse N1).
//
// The simulator is trace-driven: an embedded functional interpreter
// (internal/interp) supplies the committed instruction stream — so the
// architectural results are correct by construction — while this package
// models *when* things happen: dispatch into a reorder buffer, dataflow
// issue with functional-unit and cache latencies, branch prediction with
// mispredict redirects, a store buffer, and W-wide in-order commit.
//
// Crucially for the reproduction, the simulator also models how *sampling*
// observes such a pipeline. A periodic sampling interrupt is delivered at
// the end of a cycle in which commit made progress and records the then-
// oldest uncommitted instruction — exactly the mechanism that produces the
// paper's quirks: never-sampled instructions (figure 2), sample pile-up
// after long-latency stores with moderate counts on commit-group leaders
// (figure 8), and, in the Neoverse-style early-dequeue mode, samples landing
// dozens of instructions after a slow divide (figure 9).
package ooo

import (
	"fmt"

	"optiwise/internal/cache"
)

// DefaultMaxStackDepth is the per-sample call-stack frame cap, matching
// perf's default 127-frame limit.
const DefaultMaxStackDepth = 127

// SampleMode selects how the sampling interrupt attributes its PC.
type SampleMode int

const (
	// SampleSkid models plain periodic perf sampling without hardware
	// assist: the interrupt is delivered once the stalled head retires, so
	// samples "skid" onto the successor of the truly expensive
	// instruction (§II-A, §V-B).
	SampleSkid SampleMode = iota
	// SamplePrecise models Intel PEBS-style precise attribution: the
	// sample records the oldest uncommitted instruction at the moment the
	// counter overflows (§III, point 1).
	SamplePrecise
)

// Config describes one simulated machine.
type Config struct {
	Name string

	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int
	IQSize      int
	SBSize      int // store buffer entries

	// Latencies in cycles.
	MulLat     uint64
	DivLat     uint64 // non-pipelined
	FPLat      uint64
	FDivLat    uint64 // non-pipelined
	SyscallLat uint64

	// Functional-unit issue bandwidth per cycle.
	ALUs       int
	MulUnits   int
	FPUs       int
	LoadPorts  int
	StorePorts int

	// MispredictPenalty is the front-end refill delay after a branch
	// resolves on the wrong path.
	MispredictPenalty uint64

	// EarlyDequeue enables the Neoverse-N1-style commit model in which a
	// dispatched operation that cannot abort is immediately removed from
	// the (sampling-visible) reorder buffer (§V-B "AArch64").
	EarlyDequeue bool

	// Cache is the data-side hierarchy geometry.
	Cache cache.Config

	// Predictor geometry.
	GshareTableBits   uint
	GshareHistoryBits uint
	BTBBits           uint
	RASDepth          int
	// UseBimodal swaps the gshare direction predictor for a history-free
	// bimodal one (ablation).
	UseBimodal bool
}

// Validate reports whether c describes a machine the simulator can run
// without deadlocking or dividing by zero: every pipeline width, window
// size, functional-unit count, and latency must be at least 1. A machine
// with, say, zero FPUs would livelock the first FP instruction (it could
// never issue), so such configurations are rejected up front with a
// descriptive error rather than hanging a profiling run.
func (c Config) Validate() error {
	checks := []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth},
		{"IssueWidth", c.IssueWidth},
		{"CommitWidth", c.CommitWidth},
		{"ROBSize", c.ROBSize},
		{"IQSize", c.IQSize},
		{"SBSize", c.SBSize},
		{"ALUs", c.ALUs},
		{"MulUnits", c.MulUnits},
		{"FPUs", c.FPUs},
		{"LoadPorts", c.LoadPorts},
		{"StorePorts", c.StorePorts},
		{"RASDepth", c.RASDepth},
	}
	for _, ch := range checks {
		if ch.v < 1 {
			return fmt.Errorf("ooo: machine %q: %s must be at least 1, got %d",
				c.Name, ch.name, ch.v)
		}
	}
	type latency struct {
		name string
		v    uint64
	}
	lats := []latency{
		{"MulLat", c.MulLat},
		{"DivLat", c.DivLat},
		{"FPLat", c.FPLat},
		{"FDivLat", c.FDivLat},
		{"SyscallLat", c.SyscallLat},
		{"Cache.MemLatency", c.Cache.MemLatency},
	}
	// Cache latencies count too: the issue stage relies on nothing
	// finishing in the cycle it issues (see Sim.issue).
	for _, lc := range c.Cache.Levels {
		lats = append(lats, latency{"Cache " + lc.Name + " latency", lc.Latency})
	}
	for _, l := range lats {
		if l.v < 1 {
			return fmt.Errorf("ooo: machine %q: %s must be at least 1 cycle, got 0",
				c.Name, l.name)
		}
	}
	return nil
}

// XeonW2195 returns a configuration shaped like the paper's evaluation
// machine: 4-wide, large ROB, non-pipelined dividers, 4 ops/cycle maximum
// commit rate (the "commit group" size visible in figure 8).
func XeonW2195() Config {
	return Config{
		Name:        "xeon-w2195",
		FetchWidth:  4,
		IssueWidth:  4,
		CommitWidth: 4,
		ROBSize:     224,
		IQSize:      96,
		SBSize:      14,
		MulLat:      3,
		DivLat:      36,
		FPLat:       4,
		FDivLat:     24,
		SyscallLat:  400,

		ALUs:       4,
		MulUnits:   1,
		FPUs:       2,
		LoadPorts:  2,
		StorePorts: 1,

		MispredictPenalty: 14,
		Cache:             cache.XeonW2195(),

		GshareTableBits:   14,
		GshareHistoryBits: 12,
		BTBBits:           12,
		RASDepth:          16,
	}
}

// NeoverseN1 returns an N1-like configuration with the early-dequeue
// commit model. The issue queue size of 48 is the back-pressure distance
// the paper infers from its figure 9 micro-benchmark.
func NeoverseN1() Config {
	return Config{
		Name:        "neoverse-n1",
		FetchWidth:  4,
		IssueWidth:  4,
		CommitWidth: 4,
		ROBSize:     128,
		IQSize:      48,
		SBSize:      12,
		MulLat:      3,
		DivLat:      20,
		FPLat:       4,
		FDivLat:     18,
		SyscallLat:  400,

		ALUs:       3,
		MulUnits:   1,
		FPUs:       2,
		LoadPorts:  2,
		StorePorts: 1,

		MispredictPenalty: 11,
		EarlyDequeue:      true,
		Cache:             cache.NeoverseN1(),

		GshareTableBits:   14,
		GshareHistoryBits: 12,
		BTBBits:           12,
		RASDepth:          16,
	}
}
