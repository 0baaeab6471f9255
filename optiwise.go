// Package optiwise is a from-scratch reproduction of "OptiWISE: Combining
// Sampling and Instrumentation for Granular CPI Analysis" (CGO 2024).
//
// OptiWISE profiles a program twice — once with low-overhead periodic
// sampling that measures real performance, and once with dynamic binary
// instrumentation that captures exact control flow and execution counts —
// and combines the two into a per-instruction CPI metric, aggregated to
// basic blocks, merged loops, source lines, and functions.
//
// Because the original runs on x86-64/AArch64 hardware under Linux perf and
// DynamoRIO, this reproduction ships its entire substrate: the OWISA toy
// ISA and assembler, a cycle-level out-of-order superscalar simulator with
// ROB-head sampling semantics (the "hardware"), a perf-like sampler, and a
// DynamoRIO-like instrumentation engine. See DESIGN.md for the inventory.
//
// # Quick start
//
//	prog, err := optiwise.Assemble("demo", source)
//	...
//	prof, err := optiwise.Profile(prog, optiwise.Options{})
//	...
//	optiwise.WriteReport(os.Stdout, prof)
package optiwise

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"optiwise/internal/asm"
	"optiwise/internal/core"
	"optiwise/internal/dbi"
	"optiwise/internal/fault"
	"optiwise/internal/interp"
	"optiwise/internal/obs"
	"optiwise/internal/ooo"
	"optiwise/internal/program"
	"optiwise/internal/report"
	"optiwise/internal/sampler"
	"optiwise/internal/stream"
)

// Machine describes the simulated processor a program is profiled on.
type Machine = ooo.Config

// XeonW2195 returns the paper's x86-style evaluation machine: 4-wide
// out-of-order, large ROB, skid-prone sampling at the reorder-buffer head.
func XeonW2195() Machine { return ooo.XeonW2195() }

// NeoverseN1 returns the paper's AArch64-style machine with the
// early-dequeue commit model of §V-B.
func NeoverseN1() Machine { return ooo.NeoverseN1() }

// MachineByName resolves a machine identifier as used by the CLI and the
// profiling service. The empty string selects the default (XeonW2195);
// unknown names produce a descriptive error listing the alternatives.
func MachineByName(name string) (Machine, error) {
	switch name {
	case "", "xeon", "xeon-w2195":
		return XeonW2195(), nil
	case "n1", "neoverse-n1":
		return NeoverseN1(), nil
	}
	return Machine{}, fmt.Errorf("unknown machine %q (available: xeon, xeon-w2195, n1, neoverse-n1)", name)
}

// Program is an assembled OWISA module ready to run or profile. It is
// immutable once built and safe for concurrent use: one Program may be
// profiled by any number of goroutines at once.
type Program struct {
	prog *program.Program

	// The OWX image, encoded on first use by Binary.
	owxOnce sync.Once
	owx     []byte
	owxErr  error
}

// Assemble builds a Program from OWISA assembly source. The module name
// keys all profile data (see internal/asm for the syntax).
func Assemble(module, source string) (*Program, error) {
	p, err := asm.Assemble(module, source)
	if err != nil {
		return nil, err
	}
	return &Program{prog: p}, nil
}

// Module returns the program's module identifier.
func (p *Program) Module() string { return p.prog.Module }

// WriteBinary serializes the assembled program as an OWX image — the
// repository's ELF stand-in, consumable by the optiwise CLI without
// re-assembly.
func (p *Program) WriteBinary(w io.Writer) error {
	b, err := p.Binary()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Binary returns the OWX image WriteBinary writes. The program encodes
// it once and every call returns the same slice, which callers must not
// modify.
func (p *Program) Binary() ([]byte, error) {
	p.owxOnce.Do(func() {
		var buf bytes.Buffer
		p.owxErr = p.prog.WriteOWX(&buf)
		p.owx = buf.Bytes()
	})
	return p.owx, p.owxErr
}

// ReadBinary loads a program from an OWX image written by WriteBinary.
func ReadBinary(r io.Reader) (*Program, error) {
	raw, err := program.ReadOWX(r)
	if err != nil {
		return nil, err
	}
	return &Program{prog: raw}, nil
}

// Raw exposes the underlying program image for advanced use (report
// annotation, custom analyses). It is read-only: the Program caches its
// OWX encoding (Binary), and a profiling service may share one Program
// across many submissions.
func (p *Program) Raw() *program.Program { return p.prog }

// RunResult describes one native (uninstrumented, unsampled) execution.
type RunResult struct {
	// Cycles is the simulated execution time.
	Cycles uint64
	// Instructions retired.
	Instructions uint64
	// IPC is Instructions/Cycles.
	IPC float64
	// ExitCode is the program's exit status; Output its stdout+stderr.
	ExitCode int64
	Output   []byte
	// Mispredicts and Branches describe control-flow behaviour.
	Mispredicts uint64
	Branches    uint64
}

// Run executes the program natively on machine m — the baseline the
// paper's figure 7 overheads are measured against.
func (p *Program) Run(m Machine) (RunResult, error) {
	if err := m.Validate(); err != nil {
		return RunResult{}, err
	}
	img := program.Load(p.prog, program.LoadOptions{})
	sim := ooo.New(m, img, ooo.Options{RandSeed: 7})
	st, err := sim.Run(0)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Cycles:       st.Cycles,
		Instructions: st.Instructions,
		IPC:          st.IPC(),
		ExitCode:     sim.Arch().ExitCode,
		Output:       sim.Arch().Output,
		Mispredicts:  st.Mispredicts,
		Branches:     st.Branches,
	}, nil
}

// Interpret executes the program on the functional interpreter (no
// timing) — the native baseline of the instrumentation overhead model.
// It runs the direct-threaded engine; the switch Machine.Run stays the
// tests' independent reference.
func (p *Program) Interpret() (RunResult, error) {
	img := program.Load(p.prog, program.LoadOptions{})
	m := interp.New(img, 7)
	if err := interp.Translate(img).Run(m, 0); err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Instructions: m.Steps,
		ExitCode:     m.ExitCode,
		Output:       m.Output,
	}, nil
}

// Attribution selects how samples map back to instructions; see §III and
// §V-B of the paper.
type Attribution = core.Attribution

// Attribution modes.
const (
	AttrAuto        = core.AttrAuto
	AttrNone        = core.AttrNone
	AttrPredecessor = core.AttrPredecessor
)

// Options configures a full OptiWISE profiling run (both executions plus
// analysis). The zero value is a sensible default.
type Options struct {
	// Machine is the simulated processor; zero value means XeonW2195.
	Machine Machine
	// SamplePeriod is the sampling period in user cycles (default 2000).
	SamplePeriod uint64
	// InterruptCost is kernel cycles per sample (default
	// sampler.DefaultInterruptCost).
	InterruptCost uint64
	// Precise selects PEBS-style precise sample attribution.
	Precise bool
	// SampleJitter varies the sampling period (±25%), modelling the
	// interrupt-timing noise the per-sample weights correct (§IV-B).
	SampleJitter bool
	// StackProfiling enables the Algorithm 1 instrumentation (§IV-D);
	// without it, loop and function totals lack callee attribution.
	// Default on (matching the tool's default).
	DisableStackProfiling bool
	// Attribution overrides the sample re-attribution mode.
	Attribution Attribution
	// Unweighted ignores per-sample cycle weights (ablation).
	Unweighted bool
	// LoopThreshold is Algorithm 2's T (default 3).
	LoopThreshold uint64
	// SampleASLRSeed / InstrASLRSeed randomize each run's load base;
	// distinct bases exercise the module-relative aggregation of §IV-A.
	SampleASLRSeed int64
	InstrASLRSeed  int64
	// RandSeed seeds the profiled program's deterministic SysRand.
	RandSeed uint64
	// MaxCycles bounds each profiled execution: simulated cycles for the
	// sampling run and retired instructions for the instrumentation run
	// (a deliberately loose shared bound). 0 means unlimited. Long-lived
	// callers (the profiling service) set it so a runaway program cannot
	// pin a worker forever.
	MaxCycles uint64
	// Window, when non-zero, splits the sampled run into windows of
	// this many simulated cycles. Each window is one record of IPC, ROB
	// occupancy, branch-mispredict rate, per-level cache miss rate, and
	// stall-cause breakdown from the simulated core. The records ride
	// on the Result (Result.Intervals), are rendered as a phase summary
	// in the text report, and export as Chrome-trace counter tracks, so
	// Window is a profile parameter and part of the cache identity.
	// With OnIncrement set, the same windows are also streamed while
	// the run executes: each pass emits an increment per window — the
	// sampling run's interval record with its samples, and a count
	// summary every Window retired instructions of the instrumentation
	// run (the same loose cycle/instruction equivalence as MaxCycles) —
	// plus a final increment per pass when it exits. Zero (the default)
	// disables windows entirely; the run loops then pay one nil compare
	// per cycle (sampling) / per block (instrumentation).
	Window uint64
	// OnIncrement receives every increment of a run with a Window,
	// synchronously on the emitting pass's goroutine. With concurrent
	// passes it is called from two goroutines; StreamCombiner.Add is
	// safe for that. It only observes: the Result is the same with or
	// without it.
	OnIncrement func(stream.Increment)
	// Tiered enables tiered adaptive instrumentation (DESIGN.md §12):
	// the sampling pass runs first, its cycle attribution selects which
	// code regions earn full instrumentation (HotThreshold over aligned
	// sub-function windows, plus a coverage floor of entry instructions
	// per function — except tiny ret-terminated leaves, which are left
	// to their callers' edge records), and the DBI pass instruments only that
	// selection — cold code runs
	// through the threaded engine's cold path at near-native modelled
	// cost. The Result carries exact cycles everywhere and exact counts
	// for hot code; cold-code counts are extrapolated from sampling
	// time-shares and flagged Estimated. Tiered runs are inherently
	// sequential (the DBI pass consumes the sampling pass's output), so
	// the pass-overlap schedule does not apply. Tiered is a profile
	// parameter: it changes what is measured, so it is part of cache
	// identity. Applies to Profile/ProfileContext; InstrumentOnly
	// ignores it (there is no sampling profile to derive a selection
	// from).
	Tiered bool
	// HotThreshold is the tiered-mode hotness cutoff: an aligned
	// region of core.RegionInsts instructions whose sampled cycle share
	// is at least this fraction of total cycle mass is instrumented.
	// 0 means DefaultHotThreshold; values must lie in (0, 1]. Ignored
	// unless Tiered is set.
	HotThreshold float64
	// AllowDegraded opts into partial results: when exactly one of the
	// two profiling passes fails (for a reason other than the caller's
	// own cancellation), ProfileContext returns a Result with Degraded
	// set instead of an error — sampling-only (cycles without execution
	// counts; time-share CPI estimates) when instrumentation failed, or
	// counts-only (execution counts without cycles) when sampling
	// failed. Degraded results are never admitted to the service's
	// result cache. See DESIGN.md §8.
	AllowDegraded bool
	// FaultSpec installs a deterministic fault-injection plan
	// (internal/fault spec grammar) for this run, for chaos testing and
	// failure-drill tooling. It is an execution harness, not a profile
	// parameter: Canonical clears it, the profiling service never
	// accepts one remotely, and a spec differing from an already-active
	// global plan is an error rather than a silent replacement.
	FaultSpec string
}

// DefaultHotThreshold is the tiered-mode hotness cutoff applied when
// Options.HotThreshold is zero: code regions carrying at least 1% of
// the sampled cycle mass are instrumented.
const DefaultHotThreshold = 0.01

func (o *Options) fill() {
	if o.Machine.Name == "" {
		o.Machine = XeonW2195()
	}
	if o.Tiered && o.HotThreshold == 0 {
		o.HotThreshold = DefaultHotThreshold
	}
	if o.SamplePeriod == 0 {
		o.SamplePeriod = 2000
	}
	if o.InterruptCost == 0 {
		o.InterruptCost = sampler.DefaultInterruptCost
	}
	if o.SampleASLRSeed == 0 {
		o.SampleASLRSeed = 101
	}
	if o.InstrASLRSeed == 0 {
		o.InstrASLRSeed = 202
	}
}

// Canonical returns o with every defaulted (zero) field resolved to its
// documented default. Two Options values that profile identically have
// identical Canonical forms, which is what makes them usable as part of
// a content-addressed cache key. FaultSpec is cleared: injected faults
// change whether a run succeeds, never what a successful run computes (a
// corrupted or aborted run yields an error or a degraded result, and
// those are cache-ineligible). AllowDegraded survives: it changes
// execution policy, but full successes are identical either way and
// degraded results never reach the cache, so it is excluded from the
// cache key separately (see serve.jobKey).
func (o Options) Canonical() Options {
	o.fill()
	o.FaultSpec = ""
	// A threshold without tiered mode is inert; clear it so it cannot
	// split cache identity between otherwise identical submissions.
	if !o.Tiered {
		o.HotThreshold = 0
	}
	// Observing a run's windows does not change its Result, so the
	// hook is not part of the profile's identity; the window is.
	o.OnIncrement = nil
	return o
}

// Validation bounds. Values beyond these are either physically
// meaningless for the simulated machines or would overflow downstream
// cycle arithmetic.
const (
	maxSamplePeriod  = 1 << 32
	maxInterruptCost = 1 << 24
	maxLoopThreshold = 1 << 20
	maxMaxCycles     = uint64(1) << 62
	// Windows below this would make the interval stream rival the
	// profile itself in size (one record per window); windows above the
	// max are indistinguishable from "one interval for the run".
	minWindow = 64
	maxWindow = uint64(1) << 40
)

// Validate reports descriptive errors for option values that fill()
// cannot sensibly patch. Zero values are not errors — they select the
// documented defaults — but explicit out-of-range values, interrupt
// costs that would starve user execution, malformed machines, and
// cycle bounds that would overflow are all rejected. Every entry point
// that runs a pass (Profile, SampleOnly, InstrumentOnly,
// TieredInstrumentOnly, MeasureOverhead and their Context forms) calls
// it on the caller's options before filling defaults.
func (o Options) Validate() error {
	if o.SamplePeriod > maxSamplePeriod {
		return fmt.Errorf("optiwise: sampling period %d exceeds maximum %d",
			o.SamplePeriod, int64(maxSamplePeriod))
	}
	if o.InterruptCost > maxInterruptCost {
		return fmt.Errorf("optiwise: interrupt cost %d exceeds maximum %d",
			o.InterruptCost, int64(maxInterruptCost))
	}
	period := o.SamplePeriod
	if period == 0 {
		period = 2000 // the documented default, see fill
	}
	// The default cost is exempt: it is what fill gives an unset cost,
	// which is accepted at any period, so a filled (Canonical) copy of
	// valid options stays valid.
	if o.InterruptCost >= period && o.InterruptCost != sampler.DefaultInterruptCost {
		return fmt.Errorf("optiwise: interrupt cost %d must be smaller than the sampling period %d (the sampler would never make user progress)",
			o.InterruptCost, period)
	}
	if o.Machine.Name != "" {
		if err := o.Machine.Validate(); err != nil {
			return fmt.Errorf("optiwise: invalid machine: %w", err)
		}
	}
	if o.LoopThreshold > maxLoopThreshold {
		return fmt.Errorf("optiwise: loop threshold %d exceeds maximum %d",
			o.LoopThreshold, int64(maxLoopThreshold))
	}
	if o.MaxCycles > maxMaxCycles {
		return fmt.Errorf("optiwise: max cycles %d would overflow cycle arithmetic (maximum 2^62)",
			o.MaxCycles)
	}
	if o.Window != 0 {
		if o.Window < minWindow {
			return fmt.Errorf("optiwise: window %d below minimum %d (the interval stream would dwarf the profile)",
				o.Window, minWindow)
		}
		if o.Window > maxWindow {
			return fmt.Errorf("optiwise: window %d exceeds maximum 2^40", o.Window)
		}
	}
	// Written so that NaN, which fails every comparison, is rejected.
	if !(o.HotThreshold >= 0 && o.HotThreshold <= 1) {
		return fmt.Errorf("optiwise: hot threshold %g outside (0, 1]", o.HotThreshold)
	}
	if o.FaultSpec != "" {
		if _, err := fault.Parse(o.FaultSpec); err != nil {
			return fmt.Errorf("optiwise: invalid fault spec: %w", err)
		}
	}
	return nil
}

// Result is the combined granular-CPI profile. It aliases the analysis
// package's type, so all query methods (InstAt, FuncByName, LoopByHeader,
// HottestInst) and record slices (Insts, Funcs, Loops, Lines) are
// available.
type Result = core.Profile

// Profile runs the complete OptiWISE pipeline on prog: a sampling run on
// the simulated machine, an instrumentation run under the DBI engine, and
// the combining analysis.
func Profile(prog *Program, opts Options) (*Result, error) {
	return ProfileContext(context.Background(), prog, opts)
}

// ProfileContext is Profile with cooperative cancellation: ctx is
// threaded through both profiled executions down to cycle-granularity
// checks in the pipeline-simulator and DBI run loops, so a canceled or
// expired context aborts a profiling run within a bounded number of
// simulated cycles. The returned error wraps ctx.Err().
//
// Outside tiered mode the sampling and instrumentation passes run
// concurrently: they are independent executions of the same binary
// (§IV), so overlapping them hides the cheaper pass entirely. The first
// pass to fail cancels its sibling (errgroup semantics), and the
// combined Result is byte-identical to SampleOnly, InstrumentOnly and
// Analyze run back to back — each pass is deterministic in isolation
// and the combining analysis sees exactly the same two profiles.
//
// With Options.AllowDegraded the failure semantics soften: a failing
// pass no longer cancels its sibling, and when exactly one pass fails
// for its own reasons (not the caller's cancellation) the survivor is
// analyzed alone into a Result with Degraded set (DESIGN.md §8). A
// panic inside either pass is recovered into a *PanicError instead of
// crashing the process, so long-lived callers (the profiling service)
// degrade or fail the one job rather than dying.
func ProfileContext(ctx context.Context, prog *Program, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	if opts.FaultSpec != "" {
		if err := fault.EnsureSpec(opts.FaultSpec); err != nil {
			return nil, err
		}
	}
	span := obs.StartCtx(ctx, "profile").SetAttr("module", prog.Module())
	defer span.End()
	// Downstream stages (analyze, degraded analyze) parent under this
	// span via the context rather than the tracer's ambient stack, so
	// concurrent jobs in one process keep their lineages separate.
	ctx = obs.ContextWithSpan(ctx, span)
	sp, ep, sampleErr, instrErr := runPasses(ctx, prog, opts, span)
	if sampleErr == nil && instrErr == nil {
		return AnalyzeContext(ctx, prog, sp, ep, opts)
	}
	err := selectPassError(sampleErr, instrErr)
	if opts.AllowDegraded && ctx.Err() == nil && !isCancellation(err) {
		switch {
		case instrErr != nil && sampleErr == nil:
			span.SetAttr("degraded", "sampling-only")
			return analyzeDegraded(ctx, prog, sp, nil, opts, instrErr)
		case sampleErr != nil && instrErr == nil:
			span.SetAttr("degraded", "counts-only")
			return analyzeDegraded(ctx, prog, nil, ep, opts, sampleErr)
		}
		// Both passes failed on their own: nothing survives to degrade to.
	}
	return nil, err
}

// PanicError is a panic recovered from a profiling pass, converted
// into an ordinary error carrying the panic value and the stack at
// recovery time. The serve layer classifies it as transient (a panic
// is as likely a corrupted in-memory state as a deterministic bug, and
// the retry budget caps the damage either way).
type PanicError struct {
	// Op names the pass that panicked ("sampling" or "instrumentation").
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("optiwise: %s pass panicked: %v", e.Op, e.Value)
}

// selectPassError picks the error to surface when at least one pass
// failed, deterministically in the paper's sample-then-instrument
// order: the sampling pass's error wins. When only the instrumentation
// pass failed for its own reasons, the sampling pass may still have
// been torn down by the shared cancel — prefer the root cause.
func selectPassError(sampleErr, instrErr error) error {
	if sampleErr != nil && (instrErr == nil || !isCancellation(sampleErr) || isCancellation(instrErr)) {
		return sampleErr
	}
	return instrErr
}

// analyzeDegraded combines the surviving pass into a flagged partial
// Result; exactly one of sp/ep is non-nil. failure is the failed
// pass's error, recorded in the Result for reports and job status.
func analyzeDegraded(ctx context.Context, prog *Program, sp *SampleProfile, ep *EdgeProfile, opts Options, failure error) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("optiwise: analyze canceled: %w", err)
	}
	span := obs.StartCtx(ctx, "analyze_degraded").SetAttr("module", prog.Module())
	defer span.End()
	copts := coreOptions(opts)
	ctx = obs.ContextWithSpan(ctx, span)
	if sp != nil {
		span.SetAttr("failed_pass", core.PassInstrumentation)
		res, err := core.CombineSampleOnlyContext(ctx, prog.prog, sp, copts, failure.Error())
		if err == nil {
			emitIntervalCounters(span, res)
		}
		return res, err
	}
	span.SetAttr("failed_pass", core.PassSampling)
	return core.CombineCountsOnlyContext(ctx, prog.prog, ep, copts, failure.Error())
}

// runPasses executes the sampling and instrumentation passes,
// overlapped on two goroutines (ordered in tiered mode), and returns
// each pass's profile and error separately so the caller can implement
// degraded mode. Pass panics are recovered into *PanicError values.
func runPasses(ctx context.Context, prog *Program, opts Options, span *obs.Span) (*SampleProfile, *EdgeProfile, error, error) {
	if opts.Tiered {
		return runTieredPasses(ctx, prog, opts, span)
	}

	// Errgroup-style fan-out: a derived context cancels the sibling pass
	// as soon as either fails, so a doomed profiling run never simulates
	// longer than its slowest surviving pass needs to notice. Under
	// AllowDegraded a failing pass must NOT tear down its sibling — the
	// survivor is the degraded result.
	passCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	onErr := cancel
	if opts.AllowDegraded {
		onErr = func() {}
	}
	var (
		wg        sync.WaitGroup
		sp        *SampleProfile
		ep        *EdgeProfile
		sampleErr error
		instrErr  error
		sampleDur time.Duration
		instrDur  time.Duration
	)
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		sp, _, sampleErr = guardedSamplePass(passCtx, prog, opts, span, onErr)
		sampleDur = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		ep, instrErr = guardedInstrumentPass(passCtx, prog, opts, span, nil, onErr)
		instrDur = time.Since(start)
	}()
	wg.Wait()
	wall := time.Since(start)
	recordPassOverlap(span, sampleDur, instrDur, wall)
	return sp, ep, sampleErr, instrErr
}

// runTieredPasses is the sequential-tiered schedule (DESIGN.md §12).
// The PR 3 pass overlap cannot apply: the selective DBI pass consumes
// the sampling pass's cycle attribution, so the stages are ordered —
// sample, derive the hotness selection (a dedicated fault seam), then
// instrument only the selection. Degraded mode inverts per stage: if
// sampling fails there is no selection to derive, so the
// instrumentation pass falls back to full coverage (the counts-only
// view must not silently lose cold counts too); if selection or
// instrumentation fails, the sampling profile alone degrades to the
// usual sampling-only view.
func runTieredPasses(ctx context.Context, prog *Program, opts Options, span *obs.Span) (*SampleProfile, *EdgeProfile, error, error) {
	sp, _, sampleErr := guardedSamplePass(ctx, prog, opts, span, nil)
	if sampleErr != nil {
		if !opts.AllowDegraded {
			return nil, nil, sampleErr, nil
		}
		// Full instrumentation: without a sampling profile the degraded
		// counts-only result must carry exact counts everywhere.
		ep, instrErr := guardedInstrumentPass(ctx, prog, opts, span, nil, nil)
		return sp, ep, sampleErr, instrErr
	}
	if err := fault.Err(fault.SiteTieredSelect); err != nil {
		return sp, nil, nil, fmt.Errorf("optiwise: tiered selection: %w", err)
	}
	sel := core.DeriveSelection(prog.prog, sp, opts.HotThreshold)
	span.SetAttr("tiered", true).SetAttr("hot_ranges", len(sel.Ranges()))
	ep, instrErr := guardedInstrumentPass(ctx, prog, opts, span, sel, nil)
	return sp, ep, nil, instrErr
}

// guardedSamplePass runs the sampling pass under a span and a panic
// guard. A recovered panic becomes a *PanicError; onErr (when non-nil)
// fires on any failure, letting the concurrent pipeline cancel the
// sibling pass. The span parenting is explicit (StartChild) because
// with both passes open concurrently the tracer's ambient stack would
// nest one sibling under the other.
func guardedSamplePass(ctx context.Context, prog *Program, opts Options, span *obs.Span, onErr func()) (sp *SampleProfile, st ooo.Stats, err error) {
	ps := span.StartChild("sample").
		SetAttr("module", prog.Module()).
		SetAttr("period", opts.SamplePeriod)
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Op: core.PassSampling, Value: v, Stack: debug.Stack()}
		}
		ps.End()
		if err != nil && onErr != nil {
			onErr()
		}
	}()
	return samplePass(ctx, prog, opts)
}

// guardedInstrumentPass is guardedSamplePass for the instrumentation
// pass. sel, when non-nil, restricts instrumentation to the tiered
// hotness selection.
func guardedInstrumentPass(ctx context.Context, prog *Program, opts Options, span *obs.Span, sel *dbi.Selection, onErr func()) (ep *EdgeProfile, err error) {
	ps := span.StartChild("instrument").SetAttr("module", prog.Module())
	if sel != nil {
		ps.SetAttr("tiered", true)
	}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Op: core.PassInstrumentation, Value: v, Stack: debug.Stack()}
		}
		ps.End()
		if err != nil && onErr != nil {
			onErr()
		}
	}()
	return instrumentPass(ctx, prog, opts, sel)
}

// coreOptions maps the public profiling options onto the analysis
// layer's options. opts must be filled so the recorded machine name is
// the resolved one.
func coreOptions(o Options) core.Options {
	return core.Options{
		Attribution:   o.Attribution,
		Unweighted:    o.Unweighted,
		LoopThreshold: o.LoopThreshold,
		Machine:       o.Machine.Name,
		Tiered:        o.Tiered,
	}
}

// isCancellation reports whether err stems from context cancellation or
// expiry rather than a pass's own failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// recordPassOverlap feeds the pass-overlap observability: which share of
// the shorter pass was hidden under the longer one (100% = the cheaper
// run was free, 0% = the passes serialized).
func recordPassOverlap(span *obs.Span, sampleDur, instrDur, wall time.Duration) {
	shorter := sampleDur
	if instrDur < shorter {
		shorter = instrDur
	}
	overlap := sampleDur + instrDur - wall
	if overlap < 0 {
		overlap = 0
	}
	if overlap > shorter {
		overlap = shorter
	}
	pct := 100.0
	if shorter > 0 {
		pct = 100 * float64(overlap) / float64(shorter)
	}
	span.SetAttr("pass_overlap_pct", pct)
	obs.Counter(obs.MProfileParallelRuns).Inc()
	obs.Histogram(obs.MProfileOverlapPct).Observe(uint64(pct + 0.5))
}

// SampleProfile is the output of the sampling run (the perf.data
// equivalent).
type SampleProfile = sampler.Profile

// EdgeProfile is the output of the instrumentation run (the DynamoRIO
// client's output equivalent).
type EdgeProfile = dbi.Profile

// Increment is one window's hand-off from a streaming run
// (Options.Window / Options.OnIncrement).
type Increment = stream.Increment

// StreamCombiner folds a streaming run's increments into per-window
// summaries and running totals; Snapshot gives that view mid-run. Safe
// to feed from Options.OnIncrement with concurrent passes.
type StreamCombiner = stream.Combiner

// StreamSnapshot is a point-in-time view of a streaming run.
type StreamSnapshot = stream.Snapshot

// NewStreamCombiner returns a combiner for a streaming run of prog.
func NewStreamCombiner(prog *Program) *StreamCombiner {
	return stream.NewCombiner(prog.prog)
}

// SampleOnly performs just the sampling run (optiwise sample).
func SampleOnly(prog *Program, opts Options) (*SampleProfile, ooo.Stats, error) {
	return SampleOnlyContext(context.Background(), prog, opts)
}

// SampleOnlyContext is SampleOnly with cooperative cancellation (see
// ProfileContext).
func SampleOnlyContext(ctx context.Context, prog *Program, opts Options) (*SampleProfile, ooo.Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, ooo.Stats{}, err
	}
	opts.fill()
	span := obs.StartCtx(ctx, "sample").
		SetAttr("module", prog.Module()).
		SetAttr("period", opts.SamplePeriod)
	defer span.End()
	return samplePass(ctx, prog, opts)
}

// samplePass is the sampling pass body, span-free so the concurrent
// pipeline can wrap it in an explicitly parented span (the ambient
// span stack cannot attribute concurrent siblings). opts must be
// filled.
func samplePass(ctx context.Context, prog *Program, opts Options) (*SampleProfile, ooo.Stats, error) {
	sopts := sampler.Options{
		Period:        opts.SamplePeriod,
		InterruptCost: opts.InterruptCost,
		Precise:       opts.Precise,
		Jitter:        opts.SampleJitter,
		ASLRSeed:      opts.SampleASLRSeed,
		RandSeed:      opts.RandSeed,
		MaxCycles:     opts.MaxCycles,
		Window:        opts.Window,
	}
	if opts.Window > 0 && opts.OnIncrement != nil {
		emit := opts.OnIncrement
		seq := 0 // emission is synchronous on this pass's goroutine
		sopts.OnWindow = func(w sampler.Window, final bool) {
			emit(stream.Increment{Pass: core.PassSampling, Seq: seq, Final: final, Sample: &w})
			seq++
		}
	}
	return sampler.RunContext(ctx, opts.Machine, prog.prog, sopts)
}

// InstrumentOnly performs just the instrumentation run (optiwise
// instrument).
func InstrumentOnly(prog *Program, opts Options) (*EdgeProfile, error) {
	return InstrumentOnlyContext(context.Background(), prog, opts)
}

// InstrumentOnlyContext is InstrumentOnly with cooperative cancellation
// (see ProfileContext).
func InstrumentOnlyContext(ctx context.Context, prog *Program, opts Options) (*EdgeProfile, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	span := obs.StartCtx(ctx, "instrument").SetAttr("module", prog.Module())
	defer span.End()
	return instrumentPass(ctx, prog, opts, nil)
}

// TieredInstrumentOnly performs the selective instrumentation run of a
// tiered profile (DESIGN.md §12): the hotness selection is derived from
// the sampling profile sp at opts.HotThreshold (Options.Canonical's
// default when zero), and only the selected block heads are
// instrumented; everything else executes in uninstrumented cold legs.
// The resulting EdgeProfile carries Tiered, HotRanges, and
// ColdInstructions, and its Overhead() reflects the reduced modelled
// cost — `owbench tiered` builds the overhead/accuracy frontier from
// this seam. Analyze accepts the pair (sp, tiered ep) and extrapolates
// cold counts exactly as Profile with Options.Tiered would.
func TieredInstrumentOnly(prog *Program, sp *SampleProfile, opts Options) (*EdgeProfile, error) {
	return TieredInstrumentOnlyContext(context.Background(), prog, sp, opts)
}

// TieredInstrumentOnlyContext is TieredInstrumentOnly with cooperative
// cancellation (see ProfileContext).
func TieredInstrumentOnlyContext(ctx context.Context, prog *Program, sp *SampleProfile, opts Options) (*EdgeProfile, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.Tiered = true
	opts.fill()
	sel := core.DeriveSelection(prog.prog, sp, opts.HotThreshold)
	span := obs.StartCtx(ctx, "instrument").
		SetAttr("module", prog.Module()).
		SetAttr("tiered", true).
		SetAttr("hot_ranges", len(sel.Ranges()))
	defer span.End()
	return instrumentPass(ctx, prog, opts, sel)
}

// instrumentPass is the instrumentation pass body, span-free for the
// same reason as samplePass. opts must be filled. sel, when non-nil,
// is the tiered hotness selection.
func instrumentPass(ctx context.Context, prog *Program, opts Options, sel *dbi.Selection) (*EdgeProfile, error) {
	dopts := dbiOptions(opts, sel)
	if opts.Window > 0 && opts.OnIncrement != nil {
		emit := opts.OnIncrement
		seq := 0 // emission is synchronous on this pass's goroutine
		dopts.WindowInstructions = opts.Window
		dopts.OnWindow = func(w dbi.Window, final bool) {
			emit(stream.Increment{Pass: core.PassInstrumentation, Seq: seq, Final: final, Edge: &w})
			seq++
		}
	}
	return dbi.RunContext(ctx, prog.prog, dopts)
}

// dbiOptions maps the public profiling options onto the DBI engine's
// options, streaming hooks aside. opts must be filled.
func dbiOptions(opts Options, sel *dbi.Selection) dbi.Options {
	return dbi.Options{
		StackProfiling:  !opts.DisableStackProfiling,
		ASLRSeed:        opts.InstrASLRSeed,
		RandSeed:        opts.RandSeed,
		MaxInstructions: opts.MaxCycles,
		Select:          sel,
	}
}

// Analyze combines previously collected profiles (optiwise analyze).
func Analyze(prog *Program, sp *SampleProfile, ep *EdgeProfile, opts Options) (*Result, error) {
	return AnalyzeContext(context.Background(), prog, sp, ep, opts)
}

// AnalyzeContext is Analyze with a single up-front cancellation check.
// The combining analysis is orders of magnitude cheaper than the two
// profiled executions, so it is not internally interruptible; a context
// that is already done still fails fast here. Like every other entry
// point it validates and fills opts, so the Result records the same
// resolved machine Profile would.
func AnalyzeContext(ctx context.Context, prog *Program, sp *SampleProfile, ep *EdgeProfile, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("optiwise: analyze canceled: %w", err)
	}
	span := obs.StartCtx(ctx, "analyze").SetAttr("module", prog.Module())
	defer span.End()
	res, err := core.CombineContext(obs.ContextWithSpan(ctx, span), prog.prog, sp, ep, coreOptions(opts))
	if err == nil {
		emitIntervalCounters(span, res)
	}
	return res, err
}

// emitIntervalCounters exports the interval-telemetry stream (when the
// run collected one) as Chrome-trace counter tracks on the span's
// tracer, so a job trace opened in Perfetto shows the simulated core's
// phase behaviour as stacked counter rows alongside the pipeline spans.
// The counter timeline is simulated time — one microsecond per thousand
// simulated cycles — on its own process track, so it never perturbs the
// wall-clock span timeline. With telemetry disabled (no intervals) this
// is a nil check and the trace stays byte-identical to PR 1.
func emitIntervalCounters(span *obs.Span, res *Result) {
	t := span.Tracer()
	if t == nil || res == nil || len(res.Intervals) == 0 {
		return
	}
	for _, iv := range res.Intervals {
		ts := float64(iv.Start) / 1e3
		t.AddCounter("sim ipc", ts, map[string]float64{"ipc": iv.IPC})
		t.AddCounter("sim rob_occupancy", ts, map[string]float64{"slots": iv.ROBOccupancy})
		t.AddCounter("sim mispredict_rate", ts, map[string]float64{"rate": iv.MispredictRate})
		if len(iv.Cache) > 0 {
			vals := make(map[string]float64, len(iv.Cache))
			for _, lv := range iv.Cache {
				vals[lv.Level] = lv.Rate
			}
			t.AddCounter("sim cache_miss_rate", ts, vals)
		}
		t.AddCounter("sim stalls", ts, map[string]float64{
			"commit":       float64(iv.Stalls.Commit),
			"frontend":     float64(iv.Stalls.Frontend),
			"memory":       float64(iv.Stalls.Memory),
			"store_buffer": float64(iv.Stalls.StoreBuffer),
			"execute":      float64(iv.Stalls.Execute),
			"other":        float64(iv.Stalls.Other),
		})
	}
}

// WriteReport renders the full human-readable report (summary, function
// table, loop table, hottest lines, annotated hottest function).
func WriteReport(w io.Writer, r *Result) error { return report.WriteAll(w, r) }

// WriteYAML serializes the combined profile as YAML — the third
// machine-readable export beside JSON and CSV. Degraded results carry
// the degraded flag trio plus a human-readable banner field.
func WriteYAML(w io.Writer, r *Result) error { return report.WriteYAML(w, r) }

// WriteFunctionTable renders only the per-function table.
func WriteFunctionTable(w io.Writer, r *Result) error { return report.WriteFunctionTable(w, r) }

// WriteLoopTable renders only the merged-loop table.
func WriteLoopTable(w io.Writer, r *Result) error { return report.WriteLoopTable(w, r) }

// WriteAnnotated renders the annotated disassembly of one function
// (figures 1 and 10 in the paper).
func WriteAnnotated(w io.Writer, r *Result, fn string) error {
	return report.WriteAnnotatedFunc(w, r, fn)
}

// WriteCallGraph renders a gprof-style caller/callee table with dynamic
// call counts and inclusive times.
func WriteCallGraph(w io.Writer, r *Result) error { return report.WriteCallGraph(w, r) }

// WriteCFGDot renders one function's reconstructed CFG in Graphviz dot
// format with execution counts on blocks and edges. Sampling-only
// degraded results carry no CFG (the instrumentation pass that would
// have built it failed), so the request is refused with a descriptive
// error rather than an empty graph.
func WriteCFGDot(w io.Writer, r *Result, fn string) error {
	if r.Graph == nil || (r.Degraded && len(r.Graph.Blocks) == 0) {
		return fmt.Errorf("optiwise: no CFG available: %s pass failed (degraded result)", r.FailedPass)
	}
	return r.Graph.WriteDot(w, r.Prog, fn)
}

// WriteEventTable renders per-function cache-miss and branch-mispredict
// rates from the multi-event samples.
func WriteEventTable(w io.Writer, r *Result) error { return report.WriteEventTable(w, r) }

// WriteBlockTable renders the hottest basic blocks.
func WriteBlockTable(w io.Writer, r *Result, max int) error {
	return report.WriteBlockTable(w, r, max)
}

// WriteAnnotatedLoop renders the annotated disassembly of one merged
// loop's body blocks.
func WriteAnnotatedLoop(w io.Writer, r *Result, loopID int) error {
	return report.WriteAnnotatedLoop(w, r, loopID)
}

// WriteInstCSV / WriteLoopCSV export machine-readable records.
func WriteInstCSV(w io.Writer, r *Result) error { return report.WriteInstCSV(w, r) }

// WriteLoopCSV exports loop records as CSV.
func WriteLoopCSV(w io.Writer, r *Result) error { return report.WriteLoopCSV(w, r) }

// Overhead describes the figure 7 measurement for one program: how much
// slower each OptiWISE stage is than native execution.
type Overhead struct {
	Module string
	// BaselineCycles is the native run time on the simulated machine.
	BaselineCycles uint64
	// SamplingRatio is sampled-run time over baseline (paper: ~1.01x).
	SamplingRatio float64
	// InstrumentationRatio is the DBI run's modelled slowdown
	// (paper: geomean 7.1x, worst 56x).
	InstrumentationRatio float64
	// TotalRatio is the combined two-run slowdown (paper: geomean 8.1x,
	// worst 57x).
	TotalRatio float64
	// AnalysisSeconds is the wall-clock time of the combining analysis.
	AnalysisSeconds float64
	// SampleProfileBytes / EdgeProfileBytes are the serialized profile
	// sizes (§V-A: sampling data grows with run length, edge data with
	// CFG size).
	SampleProfileBytes int
	EdgeProfileBytes   int
}

// MeasureOverhead runs the full figure 7 measurement for one program.
func MeasureOverhead(prog *Program, opts Options) (Overhead, error) {
	if err := opts.Validate(); err != nil {
		return Overhead{}, err
	}
	opts.fill()
	span := obs.Start("measure_overhead").SetAttr("module", prog.Module())
	defer span.End()
	base, err := prog.Run(opts.Machine)
	if err != nil {
		return Overhead{}, err
	}
	sp, sstats, err := SampleOnly(prog, opts)
	if err != nil {
		return Overhead{}, err
	}
	ep, err := InstrumentOnly(prog, opts)
	if err != nil {
		return Overhead{}, err
	}
	elapsed, err := timeAnalysis(prog, sp, ep, opts)
	if err != nil {
		return Overhead{}, err
	}
	ov := Overhead{
		Module:          prog.Module(),
		BaselineCycles:  base.Cycles,
		SamplingRatio:   float64(sstats.Cycles) / float64(base.Cycles),
		AnalysisSeconds: elapsed,
	}
	ov.InstrumentationRatio = ep.Overhead()
	ov.TotalRatio = ov.SamplingRatio + ov.InstrumentationRatio
	var cw countingWriter
	if err := sp.Write(&cw); err != nil {
		return Overhead{}, err
	}
	ov.SampleProfileBytes = cw.n
	cw.n = 0
	if err := ep.Write(&cw); err != nil {
		return Overhead{}, err
	}
	ov.EdgeProfileBytes = cw.n
	return ov, nil
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func timeAnalysis(prog *Program, sp *SampleProfile, ep *EdgeProfile, opts Options) (float64, error) {
	sw := obs.StartTimer()
	if _, err := Analyze(prog, sp, ep, opts); err != nil {
		return 0, err
	}
	return sw.Seconds(), nil
}
