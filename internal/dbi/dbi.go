// Package dbi is the repository's DynamoRIO substitute (component 2 in the
// paper's figure 3): a dynamic binary instrumentation engine whose only
// client performs the edge profiling and stack profiling of §IV-C/§IV-D.
//
// Like DynamoRIO, the engine discovers basic blocks at run time: a block is
// a contiguous sequence of instructions with exactly one control-transfer
// operation, which terminates it. A branch that targets the middle of an
// already-discovered block simply creates a new, overlapping block — the
// disparity with the compiler definition of a basic block that the CFG
// builder (internal/cfg) later resolves with the prefix rule.
//
// Instrumentation follows the paper exactly, per terminator type:
//
//   - Direct unconditional branch / direct call: one edge counter,
//     incremented per execution (inlined meta-instructions).
//   - Direct conditional branch: only the fall-through edge carries a
//     counter (reached by an inserted inverse-condition branch); the taken
//     count is derived as block count minus fall-through count.
//   - Indirect branch (jr/callr/ret): a hash table keyed by target,
//     updated by an expensive "clean call".
//   - System call: like an unconditional edge to the next block.
//
// Stack profiling implements Algorithm 1 verbatim: a global instruction
// counter incremented per block, a call stack of (call site, saved counter)
// pairs, and a callee_count_table accumulating instructions executed within
// each call site's callees.
//
// The engine also models its own run-time cost in "instruction
// equivalents", the basis of the figure 7 overhead reproduction: inlined
// counter updates are cheap, clean calls are hundreds of times more
// expensive, and every newly discovered block pays a translation cost.
package dbi

import (
	"context"
	"fmt"

	"optiwise/internal/fault"
	"optiwise/internal/interp"
	"optiwise/internal/isa"
	"optiwise/internal/obs"
	"optiwise/internal/program"
)

// CostModel prices the instrumentation in instruction equivalents.
type CostModel struct {
	// PerBlock is the inlined cost per block execution (vertex counter +
	// stack-profiling global counter update).
	PerBlock uint64
	// DirectUncond is the inlined edge-counter cost for unconditional
	// direct terminators and system calls.
	DirectUncond uint64
	// CondExtra is the cost of the inserted inverse-condition branch,
	// paid on every execution of a conditional terminator.
	CondExtra uint64
	// CondFallthrough is the additional fall-through counter cost, paid
	// only when the branch falls through.
	CondFallthrough uint64
	// CleanCall is the cost of the clean call servicing one indirect
	// branch (context switch + C++ map update, §IV-C).
	CleanCall uint64
	// CallMeta / RetMeta are the Algorithm 1 meta-instruction costs
	// around calls and returns.
	CallMeta uint64
	RetMeta  uint64
	// Translate is the one-time cost of discovering and instrumenting a
	// new block.
	Translate uint64
}

// DefaultCosts reflect the paper's qualitative cost structure: everything
// is a handful of inlined instructions except the indirect-branch clean
// call, which dominates (§IV-C, §V-A: overhead "higher in applications
// with a larger number of indirect branches").
func DefaultCosts() CostModel {
	return CostModel{
		PerBlock:        4,
		DirectUncond:    3,
		CondExtra:       2,
		CondFallthrough: 3,
		CleanCall:       900,
		CallMeta:        4,
		RetMeta:         6,
		Translate:       400,
	}
}

// TermKind classifies a dynamic block's terminator for the profile.
type TermKind uint8

// Terminator kinds.
const (
	TermDirect   TermKind = iota // jmp / direct call
	TermCond                     // conditional branch
	TermIndirect                 // jr / callr / ret
	TermSyscall
)

// Block is one discovered dynamic block. All addresses are module offsets.
type Block struct {
	Start    uint64   `json:"start"`
	NumInsts int      `json:"n"`
	TermOff  uint64   `json:"term"`
	TermOp   isa.Op   `json:"op"`
	Kind     TermKind `json:"kind"`

	// Count is the number of executions (vertex profile).
	Count uint64 `json:"count"`
	// Fallthrough counts not-taken executions of a TermCond block.
	Fallthrough uint64 `json:"fallthrough,omitempty"`
	// TakenTarget is the static target of direct terminators.
	TakenTarget uint64 `json:"taken_target,omitempty"`
	// Targets holds per-target counts for TermIndirect blocks.
	Targets map[uint64]uint64 `json:"targets,omitempty"`
}

// Profile is the output of one instrumentation run (the edge profile plus
// the stack-profiling callee table).
type Profile struct {
	Module string   `json:"module"`
	Blocks []*Block `json:"blocks"`
	// CalleeCounts maps a call instruction's offset to the total number
	// of (original program) instructions executed within its callees
	// (callee_count_table of Algorithm 1).
	CalleeCounts map[uint64]uint64 `json:"callee_counts,omitempty"`
	// BaseInstructions is the count of original program instructions.
	BaseInstructions uint64 `json:"base_instructions"`
	// InstrEquivalents is the modelled total cost of the instrumented
	// run, in instruction equivalents.
	InstrEquivalents uint64 `json:"instr_equivalents"`
	// StackProfiling records whether Algorithm 1 was enabled.
	StackProfiling bool `json:"stack_profiling"`

	// Tiered records whether this run instrumented selectively
	// (Options.Select); the fields below are only meaningful then.
	// Profiles from full runs omit all three, so legacy serialized
	// profiles decode unchanged.
	Tiered bool `json:"tiered,omitempty"`
	// HotRanges is the normalized set of text ranges the run counted
	// exactly: the requested selection plus the extents of discovered
	// blocks whose straight-line bodies overran a selection boundary.
	// Blocks outside it were executed but not counted.
	HotRanges []Range `json:"hot_ranges,omitempty"`
	// ColdInstructions counts retired instructions executed outside the
	// hot ranges (a subset of BaseInstructions, which stays exact: the
	// interpreter retires cold instructions too, it just keeps no
	// per-block counts for them).
	ColdInstructions uint64 `json:"cold_instructions,omitempty"`
}

// Overhead returns the modelled slowdown of the instrumentation run
// relative to native execution.
func (p *Profile) Overhead() float64 {
	if p.BaseInstructions == 0 {
		return 0
	}
	return float64(p.InstrEquivalents) / float64(p.BaseInstructions)
}

// ExecCounts distributes block counts to per-instruction execution counts.
// Overlapping dynamic blocks naturally sum: an instruction's count is the
// sum of the counts of every dynamic block containing it, which equals its
// true execution count because block prefixes are disjoint paths to it.
func (p *Profile) ExecCounts() map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for _, b := range p.Blocks {
		for i := 0; i < b.NumInsts; i++ {
			m[b.Start+uint64(i)*isa.InstBytes] += b.Count
		}
	}
	return m
}

// Options configures an instrumentation run.
type Options struct {
	// StackProfiling enables Algorithm 1 (§IV-D). It costs extra overhead
	// and can be disabled when only instruction-level data is needed.
	StackProfiling bool
	// Costs overrides the default cost model (zero value = defaults).
	Costs *CostModel
	// ASLRSeed randomizes this run's load base.
	ASLRSeed int64
	// RandSeed seeds the program's SysRand.
	RandSeed uint64
	// MaxInstructions bounds the run (0 = unlimited).
	MaxInstructions uint64
	// WindowInstructions, with OnWindow, enables streaming windowed
	// profiling: a Window summary is emitted every WindowInstructions
	// retired (original-program) instructions, plus a final one when
	// the run exits. See window.go.
	WindowInstructions uint64
	// OnWindow receives each window synchronously on the engine
	// goroutine. final marks the end-of-run window.
	OnWindow func(w Window, final bool)
	// Select, when non-nil, enables tiered instrumentation: only code
	// inside the selected ranges is discovered into blocks and counted;
	// everything else runs through the threaded engine's cold path with
	// no per-block bookkeeping at all. Algorithm 1 call/return events
	// are still observed in cold code, so CalleeCounts and
	// BaseInstructions remain exact; only per-block counts for cold
	// code are absent (extrapolated downstream from sampling
	// time-shares). The instrumentation decision is resolved per block
	// head, once, against the selection — not per instruction.
	Select *Selection
	// LegacyDispatch forces block bodies through the per-instruction
	// switch interpreter instead of the direct-threaded code. It is the
	// reference the threaded engine is tested and benchmarked against,
	// not a profile parameter: profiles are byte-identical either way
	// (the dispatch equivalence suite proves it), and no public option
	// reaches it. Tiered runs ignore it: the cold path exists only in
	// the threaded engine.
	LegacyDispatch bool
}

// Engine executes a program under instrumentation.
type Engine struct {
	img   *program.Image
	m     *interp.Machine
	costs CostModel
	opts  Options

	blocks map[uint64]*Block

	// code is the direct-threaded translation of the text segment; nil
	// only under LegacyDispatch (non-tiered), which falls back to the
	// per-instruction switch.
	code *interp.Code
	// tiered mirrors opts.Select != nil; cold holds the reusable
	// RunCold leg configuration, and coldBase the Steps watermark from
	// which cold instructions are folded into the Algorithm 1 global
	// counter at call/return events.
	tiered   bool
	cold     interp.ColdRun
	coldBase uint64

	// Algorithm 1 state.
	globalCounter uint64
	callStack     []callFrame

	prof *Profile

	// win, when non-nil, holds streaming window-emission state
	// (Options.WindowInstructions/OnWindow); nil costs the run loop one
	// compare per block.
	win *winState

	// Metric handles, fetched once per run; each is nil (a no-op) when
	// observability is disabled, so the per-block cost is one pointer
	// check per counter.
	mBlocksFound *obs.CounterMetric
	mBlockExecs  *obs.CounterMetric
	mCleanCalls  *obs.CounterMetric
	mCodeCache   *obs.GaugeMetric
}

type callFrame struct {
	callOff uint64
	saved   uint64
}

// Run instruments and executes prog, returning its edge profile.
func Run(prog *program.Program, opts Options) (*Profile, error) {
	return RunContext(context.Background(), prog, opts)
}

// RunContext is Run with cooperative cancellation: the engine polls ctx
// every cancelCheckBlocks block executions (and before the first) and,
// if it is done, abandons the run with an error wrapping ctx.Err().
func RunContext(ctx context.Context, prog *program.Program, opts Options) (*Profile, error) {
	img := program.Load(prog, program.LoadOptions{ASLRSeed: opts.ASLRSeed})
	e := &Engine{
		img:    img,
		m:      interp.New(img, opts.RandSeed),
		opts:   opts,
		blocks: make(map[uint64]*Block),
		prof: &Profile{
			Module:         prog.Module,
			StackProfiling: opts.StackProfiling,
			CalleeCounts:   make(map[uint64]uint64),
		},
	}
	e.costs = DefaultCosts()
	if opts.Costs != nil {
		e.costs = *opts.Costs
	}
	if opts.WindowInstructions > 0 && opts.OnWindow != nil {
		e.win = &winState{every: opts.WindowInstructions, next: opts.WindowInstructions, emit: opts.OnWindow}
	}
	if opts.Select != nil || !opts.LegacyDispatch {
		e.code = interp.Translate(img)
	}
	if opts.Select != nil {
		e.tiered = true
		e.prof.Tiered = true
		e.prof.HotRanges = opts.Select.Ranges()
		for _, r := range opts.Select.Ranges() {
			e.code.SetHot(r.Lo, r.Hi)
		}
		if opts.StackProfiling {
			e.cold.OnCall = e.coldCall
			e.cold.OnRet = e.coldRet
		}
	}
	e.mBlocksFound = obs.Counter(obs.MDBIBlocksFound)
	e.mBlockExecs = obs.Counter(obs.MDBIBlockExecs)
	e.mCleanCalls = obs.Counter(obs.MDBICleanCalls)
	e.mCodeCache = obs.Gauge(obs.MDBICodeCacheSize)
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	if e.win != nil {
		// The trailing partial window, emitted after run() exits so the
		// window counts telescope to the exact run totals.
		e.flushWindow(true)
	}
	obs.Counter(obs.MDBIInstrEquiv).Add(e.prof.InstrEquivalents)
	return e.prof, nil
}

// cancelCheckBlocks is how many block executions elapse between the
// cooperative context-cancellation checks; blocks are short (a handful
// of instructions), so this bounds cancellation latency to well under a
// millisecond of wall time.
const cancelCheckBlocks = 1024

func (e *Engine) run(ctx context.Context) error {
	done := ctx.Done()
	// Fault checks share the cancellation countdown: one atomic load per
	// run when injection is disabled, nothing extra per block.
	faulty := fault.Enabled()
	countdown := uint64(1) // check before the first block: a dead ctx never runs
	for !e.m.Exited {
		if e.opts.MaxInstructions != 0 && e.m.Steps > e.opts.MaxInstructions {
			return fmt.Errorf("dbi: instruction limit exceeded")
		}
		if done != nil || faulty {
			countdown--
			if countdown == 0 {
				countdown = cancelCheckBlocks
				if done != nil {
					select {
					case <-done:
						return fmt.Errorf("dbi: run canceled after %d instructions: %w",
							e.m.Steps, ctx.Err())
					default:
					}
				}
				if faulty {
					if err := fault.Err(fault.SiteDBIRun); err != nil {
						return fmt.Errorf("dbi: run aborted after %d instructions: %w",
							e.m.Steps, err)
					}
				}
			}
		}
		off, ok := e.img.AbsToOff(e.m.St.PC)
		if !ok {
			return fmt.Errorf("dbi: pc 0x%x outside module", e.m.St.PC)
		}
		if e.tiered && !e.code.Hot(off) {
			// Cold leg: run uninstrumented through the threaded engine
			// until control reaches hot code or a budget boundary. The
			// countdown pre-charged one block above; charge the rest so
			// the cancellation/fault cadence sees every block.
			blocks, err := e.runColdLeg(done != nil || faulty)
			if err != nil {
				return err
			}
			if (done != nil || faulty) && blocks > 1 {
				if extra := blocks - 1; extra >= countdown {
					countdown = 1 // check due: fire at the next loop top
				} else {
					countdown -= extra
				}
			}
		} else {
			b, err := e.lookupBlock(off)
			if err != nil {
				return err
			}
			if err := e.execBlock(b); err != nil {
				return err
			}
		}
		if e.win != nil && e.m.Steps >= e.win.next {
			e.flushWindow(false)
			e.win.next = e.m.Steps + e.win.every
		}
	}
	e.prof.BaseInstructions = e.m.Steps
	e.prof.InstrEquivalents += e.m.Steps
	// Deterministic block order for serialization and analysis.
	e.sortBlocks()
	return nil
}

// runColdLeg executes one uninstrumented stretch starting at the
// current (cold) pc. It keeps BaseInstructions and Algorithm 1 exact —
// cold instructions still retire on the machine, and call/return
// terminators still fire the stack-profiling hooks — but performs no
// block discovery, no counter updates, and charges no instrumentation
// equivalents beyond call/return meta-instructions (the base cost of
// cold instructions is folded in with everyone else's at run end).
func (e *Engine) runColdLeg(bounded bool) (uint64, error) {
	r := &e.cold
	r.StopSteps = e.opts.MaxInstructions
	if e.win != nil && (r.StopSteps == 0 || e.win.next < r.StopSteps) {
		r.StopSteps = e.win.next
	}
	r.MaxBlocks = 0
	if bounded {
		r.MaxBlocks = cancelCheckBlocks
	}
	start := e.m.Steps
	e.coldBase = start
	_, blocks, err := e.code.RunCold(e.m, r)
	if err != nil {
		return blocks, err
	}
	if e.opts.StackProfiling {
		e.coldSync()
	}
	e.prof.ColdInstructions += e.m.Steps - start
	return blocks, nil
}

// coldSync folds cold instructions retired since the last sync into the
// Algorithm 1 global counter, keeping CalleeCounts exact across
// uninstrumented code (instrumented blocks add their size up front in
// execBlock; cold code adds retired-step deltas at event time).
func (e *Engine) coldSync() {
	e.globalCounter += e.m.Steps - e.coldBase
	e.coldBase = e.m.Steps
}

// coldCall is Algorithm 1 annotation 2 for a call retiring in cold code.
func (e *Engine) coldCall(callOff uint64) {
	e.coldSync()
	e.prof.InstrEquivalents += e.costs.CallMeta
	e.callStack = append(e.callStack, callFrame{callOff: callOff, saved: e.globalCounter})
	e.globalCounter = 0
}

// coldRet is Algorithm 1 annotation 3 for a return retiring in cold code.
func (e *Engine) coldRet() {
	e.coldSync()
	e.prof.InstrEquivalents += e.costs.RetMeta
	if n := len(e.callStack); n > 0 {
		fr := e.callStack[n-1]
		e.callStack = e.callStack[:n-1]
		e.prof.CalleeCounts[fr.callOff] += e.globalCounter
		e.globalCounter += fr.saved
	}
}

// lookupBlock finds or discovers the dynamic block starting at off.
func (e *Engine) lookupBlock(off uint64) (*Block, error) {
	if b, ok := e.blocks[off]; ok {
		return b, nil
	}
	// Discover: scan forward to the first control transfer.
	b := &Block{Start: off}
	for o := off; ; o += isa.InstBytes {
		inst, ok := e.img.Prog.InstAt(o)
		if !ok {
			return nil, fmt.Errorf("dbi: block at 0x%x runs off text end", off)
		}
		// The validity check happens here, at discovery, so block
		// bodies can execute through the threaded burst with no
		// per-instruction checks at all.
		if int(inst.Op) >= isa.NumOps {
			return nil, fmt.Errorf("dbi: invalid opcode %d at 0x%x", inst.Op, o)
		}
		b.NumInsts++
		if inst.Op.IsControlTransfer() {
			b.TermOff = o
			b.TermOp = inst.Op
			switch {
			case inst.Op.IsConditional():
				b.Kind = TermCond
				b.TakenTarget = inst.Target
			case inst.Op.IsIndirect():
				b.Kind = TermIndirect
				b.Targets = make(map[uint64]uint64)
			case inst.Op.Kind() == isa.KindSyscall:
				b.Kind = TermSyscall
			default: // jmp, call
				b.Kind = TermDirect
				b.TakenTarget = inst.Target
			}
			break
		}
	}
	e.blocks[off] = b
	e.prof.Blocks = append(e.prof.Blocks, b)
	e.prof.InstrEquivalents += e.costs.Translate
	if e.tiered {
		// A block is discovered because its head is hot, but its
		// straight-line body may overrun the selection's range boundary.
		// Count-exactness for the block requires that no execution of
		// those tail instructions slips through a cold leg uncounted, so
		// the whole extent is promoted to hot: cold legs then stop at
		// it, and any mid-tail entry point becomes its own exactly
		// counted block. The extent folds into the profile's effective
		// HotRanges immediately; the effective set only ever grows
		// within a run.
		end := b.Start + uint64(b.NumInsts)*isa.InstBytes
		e.code.SetHot(b.Start, end)
		if !rangesCover(e.prof.HotRanges, b.Start, end) {
			e.prof.HotRanges = NewSelection(append(
				append([]Range(nil), e.prof.HotRanges...),
				Range{Lo: b.Start, Hi: end})).Ranges()
		}
	}
	e.mBlocksFound.Inc()
	e.mCodeCache.Set(int64(len(e.blocks)))
	return b, nil
}

// execBlock runs one block under instrumentation.
func (e *Engine) execBlock(b *Block) error {
	b.Count++
	e.mBlockExecs.Inc()
	e.prof.InstrEquivalents += e.costs.PerBlock
	if e.opts.StackProfiling {
		// Annotation 1: global_counter += block_size.
		e.globalCounter += uint64(b.NumInsts)
	}

	var term interp.StepResult
	if e.code != nil {
		res, err := e.code.ExecBlock(e.m, b.Start, b.NumInsts)
		if err != nil {
			return err
		}
		term = res
	} else {
		var last interp.StepResult
		for i := 0; i < b.NumInsts; i++ {
			res, err := e.m.Step()
			if err != nil {
				return err
			}
			last = res
			if e.m.Exited {
				if i != b.NumInsts-1 {
					return fmt.Errorf("dbi: early exit inside block 0x%x", b.Start)
				}
			}
		}
		term = last
	}
	switch b.Kind {
	case TermDirect:
		e.prof.InstrEquivalents += e.costs.DirectUncond
	case TermSyscall:
		e.prof.InstrEquivalents += e.costs.DirectUncond
	case TermCond:
		e.prof.InstrEquivalents += e.costs.CondExtra
		if !term.Taken {
			b.Fallthrough++
			e.prof.InstrEquivalents += e.costs.CondFallthrough
		}
	case TermIndirect:
		e.mCleanCalls.Inc()
		e.prof.InstrEquivalents += e.costs.CleanCall
		if !e.m.Exited {
			toff, ok := e.img.AbsToOff(term.NextPC)
			if !ok {
				return fmt.Errorf("dbi: indirect target 0x%x outside module", term.NextPC)
			}
			b.Targets[toff]++
		}
	}

	if e.opts.StackProfiling {
		op := term.Inst.Op
		switch {
		case op.IsCall():
			// Annotation 2: push call site and counter, reset counter.
			e.prof.InstrEquivalents += e.costs.CallMeta
			e.callStack = append(e.callStack, callFrame{
				callOff: b.TermOff,
				saved:   e.globalCounter,
			})
			e.globalCounter = 0
		case op.IsReturn():
			// Annotation 3: attribute callee instructions to the call
			// site and restore the caller's counter.
			e.prof.InstrEquivalents += e.costs.RetMeta
			if n := len(e.callStack); n > 0 {
				fr := e.callStack[n-1]
				e.callStack = e.callStack[:n-1]
				e.prof.CalleeCounts[fr.callOff] += e.globalCounter
				e.globalCounter += fr.saved
			}
		}
	}
	return nil
}

func (e *Engine) sortBlocks() {
	blocks := e.prof.Blocks
	for i := 1; i < len(blocks); i++ {
		for j := i; j > 0 && blocks[j].Start < blocks[j-1].Start; j-- {
			blocks[j], blocks[j-1] = blocks[j-1], blocks[j]
		}
	}
}
