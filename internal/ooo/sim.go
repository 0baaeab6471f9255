package ooo

import (
	"context"
	"fmt"

	"optiwise/internal/branch"
	"optiwise/internal/cache"
	"optiwise/internal/fault"
	"optiwise/internal/interp"
	"optiwise/internal/isa"
	"optiwise/internal/program"
)

// uopState tracks a micro-op through the window.
type uopState uint8

const (
	stWaiting uopState = iota // in ROB+IQ, operands possibly outstanding
	stIssued                  // executing on a functional unit
	stDone                    // result available, awaiting commit
)

// uop is one dynamic instruction in flight.
type uop struct {
	seq  uint64
	pc   uint64 // absolute
	op   isa.Op
	kind isa.Kind

	// Dataflow. pending counts source operands whose producer had not
	// finished at dispatch and has not broadcast since; the uop is ready
	// to issue at zero. consumers lists the waiting uops this one wakes
	// when it finishes; its backing array survives recycling.
	pending   uint8
	consumers []*uop

	// Dynamic facts from the functional trace.
	addr   uint64 // effective address for memory ops
	taken  bool
	nextPC uint64

	state       uopState
	doneC       uint64 // cycle the result becomes available
	inSampleROB bool

	mispredicted bool

	// writes lists the lastWriter slots this uop occupies (-1 = empty),
	// so commit can clear its table entries without scanning all 64.
	writes [2]int8

	// Timeline (for the figure 2 trace).
	dispatchC, execStartC, commitC uint64
}

// Sample is one sampling-interrupt observation.
type Sample struct {
	// PC is the absolute sampled program counter.
	PC uint64
	// Weight is the number of user-mode cycles since the previous sample
	// (§IV-B: used to weight samples against interrupt jitter and system
	// noise).
	Weight uint64
	// Stack holds the call stack at the sample point: return addresses,
	// innermost first. The sampled PC itself is in PC.
	Stack []uint64
	// CacheMisses and Mispredicts count the events since the previous
	// sample — perf reports many counters per sample (§IV-A); OptiWISE
	// consumes only the three fields above, but the extra events enable
	// per-region event-rate reporting.
	CacheMisses uint64
	Mispredicts uint64
}

// TimelineEntry records one instruction's pipeline occupancy, reproducing
// the paper's figure 2 visualization.
type TimelineEntry struct {
	Seq      uint64
	PC       uint64
	Op       isa.Op
	Dispatch uint64
	Start    uint64
	Done     uint64
	Commit   uint64
}

// Stats aggregates one simulation run.
type Stats struct {
	Cycles       uint64
	UserCycles   uint64 // Cycles minus sampling-interrupt overhead
	Instructions uint64
	Mispredicts  uint64
	Branches     uint64
	Samples      uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Sim is one pipeline simulation over a loaded image.
type Sim struct {
	cfg   Config
	img   *program.Image
	arch  *interp.Machine // functional front-end (fetch stream)
	cache *cache.Hierarchy

	// code executes the fetch stream one instruction at a time; decoded
	// holds, per text slot, what dispatch needs that no register value
	// can change.
	code    *interp.Code
	decoded []decoded

	dir branch.DirectionPredictor
	btb *branch.BTB
	ras *branch.RAS

	cycle uint64
	seq   uint64

	// The reorder buffer is a fixed power-of-two ring: the oldest
	// in-flight uop is robAt(0), dispatch order follows. A ring keeps
	// per-cycle commit at two index updates instead of re-slicing (and
	// periodically re-allocating) a growing slice.
	robBuf  []*uop
	robHead int
	robLen  int
	robMask int

	// The store queue holds the in-flight stores (the ROB's store
	// entries) oldest first, in a ring sized like the ROB's: dispatch
	// pushes each store, commit pops it as it moves to the store buffer.
	// Store-to-load forwarding searches it instead of the whole ROB.
	sqBuf  []*uop
	sqHead int
	sqLen  int

	// iqLen counts dispatched uops that have not issued yet; it gates
	// dispatch at IQSize. readyQ holds those whose operands are all
	// available, in dispatch (seq) order, which is the order the issue
	// stage selects in.
	iqLen  int
	readyQ []*uop

	// exec holds issued-but-unfinished uops so the per-cycle result
	// broadcast (and kernel-time shifts) touch only executing work
	// instead of scanning the whole ROB.
	exec []*uop

	// free/freeNext recycle uop records. Commit parks retired uops on
	// freeNext for one full cycle — the same cycle's dispatch() still
	// reads a committed pendingSyscall before dropping it — and the next
	// cycle's top moves them to free for reuse. No dependence edge can
	// reach a retired uop: a producer empties its consumer list when it
	// finishes, before it can commit. The steady state allocates no uops
	// at all.
	free     []*uop
	freeNext []*uop

	// Last uop to write each register (0-31 int, 32-63 fp); nil when the
	// architectural value is final.
	lastWriter [64]*uop

	// Store buffer: drain completion cycles of committed stores, oldest
	// first; drainDone never decreases along the slice.
	sb []sbEntry
	// lastDrain serializes store drains to memory.
	lastDrain uint64

	// Fetch redirect: fetch is frozen until this cycle (mispredict or
	// syscall serialization).
	fetchStallUntil uint64
	// redirectBranch, when non-nil, is an unresolved mispredicted branch;
	// fetch is frozen until it resolves and schedules the redirect.
	redirectBranch *uop
	fetchDone      bool // interpreter exhausted
	pendingSyscall *uop // fetched syscall blocks further fetch until commit

	// Non-pipelined units.
	divBusyUntil  uint64
	fdivBusyUntil uint64

	// unresolvedBranches counts in-flight control transfers that have not
	// yet produced their outcome (early-dequeue speculation gate).
	unresolvedBranches int

	// Commit-time call stack (return addresses, innermost first is the
	// last element; snapshots reverse it).
	callStack []uint64

	// Sampling.
	samplePeriod   uint64
	sampleJitter   bool
	jitterState    uint64
	sampleMode     SampleMode
	interruptCost  uint64
	maxStackDepth  int
	nextSampleAt   uint64
	samplePending  bool
	kernelCycles   uint64
	lastSampleUser uint64 // user-cycle stamp of previous sample
	lastSampleMiss uint64 // cumulative LLC misses at previous sample
	lastSampleBrMp uint64 // cumulative mispredicts at previous sample
	onSample       func(Sample)
	committedThis  bool // commit progress this cycle (for skid delivery)

	// Timeline trace.
	traceLimit uint64
	trace      []TimelineEntry

	// Ground-truth cycle attribution (Options.TrueAttribution): a dense
	// per-instruction counter slice indexed by text offset — one array
	// add per cycle instead of a map update — plus an overflow map for
	// PCs outside the module (defensive; user code stays in text).
	trueAttr     bool
	trueBase     uint64
	trueDense    []uint64
	trueOverflow map[uint64]uint64

	// iv, when non-nil, collects the cycle windows
	// (Options.WindowCycles); nil costs the run loop one compare.
	iv *intervalTracker

	stats Stats
	err   error
}

// Options configures a run.
type Options struct {
	// SamplePeriod, when non-zero, delivers a sampling interrupt every
	// this many user cycles.
	SamplePeriod uint64
	// SampleJitter varies each period pseudo-randomly by up to ±1/4 of
	// its nominal value when set, modelling the imperfect interrupt
	// timing and OS noise that the paper's per-sample cycle weights
	// exist to correct (§IV-B). Deterministic given the seed.
	SampleJitter bool
	// SampleMode selects skid (plain perf) or precise (PEBS) attribution.
	SampleMode SampleMode
	// InterruptCost is the kernel time consumed per delivered sample.
	InterruptCost uint64
	// OnSample receives each sample as it is taken.
	OnSample func(Sample)
	// MaxStackDepth caps the call-stack frames captured per sample, like
	// perf's 127-frame limit; 0 means DefaultMaxStackDepth. Innermost
	// frames are kept when truncating.
	MaxStackDepth int
	// TraceLimit, when non-zero, records pipeline timelines for the first
	// N instructions.
	TraceLimit uint64
	// TrueAttribution, when set, attributes every user cycle to the PC a
	// perfect (infinite-frequency, zero-cost, precise) sampler would
	// observe — the ground truth T_{a} of §III against which real
	// sampling accuracy is measured. Retrieve with TrueCycles.
	TrueAttribution bool
	// WindowCycles, when non-zero, closes one window Interval (IPC,
	// ROB occupancy, mispredict rate, cache miss rates, stall causes)
	// per this many cycles. Retrieve with Intervals. Zero (the default)
	// disables it. Each window boundary is one more event for the run
	// loop's quiet-cycle skipping: it can end a skip early, but never
	// turns skipping off, and skipped cycles are tallied in bulk.
	WindowCycles uint64
	// OnWindow, when non-nil, receives each Interval the run loop
	// closes, synchronously on the simulation goroutine, so it may read
	// simulator-owned state (such as the sample stream) without
	// locking. The trailing partial window closed at the end of the run
	// is not delivered; it is the last of Intervals. Ignored when
	// WindowCycles is zero.
	OnWindow func(Interval)
	// RandSeed seeds the program's SysRand generator.
	RandSeed uint64
}

// New builds a simulation of img on the machine described by cfg.
func New(cfg Config, img *program.Image, opts Options) *Sim {
	s := &Sim{
		cfg:           cfg,
		img:           img,
		arch:          interp.New(img, opts.RandSeed),
		code:          interp.Translate(img),
		decoded:       predecode(img.Prog.Text),
		cache:         cache.New(cfg.Cache),
		btb:           branch.NewBTB(cfg.BTBBits),
		ras:           branch.NewRAS(cfg.RASDepth),
		samplePeriod:  opts.SamplePeriod,
		sampleJitter:  opts.SampleJitter,
		jitterState:   0x2545f4914f6cdd1d,
		sampleMode:    opts.SampleMode,
		interruptCost: opts.InterruptCost,
		onSample:      opts.OnSample,
		traceLimit:    opts.TraceLimit,
		trueAttr:      opts.TrueAttribution,
		maxStackDepth: opts.MaxStackDepth,
	}
	if s.maxStackDepth <= 0 {
		s.maxStackDepth = DefaultMaxStackDepth
	}
	if s.trueAttr {
		s.trueBase = img.TextBase
		s.trueDense = make([]uint64, len(img.Prog.Text))
		s.trueOverflow = make(map[uint64]uint64)
	}
	if opts.WindowCycles > 0 {
		s.iv = newIntervalTracker(opts.WindowCycles, opts.OnWindow)
		s.iv.open(s) // snapshot the zeroed counters at cycle 0
	}
	if cfg.UseBimodal {
		s.dir = branch.NewBimodal(cfg.GshareTableBits)
	} else {
		s.dir = branch.NewGshare(cfg.GshareTableBits, cfg.GshareHistoryBits)
	}
	if s.samplePeriod > 0 {
		s.nextSampleAt = s.samplePeriod
	}
	robCap := 1
	for robCap < cfg.ROBSize {
		robCap <<= 1
	}
	s.robBuf = make([]*uop, robCap)
	s.robMask = robCap - 1
	s.sqBuf = make([]*uop, robCap)
	s.readyQ = make([]*uop, 0, cfg.IQSize)
	s.exec = make([]*uop, 0, cfg.IQSize)
	// One uop record per possible in-flight slot plus the commit group
	// parked on freeNext, carved from a single backing array for
	// locality; the free list then satisfies every dispatch.
	chunk := make([]uop, cfg.ROBSize+cfg.CommitWidth+1)
	s.free = make([]*uop, len(chunk))
	for i := range chunk {
		s.free[i] = &chunk[i]
	}
	s.freeNext = make([]*uop, 0, cfg.CommitWidth+1)
	return s
}

// robAt returns the i-th oldest in-flight uop.
func (s *Sim) robAt(i int) *uop { return s.robBuf[(s.robHead+i)&s.robMask] }

// robPush appends u at the young end of the reorder buffer; the caller
// has already checked robLen against the configured ROB size.
func (s *Sim) robPush(u *uop) {
	s.robBuf[(s.robHead+s.robLen)&s.robMask] = u
	s.robLen++
}

// robPopFront retires the oldest in-flight uop.
func (s *Sim) robPopFront() {
	s.robBuf[s.robHead] = nil
	s.robHead = (s.robHead + 1) & s.robMask
	s.robLen--
}

// sqAt returns the i-th oldest in-flight store.
func (s *Sim) sqAt(i int) *uop { return s.sqBuf[(s.sqHead+i)&s.robMask] }

// newUop returns a zeroed-by-caller uop record, recycled when possible.
func (s *Sim) newUop() *uop {
	if n := len(s.free); n > 0 {
		u := s.free[n-1]
		s.free = s.free[:n-1]
		return u
	}
	return new(uop)
}

// cancelCheckInterval is how many simulated cycles elapse between the
// cooperative context-cancellation checks in RunContext. The check is a
// single non-blocking channel poll; at typical simulation speeds this
// bounds cancellation latency well below a millisecond of wall time
// while keeping the per-cycle cost of an uncancellable context at one
// decrement-and-branch.
const cancelCheckInterval = 4096

// Run simulates to completion (program exit) or until maxCycles elapses
// (0 = unlimited). It returns the run statistics.
func (s *Sim) Run(maxCycles uint64) (Stats, error) {
	return s.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cooperative cancellation: every
// cancelCheckInterval simulated cycles (and on the first cycle) the run
// loop polls ctx and, if it is done, abandons the simulation and returns
// the statistics accumulated so far together with an error wrapping
// ctx.Err() — so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) work as expected.
//
// After a quiet cycle — nothing committed, issued, finished, dispatched
// or sampled — the loop jumps straight to the cycle before the next
// event (see nextEvent) and accounts the skipped cycles in bulk. The
// jump never crosses maxCycles or a cancellation/fault poll, so both
// land on the same simulated cycle as they would stepping one cycle at
// a time, and every observable output is unchanged.
func (s *Sim) RunContext(ctx context.Context, maxCycles uint64) (Stats, error) {
	done := ctx.Done()
	// Fault injection shares the cancellation countdown so the per-cycle
	// cost with injection disabled stays exactly one decrement-and-branch
	// (and zero when the context is uncancellable): faulty is hoisted to
	// a single atomic load per run.
	faulty := fault.Enabled()
	polling := done != nil || faulty
	countdown := uint64(1) // check on the first cycle: a dead ctx never simulates
	for {
		if s.fetchDone && s.robLen == 0 {
			break
		}
		if maxCycles != 0 && s.cycle >= maxCycles {
			return s.stats, fmt.Errorf("ooo: cycle limit %d exceeded", maxCycles)
		}
		if polling {
			countdown--
			if countdown == 0 {
				countdown = cancelCheckInterval
				if done != nil {
					select {
					case <-done:
						return s.stats, fmt.Errorf("ooo: run canceled after %d cycles: %w",
							s.cycle, ctx.Err())
					default:
					}
				}
				if faulty {
					if err := fault.Err(fault.SiteOOORun); err != nil {
						return s.stats, fmt.Errorf("ooo: run aborted after %d cycles: %w",
							s.cycle, err)
					}
				}
			}
		}
		s.cycle++
		// Uops that committed last cycle have been released by that
		// cycle's dispatch; recycle them now.
		if len(s.freeNext) > 0 {
			s.free = append(s.free, s.freeNext...)
			s.freeNext = s.freeNext[:0]
		}
		s.committedThis = false
		seq, samples := s.seq, s.stats.Samples
		s.commit()
		issued := s.issue()
		s.dispatch()
		if s.trueAttr {
			s.chargeTrue(1)
		}
		if s.iv != nil {
			s.iv.tick(s)
		}
		s.maybeSample()
		if s.err != nil {
			return s.stats, s.err
		}
		if s.committedThis || issued || s.seq != seq || s.stats.Samples != samples ||
			(s.fetchDone && s.robLen == 0) {
			continue
		}
		// A quiet cycle (of a run that is not over): nothing committed,
		// issued, finished, dispatched or sampled, so every cycle up to
		// the next event repeats it exactly. Jump to the cycle before that event and account the
		// skipped cycles in bulk; the event cycle itself runs normally.
		next := s.nextEvent()
		if maxCycles != 0 && maxCycles < next {
			next = maxCycles
		}
		if polling && s.cycle+countdown < next {
			// The cancellation/fault poll keeps its cadence of one per
			// cancelCheckInterval simulated cycles.
			next = s.cycle + countdown
		}
		if next == noEvent || next-1 <= s.cycle {
			continue
		}
		k := next - 1 - s.cycle
		s.cycle += k
		if polling {
			countdown -= k
		}
		if s.trueAttr {
			s.chargeTrue(k)
		}
		if s.iv != nil {
			s.iv.account(s, k)
		}
	}
	s.iv.finish(s)
	s.stats.Cycles = s.cycle
	s.stats.UserCycles = s.cycle - s.kernelCycles
	return s.stats, nil
}

// Arch exposes the architectural machine (for output and exit status).
func (s *Sim) Arch() *interp.Machine { return s.arch }

// Cache exposes the data-cache hierarchy statistics.
func (s *Sim) Cache() *cache.Hierarchy { return s.cache }

// Trace returns the recorded pipeline timeline.
func (s *Sim) Trace() []TimelineEntry { return s.trace }

// TrueCycles returns the ground-truth per-PC cycle attribution collected
// when Options.TrueAttribution was set: for every user cycle, one cycle is
// charged to the instruction a perfect sampler would have observed. The
// map is materialized from the dense per-offset counters on each call.
func (s *Sim) TrueCycles() map[uint64]uint64 {
	if !s.trueAttr {
		return nil
	}
	m := make(map[uint64]uint64, len(s.trueOverflow))
	for i, c := range s.trueDense {
		if c != 0 {
			m[s.trueBase+uint64(i)*isa.InstBytes] = c
		}
	}
	for pc, c := range s.trueOverflow {
		m[pc] += c
	}
	return m
}

// chargeTrue attributes n ground-truth cycles, spent in the machine's
// current state, to the instruction a perfect sampler would observe.
func (s *Sim) chargeTrue(n uint64) {
	var pc uint64
	switch u := s.oldestSampleVisible(); {
	case u != nil:
		pc = u.pc
	case s.robLen > 0:
		pc = s.robAt(0).pc
	case !s.fetchDone:
		// Empty window (mispredict redirect shadow): a sampler would
		// observe the next instruction to enter the machine.
		pc = s.arch.St.PC
	default:
		return
	}
	if pc >= s.trueBase {
		if i := (pc - s.trueBase) / isa.InstBytes; i < uint64(len(s.trueDense)) {
			s.trueDense[i] += n
			return
		}
	}
	s.trueOverflow[pc] += n
}

// noEvent is nextEvent's answer when nothing is scheduled.
const noEvent = ^uint64(0)

// nextEvent returns the first cycle after a quiet one at which the
// machine state can change: an executing uop finishes (which is also
// what wakes its consumers and unblocks the ROB head), a full store
// buffer frees the slot the finished head store waits for, a fetch
// freeze or a non-pipelined divider expires, or a sampling interrupt or
// the end of a cycle window falls due. A pending skid sample
// needs no event of its own: it is delivered by the next commit.
func (s *Sim) nextEvent() uint64 {
	next := noEvent
	at := func(c uint64) {
		if c > s.cycle && c < next {
			next = c
		}
	}
	for _, u := range s.exec {
		at(u.doneC)
	}
	if s.robLen > 0 && s.robAt(0).state == stDone && len(s.sb) >= s.cfg.SBSize {
		at(s.sb[0].drainDone)
	}
	at(s.fetchStallUntil)
	// A divider frees exactly when its uop finishes, which the exec list
	// already covers; listing the units keeps the skip correct should
	// occupancy and latency ever differ.
	at(s.divBusyUntil)
	at(s.fdivBusyUntil)
	if s.samplePeriod > 0 && !s.samplePending {
		at(s.nextSampleAt + s.kernelCycles) // the counter runs on user cycles
	}
	if s.iv != nil {
		at(s.iv.nextAt)
	}
	return next
}

// ---------------------------------------------------------------------------
// Commit stage

func (s *Sim) commit() {
	// Retire drained store-buffer entries. Drains are serialized through
	// lastDrain and kernel-time shifts move every entry alike, so
	// drainDone never decreases along the buffer: the drained entries are
	// a prefix, and a cycle with nothing drained costs one compare.
	drained := 0
	for drained < len(s.sb) && s.sb[drained].drainDone <= s.cycle {
		drained++
	}
	if drained > 0 {
		s.sb = s.sb[:copy(s.sb, s.sb[drained:])]
	}

	for n := 0; n < s.cfg.CommitWidth && s.robLen > 0; n++ {
		u := s.robAt(0)
		if u.state != stDone || u.doneC > s.cycle {
			break
		}
		if u.kind == isa.KindStore {
			if len(s.sb) >= s.cfg.SBSize {
				break // store buffer full: head stalls (figure 8 mechanism)
			}
			drainStart := s.cycle
			if s.lastDrain > drainStart {
				drainStart = s.lastDrain
			}
			done := drainStart + s.cache.Access(u.addr)
			s.lastDrain = done
			s.sb = append(s.sb, sbEntry{addr: u.addr, drainDone: done})
			// The committing store is the oldest in flight.
			s.sqBuf[s.sqHead] = nil
			s.sqHead = (s.sqHead + 1) & s.robMask
			s.sqLen--
		}
		// Maintain the commit-time call stack for perf-style unwinding.
		switch {
		case u.op.IsCall():
			s.callStack = append(s.callStack, u.pc+isa.InstBytes)
		case u.op.IsReturn():
			if len(s.callStack) > 0 {
				s.callStack = s.callStack[:len(s.callStack)-1]
			}
		}
		u.commitC = s.cycle
		u.inSampleROB = false
		s.recordTrace(u)
		s.robPopFront()
		// Clear the writer-table slots this uop occupies so no new
		// dependence edge can reach it after retirement, then park the
		// record for recycling at the top of the next cycle.
		for _, wi := range u.writes {
			if wi >= 0 && s.lastWriter[wi] == u {
				s.lastWriter[wi] = nil
			}
		}
		s.freeNext = append(s.freeNext, u)
		s.stats.Instructions++
		s.committedThis = true
	}
}

type sbEntry struct {
	addr      uint64
	drainDone uint64
}

func (s *Sim) recordTrace(u *uop) {
	if s.traceLimit == 0 || u.seq > s.traceLimit {
		return
	}
	s.trace = append(s.trace, TimelineEntry{
		Seq: u.seq, PC: u.pc, Op: u.op,
		Dispatch: u.dispatchC, Start: u.execStartC,
		Done: u.doneC, Commit: u.commitC,
	})
}

// ---------------------------------------------------------------------------
// Issue stage: broadcast the results that arrive this cycle, which wakes
// their consumers, then pick ready uops oldest first, respecting per-kind
// issue bandwidth and non-pipelined units.

// issue runs one cycle of the stage and reports whether anything issued
// or finished.
//
// Broadcasting before selecting is exact: every latency is at least one
// cycle (Config.Validate), so nothing selected this cycle could have
// finished in it, and a producer finishing this cycle is exactly one
// whose consumers may issue this cycle.
func (s *Sim) issue() bool {
	finished := s.broadcast()
	issued := 0
	aluUsed, mulUsed, fpuUsed, loadUsed, storeUsed := 0, 0, 0, 0, 0
	keep := s.readyQ[:0]
	for i, u := range s.readyQ {
		if issued >= s.cfg.IssueWidth {
			keep = append(keep, s.readyQ[i:]...)
			break
		}
		ok := true
		var lat uint64
		switch u.kind {
		case isa.KindALU, isa.KindNop:
			if aluUsed < s.cfg.ALUs {
				aluUsed++
				lat = 1
			} else {
				ok = false
			}
		case isa.KindMul:
			if mulUsed < s.cfg.MulUnits {
				mulUsed++
				lat = s.cfg.MulLat
			} else {
				ok = false
			}
		case isa.KindDiv:
			if s.divBusyUntil <= s.cycle {
				lat = s.cfg.DivLat
				s.divBusyUntil = s.cycle + lat
			} else {
				ok = false
			}
		case isa.KindFPU:
			if fpuUsed < s.cfg.FPUs {
				fpuUsed++
				lat = s.cfg.FPLat
			} else {
				ok = false
			}
		case isa.KindFDiv:
			if s.fdivBusyUntil <= s.cycle {
				lat = s.cfg.FDivLat
				s.fdivBusyUntil = s.cycle + lat
			} else {
				ok = false
			}
		case isa.KindLoad:
			if loadUsed < s.cfg.LoadPorts {
				loadUsed++
				lat = s.loadLatency(u)
			} else {
				ok = false
			}
		case isa.KindPrefetch:
			if loadUsed < s.cfg.LoadPorts {
				loadUsed++
				s.cache.Prefetch(u.addr)
				lat = 1
			} else {
				ok = false
			}
		case isa.KindStore:
			// Address+data ready: the store "executes" by occupying a
			// store port; memory traffic happens at drain after commit.
			if storeUsed < s.cfg.StorePorts {
				storeUsed++
				lat = 1
			} else {
				ok = false
			}
		case isa.KindBranch, isa.KindJump, isa.KindCall,
			isa.KindIndirect, isa.KindIndCall, isa.KindReturn:
			if aluUsed < s.cfg.ALUs {
				aluUsed++
				lat = 1
			} else {
				ok = false
			}
		case isa.KindSyscall:
			lat = s.cfg.SyscallLat
		}
		if !ok {
			keep = append(keep, u)
			continue
		}
		issued++
		s.iqLen--
		u.state = stIssued
		u.execStartC = s.cycle
		u.doneC = s.cycle + lat
		s.exec = append(s.exec, u)
		s.finishAt(u)
	}
	s.readyQ = keep
	return issued > 0 || finished
}

// broadcast promotes issued uops whose result time has arrived and wakes
// the consumers whose last outstanding operand that was, then runs the
// early-dequeue pass. Only members of the exec list can change state
// here, so it scans executing work rather than the whole ROB. It reports
// whether anything finished.
func (s *Sim) broadcast() bool {
	branchResolved := false
	executing := len(s.exec)
	keepExec := s.exec[:0]
	for _, u := range s.exec {
		if u.doneC > s.cycle {
			keepExec = append(keepExec, u)
			continue
		}
		u.state = stDone
		if isBranchKind(u.kind) {
			s.unresolvedBranches--
			branchResolved = true
		}
		for _, c := range u.consumers {
			if c.pending--; c.pending == 0 {
				s.wake(c)
			}
		}
		u.consumers = u.consumers[:0]
	}
	s.exec = keepExec
	// Early-dequeue model: ops that stayed ROB-resident only because an
	// older branch was unresolved (speculative, hence abortable) are
	// removed once no older unresolved branch remains.
	if s.cfg.EarlyDequeue && branchResolved {
		unresolved := 0
		for i := 0; i < s.robLen; i++ {
			u := s.robAt(i)
			if unresolved == 0 && !canAbort(u.kind) {
				u.inSampleROB = false
			}
			if isBranchKind(u.kind) && u.state != stDone {
				unresolved++
			}
		}
	}
	return len(s.exec) < executing
}

// wake inserts u into the ready queue at its place in seq order. Woken
// uops are usually among the youngest waiting, so the backward walk is
// short.
func (s *Sim) wake(u *uop) {
	q := append(s.readyQ, u)
	i := len(q) - 1
	for ; i > 0 && q[i-1].seq > u.seq; i-- {
		q[i] = q[i-1]
	}
	q[i] = u
	s.readyQ = q
}

func isBranchKind(k isa.Kind) bool {
	switch k {
	case isa.KindBranch, isa.KindIndirect, isa.KindIndCall, isa.KindReturn:
		return true
	}
	return false
}

// finishAt handles side effects that occur when u's execution completes:
// predictor training and mispredict redirect scheduling.
func (s *Sim) finishAt(u *uop) {
	u.state = stIssued
	switch op := u.op; {
	case op.IsConditional():
		// Trained at resolve time.
		s.dir.Update(u.pc, u.taken)
	case op.IsIndirect():
		s.btb.Update(u.pc, u.nextPC)
	}
	if u.mispredicted && s.redirectBranch == u {
		until := u.doneC + s.cfg.MispredictPenalty
		if until > s.fetchStallUntil {
			s.fetchStallUntil = until
		}
		s.redirectBranch = nil
	}
}

func canAbort(k isa.Kind) bool {
	switch k {
	case isa.KindLoad, isa.KindStore, isa.KindBranch, isa.KindIndirect,
		isa.KindIndCall, isa.KindReturn, isa.KindSyscall:
		return true
	}
	return false
}

// loadLatency computes a load's latency, checking store forwarding first.
func (s *Sim) loadLatency(u *uop) uint64 {
	line := u.addr >> 3
	// Forward from an older in-flight store to the same 8-byte word,
	// youngest first.
	for i := s.sqLen - 1; i >= 0; i-- {
		o := s.sqAt(i)
		if o.seq < u.seq && o.addr>>3 == line {
			return 2 // store-to-load forward
		}
	}
	for _, e := range s.sb {
		if e.addr>>3 == line && e.drainDone > s.cycle {
			return 2
		}
	}
	return s.cache.Access(u.addr)
}

// ---------------------------------------------------------------------------
// Dispatch stage: pull instructions from the functional front end, predict
// branches, rename, and insert into ROB+IQ.

// decoded is the static half of one text slot's dispatch, translated once
// per image.
type decoded struct {
	op   isa.Op
	kind isa.Kind
	// srcs[:nsrc] are the lastWriter slots (0-31 int, 32-63 fp) of the
	// source operands, X0 dropped. A register read twice appears twice:
	// each read counts toward the consumer's pending.
	srcs [3]int8
	nsrc uint8
	// writes are the lastWriter slots the instruction claims (-1 = none):
	// the destination or, for calls, RA; and A0 for syscalls.
	writes [2]int8
}

// predecode builds the per-slot dispatch table of a text segment.
func predecode(text []isa.Instruction) []decoded {
	tab := make([]decoded, len(text))
	for i, inst := range text {
		d := &tab[i]
		op := inst.Op
		d.op, d.kind, d.writes = op, op.Kind(), [2]int8{-1, -1}
		src := func(r isa.Reg, fp bool) {
			switch {
			case fp:
				d.srcs[d.nsrc] = int8(r) + 32
			case r != isa.X0:
				d.srcs[d.nsrc] = int8(r)
			default:
				return
			}
			d.nsrc++
		}
		switch d.kind {
		case isa.KindLoad, isa.KindPrefetch, isa.KindIndirect, isa.KindIndCall:
			src(inst.Rs, false)
		case isa.KindStore:
			src(inst.Rs, false)
			src(inst.Rt, op.ReadsFP())
		case isa.KindBranch:
			src(inst.Rs, false)
			src(inst.Rt, false)
		case isa.KindReturn:
			src(isa.RA, false)
		case isa.KindSyscall:
			src(isa.A7, false)
			src(isa.A0, false)
		case isa.KindJump, isa.KindCall, isa.KindNop:
		default: // ALU, multiply, divide and FP compute
			switch op {
			case isa.LUI:
			case isa.CMOVZ, isa.CMOVNZ:
				src(inst.Rs, false)
				src(inst.Rt, false)
				src(inst.Rd, false) // the old value conditionally survives
			case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI,
				isa.SRAI, isa.SLTI, isa.SLTIU, isa.FCVTDL, isa.FMVDX:
				src(inst.Rs, false)
			case isa.FSQRT, isa.FNEG, isa.FMOV, isa.FCVTLD, isa.FMVXD:
				src(inst.Rs, true)
			default:
				fp := op.ReadsFP()
				src(inst.Rs, fp)
				src(inst.Rt, fp)
			}
		}
		switch d.kind {
		case isa.KindLoad, isa.KindALU, isa.KindMul, isa.KindDiv, isa.KindFPU, isa.KindFDiv:
			if op.WritesFP() {
				d.writes[0] = int8(inst.Rd) + 32
			} else if inst.Rd != isa.X0 {
				d.writes[0] = int8(inst.Rd)
			}
		case isa.KindCall, isa.KindIndCall:
			d.writes[0] = int8(isa.RA)
		case isa.KindSyscall:
			d.writes[1] = int8(isa.A0)
		}
	}
	return tab
}

func (s *Sim) dispatch() {
	s.clearPendingSyscall()
	if s.fetchDone || s.cycle < s.fetchStallUntil ||
		s.redirectBranch != nil || s.pendingSyscall != nil {
		return
	}
	for n := 0; n < s.cfg.FetchWidth; n++ {
		if s.robLen >= s.cfg.ROBSize || s.iqLen >= s.cfg.IQSize {
			return
		}
		if s.arch.Exited {
			s.fetchDone = true
			return
		}
		pc := s.arch.St.PC
		slot, addr, taken, err := s.code.Fetch(s.arch)
		if err != nil {
			s.err = err
			s.fetchDone = true
			return
		}
		d := &s.decoded[slot]
		s.seq++
		// A recycled record is overwritten field by field; its consumer
		// list is already empty (a producer empties it when it finishes,
		// before it can commit) and keeps its backing array.
		u := s.newUop()
		u.seq, u.pc, u.op, u.kind = s.seq, pc, d.op, d.kind
		u.pending, u.consumers = 0, u.consumers[:0]
		u.addr, u.taken, u.nextPC = addr, taken, s.arch.St.PC
		u.state, u.doneC, u.inSampleROB, u.mispredicted = stWaiting, 0, true, false
		u.dispatchC, u.execStartC, u.commitC = s.cycle, 0, 0
		// Rename: a producer that has not finished gains u as a consumer.
		// Dispatch runs after this cycle's broadcast, so an issued
		// producer is still executing.
		for _, r := range d.srcs[:d.nsrc] {
			if w := s.lastWriter[r]; w != nil && w.state != stDone {
				u.pending++
				w.consumers = append(w.consumers, u)
			}
		}
		u.writes = d.writes
		for _, wi := range d.writes {
			if wi >= 0 {
				s.lastWriter[wi] = u
			}
		}
		if isBranchKind(u.kind) {
			s.unresolvedBranches++
		}
		// Early-dequeue commit model (§V-B AArch64): a dispatched op that
		// cannot abort and is not speculative leaves the sampling-visible
		// reorder buffer immediately, even before executing. Back-pressure
		// (a full issue queue) is then what keeps ops sampling-visible.
		if s.cfg.EarlyDequeue && !canAbort(u.kind) && s.unresolvedBranches == 0 {
			u.inSampleROB = false
		}
		s.robPush(u)
		if u.kind == isa.KindStore {
			s.sqBuf[(s.sqHead+s.sqLen)&s.robMask] = u
			s.sqLen++
		}
		s.iqLen++
		if u.pending == 0 {
			// The youngest uop: appending keeps the queue in seq order.
			s.readyQ = append(s.readyQ, u)
		}
		s.predict(u)
		if u.kind == isa.KindSyscall {
			// Syscalls serialize the front end until they commit.
			s.pendingSyscall = u
			return
		}
		if u.mispredicted {
			// Fetch freezes on the wrong path; the redirect is scheduled
			// when the branch resolves (finishAt).
			s.redirectBranch = u
			return
		}
		if taken || u.kind == isa.KindJump || u.kind == isa.KindCall ||
			u.kind == isa.KindIndirect || u.kind == isa.KindIndCall ||
			u.kind == isa.KindReturn {
			// Taken control flow ends the fetch group.
			return
		}
	}
}

func (s *Sim) clearPendingSyscall() {
	if s.pendingSyscall != nil && s.pendingSyscall.commitC != 0 {
		s.pendingSyscall = nil
	}
}

// predict runs the front-end predictors for u and marks mispredicts.
func (s *Sim) predict(u *uop) {
	switch op := u.op; {
	case op.IsConditional():
		s.stats.Branches++
		if s.dir.Predict(u.pc) != u.taken {
			u.mispredicted = true
			s.stats.Mispredicts++
		}
	case op == isa.JMP, op == isa.CALL:
		// Direct targets: front end decodes these; no mispredict.
		if op == isa.CALL {
			s.ras.Push(u.pc + isa.InstBytes)
		}
	case op == isa.CALLR:
		s.ras.Push(u.pc + isa.InstBytes)
		if t, ok := s.btb.Predict(u.pc); !ok || t != u.nextPC {
			u.mispredicted = true
			s.stats.Mispredicts++
		}
		s.stats.Branches++
	case op == isa.JR:
		if t, ok := s.btb.Predict(u.pc); !ok || t != u.nextPC {
			u.mispredicted = true
			s.stats.Mispredicts++
		}
		s.stats.Branches++
	case op == isa.RET:
		if t, ok := s.ras.Pop(); !ok || t != u.nextPC {
			u.mispredicted = true
			s.stats.Mispredicts++
		}
		s.stats.Branches++
	}
}

// ---------------------------------------------------------------------------
// Sampling

// maybeSample implements the periodic sampling interrupt. The counter runs
// on user cycles; delivery semantics depend on the mode (see SampleMode).
func (s *Sim) maybeSample() {
	if s.samplePeriod == 0 {
		return
	}
	user := s.cycle - s.kernelCycles
	if !s.samplePending && user >= s.nextSampleAt {
		s.samplePending = true
	}
	if !s.samplePending {
		return
	}
	switch s.sampleMode {
	case SamplePrecise:
		// Delivered immediately: observe the oldest uncommitted op.
		s.deliverSample()
	case SampleSkid:
		// Delivered only once commit makes progress: the stalled head has
		// retired and the sampled PC skids onto its successor. If the ROB
		// is empty (e.g. right at program end) deliver immediately.
		if s.committedThis || s.robLen == 0 {
			s.deliverSample()
		}
	}
}

func (s *Sim) deliverSample() {
	s.samplePending = false
	user := s.cycle - s.kernelCycles
	pc := uint64(0)
	if oldest := s.oldestSampleVisible(); oldest != nil {
		pc = oldest.pc
	} else if s.cfg.EarlyDequeue && !s.fetchDone {
		// N1-style: every in-flight op has been dequeued at dispatch, so
		// the oldest ROB-resident instruction is the one stalled at the
		// allocation frontier — the op that could not dispatch because of
		// issue-queue back-pressure (§V-B, figure 9).
		pc = s.arch.St.PC
	} else if s.robLen > 0 {
		pc = s.robAt(0).pc
	} else {
		pc = s.arch.St.PC // between instructions: next PC
	}
	weight := user - s.lastSampleUser
	s.lastSampleUser = user
	next := s.samplePeriod
	if s.sampleJitter {
		// xorshift*: deterministic ±25% spread around the nominal period.
		s.jitterState ^= s.jitterState >> 12
		s.jitterState ^= s.jitterState << 25
		s.jitterState ^= s.jitterState >> 27
		span := s.samplePeriod / 2
		if span > 0 {
			next = s.samplePeriod - span/2 + (s.jitterState*2685821657736338717)%span
		}
	}
	s.nextSampleAt = user + next
	s.stats.Samples++
	if s.onSample != nil {
		frames := s.callStack
		if len(frames) > s.maxStackDepth {
			// Keep the innermost frames (the top of the stack).
			frames = frames[len(frames)-s.maxStackDepth:]
		}
		stack := make([]uint64, len(frames))
		for i, ra := range frames {
			stack[len(frames)-1-i] = ra // innermost first
		}
		misses := s.cache.MemAccesses
		s.onSample(Sample{
			PC: pc, Weight: weight, Stack: stack,
			CacheMisses: misses - s.lastSampleMiss,
			Mispredicts: s.stats.Mispredicts - s.lastSampleBrMp,
		})
		s.lastSampleMiss = misses
		s.lastSampleBrMp = s.stats.Mispredicts
	}
	// Interrupt handling consumes kernel time: the whole pipeline stalls.
	if s.interruptCost > 0 {
		s.advanceKernel(s.interruptCost)
	}
}

// advanceKernel freezes user progress for cost cycles.
func (s *Sim) advanceKernel(cost uint64) {
	s.cycle += cost
	s.kernelCycles += cost
	// Everything in flight is pushed back: modelled by shifting ready
	// times of issued-but-unfinished work (memory continues in reality;
	// this simplification keeps user-cycle accounting exact). The exec
	// list is exactly the issued-but-unfinished set.
	for _, u := range s.exec {
		if u.doneC > s.cycle-cost {
			u.doneC += cost
		}
	}
	if s.fetchStallUntil > s.cycle-cost && s.fetchStallUntil < ^uint64(0)>>2 {
		s.fetchStallUntil += cost
	}
	if s.divBusyUntil > s.cycle-cost {
		s.divBusyUntil += cost
	}
	if s.fdivBusyUntil > s.cycle-cost {
		s.fdivBusyUntil += cost
	}
	for i := range s.sb {
		if s.sb[i].drainDone > s.cycle-cost {
			s.sb[i].drainDone += cost
		}
	}
	if s.lastDrain > s.cycle-cost {
		s.lastDrain += cost
	}
}

// oldestSampleVisible returns the oldest uop still visible to the sampling
// hardware (the whole ROB on x86; abortable/undispatched ops only in the
// early-dequeue model).
func (s *Sim) oldestSampleVisible() *uop {
	for i := 0; i < s.robLen; i++ {
		if u := s.robAt(i); u.inSampleROB {
			return u
		}
	}
	return nil
}
