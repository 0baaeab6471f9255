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

// uop is one dynamic instruction in flight. It is held by value in the
// reorder-buffer ring from dispatch to commit; everything else names it by
// its sequence number. The one-byte fields come first and share a word.
type uop struct {
	seq   uint64
	pc    uint64 // absolute
	op    isa.Op
	kind  isa.Kind
	flags slotFlags
	state uopState

	// pending counts source operands whose producer had not finished at
	// dispatch and has not broadcast since; the uop is ready to issue at
	// zero.
	pending      uint8
	taken        bool // from the functional trace
	inSampleROB  bool
	mispredicted bool

	// consumers lists the seqs of the waiting uops this one wakes when it
	// finishes; its backing array stays with the ring slot, so the steady
	// state allocates none.
	consumers []uint64

	// Dynamic facts from the functional trace.
	addr   uint64 // effective address for memory ops
	nextPC uint64

	doneC uint64 // cycle the result becomes available

	// Timeline (for the figure 2 trace).
	dispatchC, execStartC uint64
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

	// The reorder buffer is a power-of-two ring of uop values: the uop
	// with sequence number q lives at rob[q&robMask] from dispatch to
	// commit. Sequence numbers start at 1 and the in-flight uops are
	// exactly headSeq..seq, so a seq below headSeq has retired and its
	// slot may already hold a younger uop. Every other structure names a
	// uop by seq, so commit is one increment and nothing is recycled.
	rob     []uop
	robMask uint64
	headSeq uint64

	// The store queue holds the seqs of the in-flight stores oldest
	// first, in a ring as long as the ROB's: dispatch pushes each store,
	// commit pops it as it moves to the store buffer. Store-to-load
	// forwarding searches it instead of the whole ROB.
	sq     []uint64
	sqHead int
	sqLen  int

	// iqLen counts dispatched uops that have not issued yet; it gates
	// dispatch at IQSize. readyQ holds those whose operands are all
	// available, in seq order, which is the order the issue stage
	// selects in.
	iqLen  int
	readyQ []uint64

	// exec holds issued-but-unfinished uops so the per-cycle result
	// broadcast (and kernel-time shifts) touch only executing work
	// instead of scanning the whole ROB. execMin is the earliest doneC
	// among them (noEvent when exec is empty): broadcast returns at once
	// while it lies in the future, and nextEvent reads it.
	exec    []uint64
	execMin uint64

	// lastWriter holds the seq of the last dispatched writer of each
	// register (0-31 int, 32-63 fp). A writer is a live producer only
	// while its seq is at least headSeq; once it retires the
	// architectural value is final, so commit never touches the table.
	lastWriter [64]uint64

	// edSeq is the early-dequeue frontier (Config.EarlyDequeue): every
	// in-flight uop below it is behind no unresolved branch, and the
	// uop at edSeq, when in flight, is the oldest unresolved branch.
	edSeq uint64

	// Store buffer: drain completion cycles of committed stores, oldest
	// first; drainDone never decreases along the slice.
	sb []sbEntry
	// lastDrain serializes store drains to memory.
	lastDrain uint64

	// Fetch redirect: fetch is frozen until this cycle (mispredict or
	// syscall serialization).
	fetchStallUntil uint64
	// redirectBranch, when non-zero, is the seq of an unresolved
	// mispredicted branch; fetch is frozen until it resolves and
	// schedules the redirect.
	redirectBranch uint64
	fetchDone      bool // interpreter exhausted
	// pendingSyscall is the seq of the last fetched syscall; it blocks
	// further fetch while in flight (at least headSeq), i.e. until it
	// commits.
	pendingSyscall uint64

	// Non-pipelined units.
	divBusyUntil  uint64
	fdivBusyUntil uint64

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
	s.rob = make([]uop, robCap)
	s.robMask = uint64(robCap - 1)
	s.headSeq, s.edSeq, s.execMin = 1, 1, noEvent
	s.sq = make([]uint64, robCap)
	s.readyQ = make([]uint64, 0, cfg.IQSize)
	s.exec = make([]uint64, 0, cfg.IQSize)
	return s
}

// at returns the in-flight uop with sequence number q.
func (s *Sim) at(q uint64) *uop { return &s.rob[q&s.robMask] }

// robLen is the number of uops in flight.
func (s *Sim) robLen() int { return int(s.seq + 1 - s.headSeq) }

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
		if s.fetchDone && s.robLen() == 0 {
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
		active := s.step()
		if s.err != nil {
			return s.stats, s.err
		}
		if active || (s.fetchDone && s.robLen() == 0) {
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

// step simulates one cycle and reports whether it was active: whether
// anything committed, issued, finished, dispatched or was sampled.
func (s *Sim) step() bool {
	s.cycle++
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
	return s.committedThis || issued || s.seq != seq || s.stats.Samples != samples
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
	case s.robLen() > 0:
		pc = s.at(s.headSeq).pc
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
	at(s.execMin)
	if s.robLen() > 0 && s.at(s.headSeq).state == stDone && len(s.sb) >= s.cfg.SBSize {
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

	for n := 0; n < s.cfg.CommitWidth && s.headSeq <= s.seq; n++ {
		u := s.at(s.headSeq)
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
			s.sqHead = (s.sqHead + 1) & int(s.robMask)
			s.sqLen--
		}
		// Maintain the commit-time call stack for perf-style unwinding.
		switch {
		case u.flags&fCall != 0:
			s.callStack = append(s.callStack, u.pc+isa.InstBytes)
		case u.flags&fReturn != 0:
			if len(s.callStack) > 0 {
				s.callStack = s.callStack[:len(s.callStack)-1]
			}
		}
		s.recordTrace(u)
		// Retiring is moving the head: the slot, the writer-table
		// entries naming this seq and a pendingSyscall equal to it all
		// go stale at once.
		s.headSeq++
		s.stats.Instructions++
		s.committedThis = true
	}
}

type sbEntry struct {
	addr      uint64
	drainDone uint64
}

// recordTrace records u, committing this cycle, in the timeline.
func (s *Sim) recordTrace(u *uop) {
	if s.traceLimit == 0 || u.seq > s.traceLimit {
		return
	}
	s.trace = append(s.trace, TimelineEntry{
		Seq: u.seq, PC: u.pc, Op: u.op,
		Dispatch: u.dispatchC, Start: u.execStartC,
		Done: u.doneC, Commit: s.cycle,
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
	for i, q := range s.readyQ {
		if issued >= s.cfg.IssueWidth {
			keep = append(keep, s.readyQ[i:]...)
			break
		}
		u := s.at(q)
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
			keep = append(keep, q)
			continue
		}
		issued++
		s.iqLen--
		u.state = stIssued
		u.execStartC = s.cycle
		u.doneC = s.cycle + lat
		s.exec = append(s.exec, q)
		s.execMin = min(s.execMin, u.doneC)
		s.finishAt(u)
	}
	s.readyQ = keep
	return issued > 0 || finished
}

// broadcast promotes issued uops whose result time has arrived and wakes
// the consumers whose last outstanding operand that was, then advances
// the early-dequeue frontier. Only members of the exec list can change
// state here, so it scans executing work rather than the whole ROB, and
// not even that on a cycle before execMin. It reports whether anything
// finished.
func (s *Sim) broadcast() bool {
	if s.execMin > s.cycle {
		return false
	}
	executing := len(s.exec)
	keep, next := s.exec[:0], noEvent
	for _, q := range s.exec {
		u := s.at(q)
		if u.doneC > s.cycle {
			keep = append(keep, q)
			next = min(next, u.doneC)
			continue
		}
		u.state = stDone
		for _, c := range u.consumers {
			w := s.at(c)
			if w.pending--; w.pending == 0 {
				s.wake(c)
			}
		}
		u.consumers = u.consumers[:0]
	}
	s.exec, s.execMin = keep, next
	if s.cfg.EarlyDequeue {
		s.earlyDequeue()
	}
	return len(s.exec) < executing
}

// earlyDequeue advances the early-dequeue frontier (§V-B AArch64): a
// dispatched op that cannot abort and is behind no unresolved branch
// (so not speculative) leaves the sampling-visible reorder buffer, even
// before it executes. The walk resumes at edSeq and stops at the next
// unresolved branch, so each uop is passed once: at dispatch when
// nothing older is unresolved, or when the branch holding it back
// resolves.
func (s *Sim) earlyDequeue() {
	for ; s.edSeq <= s.seq; s.edSeq++ {
		u := s.at(s.edSeq)
		if u.flags&fBranch != 0 && u.state != stDone {
			return
		}
		if u.flags&fCanAbort == 0 {
			u.inSampleROB = false
		}
	}
}

// wake inserts seq q into the ready queue at its place in seq order.
// Woken uops are usually among the youngest waiting, so the backward
// walk is short.
func (s *Sim) wake(q uint64) {
	rq := append(s.readyQ, q)
	i := len(rq) - 1
	for ; i > 0 && rq[i-1] > q; i-- {
		rq[i] = rq[i-1]
	}
	rq[i] = q
	s.readyQ = rq
}

// finishAt handles side effects that occur when u's execution completes:
// predictor training and mispredict redirect scheduling.
func (s *Sim) finishAt(u *uop) {
	switch {
	case u.flags&fConditional != 0:
		// Trained at resolve time.
		s.dir.Update(u.pc, u.taken)
	case u.flags&fIndirect != 0:
		s.btb.Update(u.pc, u.nextPC)
	}
	if u.mispredicted && s.redirectBranch == u.seq {
		until := u.doneC + s.cfg.MispredictPenalty
		if until > s.fetchStallUntil {
			s.fetchStallUntil = until
		}
		s.redirectBranch = 0
	}
}

// loadLatency computes a load's latency, checking store forwarding first.
func (s *Sim) loadLatency(u *uop) uint64 {
	line := u.addr >> 3
	// Forward from an older in-flight store to the same 8-byte word,
	// youngest first.
	for i := s.sqLen - 1; i >= 0; i-- {
		q := s.sq[(s.sqHead+i)&int(s.robMask)]
		if q < u.seq && s.at(q).addr>>3 == line {
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
	op    isa.Op
	kind  isa.Kind
	flags slotFlags
	// srcs[:nsrc] are the lastWriter slots (0-31 int, 32-63 fp) of the
	// source operands, X0 dropped. A register read twice appears twice:
	// each read counts toward the consumer's pending.
	srcs [3]int8
	nsrc uint8
	// writes are the lastWriter slots the instruction claims (-1 = none):
	// the destination or, for calls, RA; and A0 for syscalls.
	writes [2]int8
}

// slotFlags are the facts about an op that the pipeline stages branch on,
// derived from its kind once per text slot so no stage re-derives them.
type slotFlags uint8

const (
	// fBranch: a control transfer whose outcome is known only when it
	// executes (conditional, indirect, indirect call, return); it holds
	// younger ops in the sampling-visible ROB under early dequeue.
	fBranch slotFlags = 1 << iota
	// fCanAbort: a load, store, fBranch op or syscall, which stays
	// sampling-visible under early dequeue until it commits.
	fCanAbort
	fCall        // pushes a return address (direct or indirect call)
	fReturn      // pops one
	fConditional // trains the direction predictor
	fIndirect    // trains the BTB (indirect jump, indirect call, return)
	// fEndsGroup: an unconditional control transfer, which ends the
	// fetch group (a taken conditional branch ends it too).
	fEndsGroup
)

// fPredicted marks the ops predict has work for.
const fPredicted = fConditional | fCall | fIndirect

// flagsOf derives an op's slotFlags.
func flagsOf(op isa.Op) slotFlags {
	var f slotFlags
	switch op.Kind() {
	case isa.KindBranch:
		f = fBranch | fCanAbort | fConditional
	case isa.KindIndirect:
		f = fBranch | fCanAbort | fIndirect | fEndsGroup
	case isa.KindIndCall:
		f = fBranch | fCanAbort | fIndirect | fCall | fEndsGroup
	case isa.KindReturn:
		f = fBranch | fCanAbort | fIndirect | fReturn | fEndsGroup
	case isa.KindCall:
		f = fCall | fEndsGroup
	case isa.KindJump:
		f = fEndsGroup
	case isa.KindLoad, isa.KindStore, isa.KindSyscall:
		f = fCanAbort
	}
	return f
}

// predecode builds the per-slot dispatch table of a text segment.
func predecode(text []isa.Instruction) []decoded {
	tab := make([]decoded, len(text))
	for i, inst := range text {
		d := &tab[i]
		op := inst.Op
		d.op, d.kind, d.flags, d.writes = op, op.Kind(), flagsOf(op), [2]int8{-1, -1}
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
	if s.fetchDone || s.cycle < s.fetchStallUntil ||
		s.redirectBranch != 0 || s.pendingSyscall >= s.headSeq {
		return
	}
	for n := 0; n < s.cfg.FetchWidth; n++ {
		if s.robLen() >= s.cfg.ROBSize || s.iqLen >= s.cfg.IQSize {
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
		q := s.seq
		// The slot's previous occupant has retired; its fields are
		// overwritten one by one. Its consumer list is already empty (a
		// producer empties it when it finishes, before it can commit)
		// and keeps its backing array.
		u := s.at(q)
		u.seq, u.pc, u.op, u.kind, u.flags = q, pc, d.op, d.kind, d.flags
		u.pending, u.consumers = 0, u.consumers[:0]
		u.addr, u.taken, u.nextPC = addr, taken, s.arch.St.PC
		u.state, u.doneC, u.inSampleROB, u.mispredicted = stWaiting, 0, true, false
		u.dispatchC, u.execStartC = s.cycle, 0
		// Rename: a live producer that has not finished gains u as a
		// consumer. Dispatch runs after this cycle's broadcast, so an
		// issued producer is still executing.
		for _, r := range d.srcs[:d.nsrc] {
			if w := s.lastWriter[r]; w >= s.headSeq {
				if p := s.at(w); p.state != stDone {
					u.pending++
					p.consumers = append(p.consumers, q)
				}
			}
		}
		for _, wi := range d.writes {
			if wi >= 0 {
				s.lastWriter[wi] = q
			}
		}
		if s.cfg.EarlyDequeue {
			// A non-abortable op with no unresolved branch ahead of it
			// leaves the sampling-visible ROB now. Back-pressure (a full
			// issue queue) is then what keeps ops sampling-visible.
			s.earlyDequeue()
		}
		if u.kind == isa.KindStore {
			s.sq[(s.sqHead+s.sqLen)&int(s.robMask)] = q
			s.sqLen++
		}
		s.iqLen++
		if u.pending == 0 {
			// The youngest uop: appending keeps the queue in seq order.
			s.readyQ = append(s.readyQ, q)
		}
		if u.flags&fPredicted != 0 {
			s.predict(u)
		}
		if u.kind == isa.KindSyscall {
			// Syscalls serialize the front end until they commit.
			s.pendingSyscall = q
			return
		}
		if u.mispredicted {
			// Fetch freezes on the wrong path; the redirect is scheduled
			// when the branch resolves (finishAt).
			s.redirectBranch = q
			return
		}
		if taken || u.flags&fEndsGroup != 0 {
			// Taken control flow ends the fetch group.
			return
		}
	}
}

// predict runs the front-end predictors for u and marks mispredicts.
func (s *Sim) predict(u *uop) {
	switch op := u.op; {
	case u.flags&fConditional != 0:
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
		if s.committedThis || s.robLen() == 0 {
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
	} else if s.robLen() > 0 {
		pc = s.at(s.headSeq).pc
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
	for _, q := range s.exec {
		if u := s.at(q); u.doneC > s.cycle-cost {
			u.doneC += cost
		}
	}
	if s.execMin != noEvent && s.execMin > s.cycle-cost {
		s.execMin += cost
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
	for q := s.headSeq; q <= s.seq; q++ {
		if u := s.at(q); u.inSampleROB {
			return u
		}
	}
	return nil
}
