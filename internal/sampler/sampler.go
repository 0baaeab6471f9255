// Package sampler is the repository's perf substitute (component 1 in the
// paper's figure 3).
//
// It executes the profiled program once on the out-of-order pipeline
// simulator with a periodic sampling interrupt enabled, and collects — per
// sample — exactly the three fields OptiWISE consumes (§IV-B): the sampled
// PC, the number of user-mode cycles elapsed since the previous sample (the
// sample's weight), and a call-stack trace.
//
// All recorded addresses are module-relative offsets, never absolute
// addresses, because the load base changes across (simulated-ASLR) runs
// (§IV-A).
package sampler

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"optiwise/internal/fault"
	"optiwise/internal/isa"
	"optiwise/internal/obs"
	"optiwise/internal/ooo"
	"optiwise/internal/program"
	"optiwise/internal/trailer"
)

// Record is one sample, fully module-relative.
type Record struct {
	// Offset is the sampled PC as a module offset.
	Offset uint64 `json:"off"`
	// Weight is user-mode cycles since the previous sample.
	Weight uint64 `json:"w"`
	// Stack holds return addresses as module offsets, innermost first.
	Stack []uint64 `json:"stack,omitempty"`
	// CacheMisses / Mispredicts are event counts since the previous
	// sample (perf records many counters per sample; §IV-A).
	CacheMisses uint64 `json:"miss,omitempty"`
	Mispredicts uint64 `json:"brmp,omitempty"`
}

// Profile is the output of one sampling run.
type Profile struct {
	Module string `json:"module"`
	// Period is the sampling period in user cycles.
	Period uint64 `json:"period"`
	// Precise records whether PEBS-style attribution was used.
	Precise bool     `json:"precise"`
	Records []Record `json:"records"`
	// TotalCycles / UserCycles describe the profiled run.
	TotalCycles uint64 `json:"total_cycles"`
	UserCycles  uint64 `json:"user_cycles"`
	// Instructions retired by the profiled run.
	Instructions uint64 `json:"instructions"`
	// Intervals is the opt-in cycle-windowed telemetry stream from the
	// simulated core (Options.Window); omitted when disabled so the
	// serialized format is byte-identical to the pre-telemetry one.
	Intervals []ooo.Interval `json:"intervals,omitempty"`
	// IntervalCycles is the window size that produced Intervals (0
	// when disabled).
	IntervalCycles uint64 `json:"interval_cycles,omitempty"`
}

// SamplesByOffset aggregates raw sample counts per module offset.
func (p *Profile) SamplesByOffset() map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for _, r := range p.Records {
		m[r.Offset]++
	}
	return m
}

// WeightByOffset aggregates sample weights (user cycles) per module offset.
func (p *Profile) WeightByOffset() map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for _, r := range p.Records {
		m[r.Offset] += r.Weight
	}
	return m
}

// Options configures a sampling run.
type Options struct {
	// Period is the sampling period in user cycles (the inverse of perf's
	// -F frequency). Required.
	Period uint64
	// InterruptCost is kernel cycles consumed per sample (sampling
	// overhead; the paper reports ~1.01x total).
	InterruptCost uint64
	// Precise selects PEBS-style attribution (ooo.SamplePrecise).
	Precise bool
	// Jitter varies the sampling period pseudo-randomly (±25%), modelling
	// imperfect interrupt timing; per-sample weights correct for it
	// (§IV-B).
	Jitter bool
	// ASLRSeed randomizes the load base for this run.
	ASLRSeed int64
	// RandSeed seeds the program's SysRand.
	RandSeed uint64
	// MaxCycles bounds the run (0 = unlimited).
	MaxCycles uint64
	// Window, when non-zero, closes one ooo.Interval per this many
	// simulated cycles (ooo.Options.WindowCycles); they become the
	// profile's Intervals. Disabled, the run pays one nil compare per
	// simulated cycle.
	Window uint64
	// OnWindow, with Window, receives each window on the simulation
	// goroutine as it closes, plus a final one for the trailing
	// partial window (see window.go); final marks the last.
	OnWindow func(w Window, final bool)
}

// DefaultInterruptCost approximates the cost of taking, servicing, and
// returning from one sampling interrupt. Simulated programs are far
// shorter than SPEC runs, so the default sampling periods are far shorter
// than a real 1000 Hz session's; this cost is scaled down accordingly to
// keep the cost/period ratio — and hence the ~1% sampling overhead the
// paper reports — realistic.
const DefaultInterruptCost = 25

// Run profiles prog by sampling on the machine described by cfg.
func Run(cfg ooo.Config, prog *program.Program, opts Options) (*Profile, ooo.Stats, error) {
	return RunContext(context.Background(), cfg, prog, opts)
}

// RunContext is Run with cooperative cancellation, threaded down to the
// cycle-granularity check in the pipeline simulator's run loop. On
// cancellation the returned error wraps ctx.Err().
func RunContext(ctx context.Context, cfg ooo.Config, prog *program.Program, opts Options) (*Profile, ooo.Stats, error) {
	if opts.Period == 0 {
		return nil, ooo.Stats{}, fmt.Errorf("sampler: period must be non-zero")
	}
	// Metric handles fetched once per run; each is nil (a no-op) when
	// observability is disabled, so the per-sample cost is one pointer
	// check.
	var (
		mTaken   = obs.Counter(obs.MSamplesTaken)
		mDropped = obs.Counter(obs.MSamplesDropped)
		mWeight  = obs.Histogram(obs.MSampleWeight)
	)
	img := program.Load(prog, program.LoadOptions{ASLRSeed: opts.ASLRSeed})
	profile := &Profile{
		Module:  prog.Module,
		Period:  opts.Period,
		Precise: opts.Precise,
	}
	mode := ooo.SampleSkid
	if opts.Precise {
		mode = ooo.SamplePrecise
	}
	var win *windowEmitter
	var hook func(ooo.Interval)
	if opts.Window > 0 && opts.OnWindow != nil {
		win = &windowEmitter{p: profile, emit: opts.OnWindow}
		hook = win.boundary
	}
	sim := ooo.New(cfg, img, ooo.Options{
		SamplePeriod:  opts.Period,
		SampleJitter:  opts.Jitter,
		SampleMode:    mode,
		InterruptCost: opts.InterruptCost,
		WindowCycles:  opts.Window,
		OnWindow:      hook,
		RandSeed:      opts.RandSeed,
		OnSample: func(s ooo.Sample) {
			off, ok := img.AbsToOff(s.PC)
			if !ok {
				mDropped.Inc()
				return // sample outside the module (cannot happen today)
			}
			mTaken.Inc()
			mWeight.Observe(s.Weight)
			rec := Record{
				Offset: off, Weight: s.Weight,
				CacheMisses: s.CacheMisses, Mispredicts: s.Mispredicts,
			}
			for _, ra := range s.Stack {
				if roff, ok := img.AbsToOff(ra); ok {
					rec.Stack = append(rec.Stack, roff)
				}
			}
			profile.Records = append(profile.Records, rec)
		},
	})
	stats, err := sim.RunContext(ctx, opts.MaxCycles)
	if err != nil {
		return nil, stats, fmt.Errorf("sampler: %w", err)
	}
	profile.TotalCycles = stats.Cycles
	profile.UserCycles = stats.UserCycles
	profile.Instructions = stats.Instructions
	if opts.Window > 0 {
		profile.Intervals = sim.Intervals()
		profile.IntervalCycles = opts.Window
	}
	if win != nil {
		win.final()
	}
	recordRunMetrics(sim, stats)
	return profile, stats, nil
}

// recordRunMetrics feeds the aggregate run counters — simulated cycles,
// instructions, branch outcomes, and per-level cache hits/misses — into
// the metrics registry. Aggregates are added in bulk after the run so
// the simulator's inner loop carries no instrumentation at all.
func recordRunMetrics(sim *ooo.Sim, stats ooo.Stats) {
	if obs.ActiveRegistry() == nil {
		return
	}
	obs.Counter(obs.MSimCycles).Add(stats.Cycles)
	obs.Counter(obs.MSimInstructions).Add(stats.Instructions)
	obs.Counter(obs.MSimMispredicts).Add(stats.Mispredicts)
	obs.Counter(obs.MSimBranches).Add(stats.Branches)
	for _, l := range sim.Cache().Levels() {
		obs.Counter(obs.CacheHits(l.Name())).Add(l.Hits)
		obs.Counter(obs.CacheMisses(l.Name())).Add(l.Misses)
	}
}

// Deserialization limits. Sampling profiles now cross a network
// boundary (the profiling service), so Read refuses anything that would
// pin unbounded memory or carry structurally impossible values.
const (
	// MaxProfileBytes caps the serialized size Read will consume.
	MaxProfileBytes = 256 << 20
	// MaxRecords caps the number of samples in one profile.
	MaxRecords = 16 << 20
	// MaxStackFrames caps a single sample's call-stack depth; the
	// simulator itself never exceeds ooo.DefaultMaxStackDepth, but the
	// wire format must not trust the producer.
	MaxStackFrames = 4096
	// MaxOffset bounds every module offset a profile may mention.
	MaxOffset = 1 << 40
	// MaxIntervals caps the telemetry intervals one profile may carry;
	// like the other limits it exists for the untrusted wire format.
	MaxIntervals = 1 << 20
)

// Write serializes the profile (the perf.data equivalent): the JSON
// payload followed by a magic+length+CRC trailer (internal/trailer),
// so downstream readers detect truncation and bit flips fast. A fault
// site covers the encoded bytes before they reach w, modelling a
// producer that crashes mid-write or flips bits on the way to disk.
func (p *Profile) Write(w io.Writer) error {
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := fault.Err(fault.SiteSamplerWrite); err != nil {
		return fmt.Errorf("sampler: write: %w", err)
	}
	data = fault.Bytes(fault.SiteSamplerWrite, data)
	_, err = w.Write(trailer.Append(data))
	return err
}

// Read deserializes a profile written by Write. Input is untrusted:
// the stream is size-capped at MaxProfileBytes, the trailer (when
// present) is checksum-verified — a damaged frame fails fast with a
// typed *trailer.CorruptError — legacy untrailered files decode with
// a strict trailing-garbage check, and the decoded profile is
// validated (see Validate) before it is returned. Truncated,
// oversized, bit-flipped, or inconsistent streams yield descriptive
// errors rather than panics or unbounded allocations.
func Read(r io.Reader) (*Profile, error) {
	data, err := readPayload(r, "sampler", MaxProfileBytes, fault.SiteSamplerRead)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := decodeStrict(data, &p); err != nil {
		return nil, fmt.Errorf("sampler: decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sampler: invalid profile: %w", err)
	}
	return &p, nil
}

// readPayload slurps a size-capped profile stream, runs the read-side
// fault site over it, and strips + verifies the trailer when present.
// (internal/dbi carries the same two dozen lines; the duplication is
// cheaper than a shared package whose only job is threading a fault
// site name through an io.ReadAll.)
func readPayload(r io.Reader, pkg string, maxBytes int64, site string) ([]byte, error) {
	lr := &io.LimitedReader{R: r, N: maxBytes + int64(trailer.Size) + 1}
	data, err := io.ReadAll(lr)
	if err != nil {
		return nil, fmt.Errorf("%s: read: %w", pkg, err)
	}
	if lr.N <= 0 {
		return nil, fmt.Errorf("%s: profile exceeds %d bytes", pkg, maxBytes)
	}
	if err := fault.Err(site); err != nil {
		return nil, fmt.Errorf("%s: read: %w", pkg, err)
	}
	data = fault.Bytes(site, data)
	payload, _, err := trailer.Verify(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pkg, err)
	}
	return payload, nil
}

// decodeStrict unmarshals one JSON value and rejects anything but
// whitespace after it, so a legacy (untrailered) file with trailing
// garbage — including a damaged trailer demoted to "no trailer" —
// cannot slip through as a clean decode.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after profile")
	}
	return nil
}

// Validate checks the structural invariants every well-formed sampling
// profile satisfies: a named module, a positive period, bounded record
// and stack counts, instruction-aligned in-range offsets, user cycles
// not exceeding total cycles, and sample weights that sum without
// overflow to at most the run's user cycles. It is applied to every
// profile crossing a trust boundary.
func (p *Profile) Validate() error {
	if p.Module == "" {
		return fmt.Errorf("empty module name")
	}
	if p.Period == 0 {
		return fmt.Errorf("sampling period must be positive")
	}
	if len(p.Records) > MaxRecords {
		return fmt.Errorf("%d records exceeds limit %d", len(p.Records), MaxRecords)
	}
	if p.UserCycles > p.TotalCycles {
		return fmt.Errorf("user cycles %d exceed total cycles %d",
			p.UserCycles, p.TotalCycles)
	}
	var weightSum uint64
	for i, r := range p.Records {
		if r.Offset%isa.InstBytes != 0 || r.Offset >= MaxOffset {
			return fmt.Errorf("record %d: offset %#x misaligned or out of range", i, r.Offset)
		}
		if len(r.Stack) > MaxStackFrames {
			return fmt.Errorf("record %d: %d stack frames exceeds limit %d",
				i, len(r.Stack), MaxStackFrames)
		}
		for _, ra := range r.Stack {
			if ra%isa.InstBytes != 0 || ra >= MaxOffset {
				return fmt.Errorf("record %d: stack frame %#x misaligned or out of range", i, ra)
			}
		}
		s := weightSum + r.Weight
		if s < weightSum {
			return fmt.Errorf("record %d: sample weights overflow", i)
		}
		weightSum = s
	}
	if weightSum > p.UserCycles {
		return fmt.Errorf("sample weights sum to %d, exceeding the run's %d user cycles",
			weightSum, p.UserCycles)
	}
	if len(p.Intervals) > MaxIntervals {
		return fmt.Errorf("%d telemetry intervals exceeds limit %d",
			len(p.Intervals), MaxIntervals)
	}
	if len(p.Intervals) > 0 && p.IntervalCycles == 0 {
		return fmt.Errorf("telemetry intervals present without an interval width")
	}
	for i, iv := range p.Intervals {
		if iv.Cycles == 0 {
			return fmt.Errorf("interval %d: zero-length window", i)
		}
		if iv.Start > p.TotalCycles || iv.Start+iv.Cycles > p.TotalCycles {
			return fmt.Errorf("interval %d: window [%d,%d) outside the run's %d cycles",
				i, iv.Start, iv.Start+iv.Cycles, p.TotalCycles)
		}
	}
	return nil
}
