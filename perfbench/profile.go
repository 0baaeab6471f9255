package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"optiwise"
	"optiwise/internal/core"
	"optiwise/internal/ooo"
	"optiwise/internal/serve"
	"optiwise/internal/workloads"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 21

// Program sizes. Each op profiles one program on one machine; the
// scales keep an op at roughly 60–250 ms of host time on a 2-core x86
// box, so a 50 s run holds several hundred ops.
const (
	stallScale   = 0.06
	computeScale = 0.4
	smokeScale   = 0.004
)

// The two program classes of the profile workload. Each class reports
// its own sampling-pass metrics, so a simulator change that should move
// one class and leave the other alone can be checked in one run.
const (
	classStall   = "stall"
	classCompute = "compute"
)

// stallSpecs are pointer-chasing, 505.mcf- and 531.deepsjeng-shaped
// programs. Their working sets sit around both machines' 1 MB L2: every
// line of the table is a cold miss while it is initialised, so the
// simulated core mostly waits with a missing store at the ROB head, and
// the chase loop itself then runs out of L2.
//
// The program set does not depend on the seed: the seed orders the op
// sequence. Accuracy and per-op cost then compare across seeds, which
// keeps the cpi_err metrics and the timings steady from run to run.
func stallSpecs(scale float64) []workloads.Spec {
	var out []workloads.Spec
	for _, base := range []string{"505.mcf", "531.deepsjeng"} {
		for _, kb := range []int{512, 768} {
			s, ok := workloads.SpecByName(base)
			if !ok {
				panic("perfbench: suite lacks " + base)
			}
			s.Name = fmt.Sprintf("%s.ws%dk", base, kb)
			s.WorkingSetKB = kb
			out = append(out, s.Scale(scale))
		}
	}
	return out
}

// computeSpecs are cache-resident, branch- and indirect-dense suite
// programs. Their working sets are clamped to 32 KB so the simulated
// core is bound by issue and wakeup, not by misses. Like stallSpecs, the
// set is fixed and the seed orders the op sequence.
func computeSpecs(scale float64) []workloads.Spec {
	var out []workloads.Spec
	for _, base := range []string{"500.perlbench", "523.xalancbmk", "525.x264", "548.exchange2", "511.povray", "541.leela"} {
		s, ok := workloads.SpecByName(base)
		if !ok {
			panic("perfbench: suite lacks " + base)
		}
		s.Name = base + ".ws32k"
		if s.WorkingSetKB > 32 {
			s.WorkingSetKB = 32
		}
		out = append(out, s.Scale(scale))
	}
	return out
}

// assemble generates and assembles every spec: the asm layer's work and
// the profile workloads' set-up.
func assemble(specs []workloads.Spec) ([]*optiwise.Program, error) {
	progs := make([]*optiwise.Program, len(specs))
	for i, s := range specs {
		p, err := optiwise.Assemble(s.Name, workloads.Generate(s))
		if err != nil {
			return nil, fmt.Errorf("assemble %s: %w", s.Name, err)
		}
		progs[i] = p
	}
	return progs, nil
}

// profileCase is one (program, machine, mode) the op sequence visits.
// Its first op (in warm-up) fixes the reference every later op of the
// case must reproduce.
type profileCase struct {
	label string
	class string
	prog  *optiwise.Program
	opts  optiwise.Options
	truth *groundTruth

	refDigest           [32]byte
	refCycles, refInsts uint64
	ref                 *optiwise.Result
}

// opTimes splits one op's latency into its phases: computing the
// profile (what a cache miss costs), rendering the text report (a read),
// and serving the result back from its stored wire form (a hit).
type opTimes struct {
	class                  string
	total, miss, read, hit time.Duration
	// critical and dbiCritical are the traced critical path and the part
	// of it the instrumentation pass holds; ooo is the sampling pass
	// (traced ops only).
	critical, dbiCritical, ooo time.Duration
}

var machines = []optiwise.Machine{optiwise.XeonW2195(), optiwise.NeoverseN1()}

// buildCases returns one case per program × machine × mode (a Tiered
// value), all of the given class.
func buildCases(progs []*optiwise.Program, class string, modes []bool) []*profileCase {
	var cases []*profileCase
	for _, p := range progs {
		for _, m := range machines {
			for _, t := range modes {
				mode := "full"
				if t {
					mode = "tiered"
				}
				cases = append(cases, &profileCase{
					label: fmt.Sprintf("%s@%s/%s", p.Module(), m.Name, mode),
					class: class,
					prog:  p,
					opts: optiwise.Options{
						Machine:        m,
						Tiered:         t,
						SampleASLRSeed: sampleASLRSeed,
						InstrASLRSeed:  instrASLRSeed,
					},
				})
			}
		}
	}
	return cases
}

// runProfile drives the profile workload: set-up (assembly, repeated),
// ground truth, one warm-up pass over the op sequence, then whole passes
// over it until the run's time is spent. In trace mode the passes
// alternate untraced and traced, so both see the same op mix.
//
// The op sequence is a seeded order of 32 cases: the stall programs in
// full mode (8 cases) and the compute programs in full and tiered mode
// (24 cases), each on both machines. The compute ops are the shorter
// ones, so latency_p50_ms lies among them and latency_p90_ms among the
// stall ops; neither percentile sits on the boundary between the two.
func runProfile(cfg config) (*result, error) {
	stallSc, computeSc := stallScale, computeScale
	if cfg.smoke {
		stallSc, computeSc = smokeScale, smokeScale
	}
	stall := stallSpecs(stallSc)
	specs := append(stall, computeSpecs(computeSc)...)
	var progs []*optiwise.Program
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		p, err := assemble(specs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		progs = p
	}
	cases := append(buildCases(progs[:len(stall)], classStall, []bool{false}),
		buildCases(progs[len(stall):], classCompute, []bool{false, true})...)
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	if err := computeTruths(cases); err != nil {
		return nil, err
	}

	// From here the collector runs between ops, never inside one. An op
	// starts from a collected heap of ~3 MB (see op) and allocates ~8 MB.
	// With the default GOGC one or two cycles started inside each op, at
	// points the pacer chose from earlier cycles' timing. Whether one
	// overlapped the op's millisecond render phases then varied from op
	// to op, and slowed them up to 1.7×. The memory limit keeps the
	// collector as a backstop.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20))

	ctx := context.Background()
	res := &result{}
	var cpi cpiError
	for _, c := range cases { // warm-up: fixes each case's reference
		if _, err := c.op(ctx, nil, 0, res); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c.label, err)
		}
		cpi.add(c.truth, c.prog.Raw(), c.ref.Insts, c.ref.Blocks, c.ref.Funcs)
	}

	var (
		untraced, traced []opTimes
		tr               *tracer
		before, after    runtime.MemStats
		passDur          time.Duration
		passes, opID     int
		minPasses        = 1
		measureStart     = time.Now()
		budget           = time.Duration(cfg.seconds * float64(time.Second))
	)
	if cfg.trace {
		tr = newTracer()
		minPasses = 2 // one untraced and one traced pass at least
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	for passes < minPasses || (!cfg.smoke && time.Since(measureStart)+passDur/2 < budget) {
		t0 := time.Now()
		useTrace := cfg.trace && passes%2 == 1
		for _, c := range cases {
			opID++
			var t *tracer
			if useTrace {
				t = tr
			}
			times, err := c.op(ctx, t, opID, res)
			if err != nil {
				res.fail("%s: %v", c.label, err)
				continue
			}
			if useTrace {
				traced = append(traced, times)
			} else {
				untraced = append(untraced, times)
			}
		}
		passes++
		passDur = time.Since(t0)
	}
	elapsed := time.Since(measureStart)
	runtime.ReadMemStats(&after)

	if len(untraced) == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	m := zeroLayerMetrics()
	var total, miss, read, hit []float64
	for _, t := range untraced {
		total = append(total, ms(t.total))
		miss = append(miss, ms(t.miss))
		read = append(read, ms(t.read))
		hit = append(hit, ms(t.hit))
	}
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}
	inst, block, fn := cpi.pct()
	m["setup_s"] = percentile(setups, 50)
	m["throughput_ops_s"] = float64(len(untraced)) / elapsed.Seconds()
	m["latency_p50_ms"] = percentile(total, 50)
	m["latency_p90_ms"] = percentile(total, 90)
	m["alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(len(untraced)+len(traced))
	m["max_rss_mb"] = rss
	m["cpi_err_inst_pct"] = inst
	m["cpi_err_block_pct"] = block
	m["cpi_err_func_pct"] = fn
	m["miss_p50_ms"] = percentile(miss, 50)
	m["read_p50_ms"] = percentile(read, 50)
	m["hit_p50_ms"] = percentile(hit, 50)
	m["asm.busy_ms_per_program"] = 1000 * percentile(setups, 50) / float64(len(specs))
	if cfg.trace {
		profileLayerMetrics(m, tr, untraced, traced)
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops (%d traced) in %d passes of %d, %.1fs\n",
		len(untraced)+len(traced), len(traced), passes, len(cases), elapsed.Seconds())
	res.metrics = m
	return res, nil
}

// computeTruths fills every case's ground truth on two goroutines; the
// truth of a (program, machine) is shared by its full and tiered cases.
func computeTruths(cases []*profileCase) error {
	cache := newTruthCache()
	work := make(chan *profileCase)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for c := range work {
				if first != nil {
					continue
				}
				c.truth, first = cache.get(c.prog, c.opts.Machine, c.opts.RandSeed)
			}
			errs <- first
		}()
	}
	for _, c := range cases {
		work <- c
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// op runs one profile op and checks its outputs. Untraced (tr == nil) it
// is ProfileContext, a text render, and a wire round trip with a second
// render. Traced, the same work goes through the layers' own entry
// points under spans, mirroring ProfileContext's schedule: for a full
// profile the sampling and instrumentation passes overlap on two
// goroutines; for a tiered one they run back to back. The first op of a
// case records the reference every later op must reproduce.
func (c *profileCase) op(ctx context.Context, tr *tracer, opID int, res *result) (opTimes, error) {
	res.attempted++
	// Every op starts from a collected heap, as a one-shot CLI run starts
	// from an empty one, so no op inherits the previous op's garbage. The
	// collection is outside the op's latency but inside the run's wall
	// time (throughput_ops_s).
	runtime.GC()
	var (
		t          = opTimes{class: c.class}
		r          *optiwise.Result
		text, back bytes.Buffer
		err        error
	)
	start := time.Now()
	if tr == nil {
		if r, err = optiwise.ProfileContext(ctx, c.prog, c.opts); err != nil {
			return t, err
		}
		t.miss = time.Since(start)
		t1 := time.Now()
		if err := optiwise.WriteReport(&text, r); err != nil {
			return t, err
		}
		t.read = time.Since(t1)
		payload, _, err := serve.EncodeWireResult(r)
		if err != nil {
			return t, err
		}
		t3 := time.Now()
		again, err := serve.DecodeWireResult(payload, c.prog)
		if err != nil {
			return t, err
		}
		if err := optiwise.WriteReport(&back, again); err != nil {
			return t, err
		}
		t.hit = time.Since(t3)
	} else if r, err = c.tracedOp(ctx, tr, opID, &t, &text, &back); err != nil {
		return t, err
	}
	t.total = time.Since(start)

	digest := sha256.Sum256(text.Bytes())
	if c.ref == nil {
		c.ref, c.refDigest, c.refCycles, c.refInsts = r, digest, r.TotalCycles, r.TotalInsts
	}
	switch {
	case digest != c.refDigest:
		res.fail("%s: report digest differs from the case's first op", c.label)
	case r.TotalCycles != c.refCycles || r.TotalInsts != c.refInsts:
		res.fail("%s: TotalCycles/TotalInsts %d/%d, first op %d/%d", c.label, r.TotalCycles, r.TotalInsts, c.refCycles, c.refInsts)
	case !bytes.Equal(text.Bytes(), back.Bytes()):
		res.fail("%s: report rendered from the wire round trip differs", c.label)
	default:
		if err := checkBlockMass(r); err != nil {
			res.fail("%s: %v", c.label, err)
		}
	}
	return t, nil
}

// checkBlockMass checks cycle conservation between the instruction and
// block tables: Σ block cycles equals the sampled cycle mass of the
// instructions the blocks cover, and in a full profile the blocks cover
// every sampled instruction. (A tiered profile's CFG covers only the
// instrumented code; its cold records carry estimated counts instead.)
func checkBlockMass(r *optiwise.Result) error {
	blocks := append([]core.BlockRecord(nil), r.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Start < blocks[j].Start })
	var covered, uncovered, blockSum uint64
	for _, b := range blocks {
		blockSum += b.Cycles
	}
	for _, rec := range r.Insts {
		i := sort.Search(len(blocks), func(i int) bool { return blocks[i].Start > rec.Offset }) - 1
		if i >= 0 && rec.Offset < blocks[i].End {
			covered += rec.Cycles
		} else {
			uncovered += rec.Cycles
		}
	}
	if blockSum != covered {
		return fmt.Errorf("block cycles sum to %d, the instructions they cover to %d", blockSum, covered)
	}
	if !r.Tiered && uncovered != 0 {
		return fmt.Errorf("%d sampled cycles lie outside every block of a full profile", uncovered)
	}
	return nil
}

// tracedOp is op's traced body; it fills t's critical path and renders
// into text and back.
func (c *profileCase) tracedOp(ctx context.Context, tr *tracer, opID int, t *opTimes, text, back *bytes.Buffer) (*optiwise.Result, error) {
	root := tr.begin("op", opID, 0)
	var (
		sp               *optiwise.SampleProfile
		ep               *optiwise.EdgeProfile
		oooSpan, dbiSpan *span
		sampleErr, dbiEr error
	)
	samplePass := func() {
		s := tr.begin("ooo", opID, root.id)
		var st ooo.Stats
		sp, st, sampleErr = optiwise.SampleOnlyContext(ctx, c.prog, c.opts)
		oooSpan = tr.finish(s, map[string]float64{
			"cycles": float64(st.Cycles), "insts": float64(st.Instructions),
			c.class + "_cycles": float64(st.Cycles), c.class + "_insts": float64(st.Instructions),
		})
	}
	instrumentPass := func() {
		s := tr.begin("dbi", opID, root.id)
		if c.opts.Tiered {
			ep, dbiEr = optiwise.TieredInstrumentOnlyContext(ctx, c.prog, sp, c.opts)
		} else {
			ep, dbiEr = optiwise.InstrumentOnlyContext(ctx, c.prog, c.opts)
		}
		counts := map[string]float64{}
		if ep != nil {
			counts["insts"] = float64(ep.BaseInstructions)
			if c.opts.Tiered {
				counts["tiered_insts"] = float64(ep.BaseInstructions)
				counts["tiered_instrumented"] = float64(ep.BaseInstructions - ep.ColdInstructions)
			}
		}
		dbiSpan = tr.finish(s, counts)
	}
	if c.opts.Tiered {
		samplePass()
		if sampleErr != nil {
			return nil, sampleErr
		}
		instrumentPass()
		t.critical = oooSpan.dur() + dbiSpan.dur()
		t.dbiCritical = dbiSpan.dur()
	} else {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); samplePass() }()
		go func() { defer wg.Done(); instrumentPass() }()
		wg.Wait()
		t.critical = oooSpan.dur()
		if d := dbiSpan.dur(); d > t.critical {
			t.dbiCritical = d - t.critical
			t.critical = d
		}
	}
	if sampleErr != nil {
		return nil, sampleErr
	}
	if dbiEr != nil {
		return nil, dbiEr
	}
	t.ooo = oooSpan.dur()

	s := tr.begin("core", opID, root.id)
	r, err := optiwise.AnalyzeContext(ctx, c.prog, sp, ep, c.opts)
	if err != nil {
		return nil, err
	}
	t.critical += tr.finish(s, map[string]float64{"blocks": float64(len(r.Blocks))}).dur()

	s = tr.begin("report", opID, root.id)
	if err := optiwise.WriteReport(text, r); err != nil {
		return nil, err
	}
	t.critical += tr.finish(s, map[string]float64{"bytes": float64(text.Len())}).dur()

	s = tr.begin("serve.wire", opID, root.id)
	payload, _, err := serve.EncodeWireResult(r)
	if err != nil {
		return nil, err
	}
	again, err := serve.DecodeWireResult(payload, c.prog)
	if err != nil {
		return nil, err
	}
	t.critical += tr.finish(s, map[string]float64{"bytes": float64(len(payload))}).dur()

	s = tr.begin("report", opID, root.id)
	if err := optiwise.WriteReport(back, again); err != nil {
		return nil, err
	}
	t.critical += tr.finish(s, nil).dur()
	tr.finish(root, nil)
	return r, nil
}

// profileLayerMetrics derives the per-layer metrics of a traced profile
// run from its spans, and the trace's own accounting from the untraced
// and traced ops (equal op mixes: whole passes of the sequence).
func profileLayerMetrics(m map[string]float64, tr *tracer, untraced, traced []opTimes) {
	n := float64(len(traced))
	layers := tr.byLayer()
	get := func(name string) *layerSum {
		if l := layers[name]; l != nil {
			return l
		}
		return &layerSum{counts: map[string]float64{}}
	}
	o, d, co, rep, w := get("ooo"), get("dbi"), get("core"), get("report"), get("serve.wire")
	m["ooo.busy_ms_per_op"] = o.ms / n
	m["ooo.mcycles_s"] = ratio(o.counts["cycles"], o.ms*1e3)
	m["ooo.minst_s"] = ratio(o.counts["insts"], o.ms*1e3)
	m["ooo.ipc"] = ratio(o.counts["insts"], o.counts["cycles"])
	for _, class := range []string{classStall, classCompute} {
		var busy []float64
		for _, t := range traced {
			if t.class == class {
				busy = append(busy, ms(t.ooo))
			}
		}
		m["ooo."+class+"_ms_per_op"] = mean(busy)
		m["ooo."+class+"_ipc"] = ratio(o.counts[class+"_insts"], o.counts[class+"_cycles"])
	}
	m["dbi.busy_ms_per_op"] = d.ms / n
	m["dbi.minst_s"] = ratio(d.counts["insts"], d.ms*1e3)
	m["dbi.instrumented_pct"] = 100
	if d.counts["tiered_insts"] > 0 {
		m["dbi.instrumented_pct"] = 100 * d.counts["tiered_instrumented"] / d.counts["tiered_insts"]
	}
	var crit, dbiCrit, tracedTotal, untracedTotal []float64
	for _, t := range traced {
		crit = append(crit, ms(t.critical))
		dbiCrit = append(dbiCrit, ms(t.dbiCritical))
		tracedTotal = append(tracedTotal, ms(t.total))
	}
	for _, t := range untraced {
		untracedTotal = append(untracedTotal, ms(t.total))
	}
	m["dbi.critical_pct"] = 100 * ratio(mean(dbiCrit), mean(crit))
	m["core.busy_ms_per_op"] = co.ms / n
	m["core.blocks_per_op"] = co.counts["blocks"] / n
	m["report.busy_ms_per_op"] = rep.ms / n
	m["report.kb_per_op"] = rep.counts["bytes"] / 1024 / n
	m["serve.wire_ms_per_op"] = w.ms / n
	m["unaccounted_ms"] = mean(untracedTotal) - mean(crit)
	m["unaccounted_pct"] = 100 * ratio(mean(untracedTotal)-mean(crit), mean(untracedTotal))
	m["trace.overhead_pct"] = 100 * ratio(mean(tracedTotal)-mean(untracedTotal), mean(untracedTotal))
}

// zeroLayerMetrics starts a workload's metric map with every per-layer
// metric at 0: a layer the workload never calls reports 0.
func zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer)+len(endToEnd))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
