package optiwise

// Benchmarks regenerating the paper's tables and figures (one per
// experiment; see DESIGN.md §3 and EXPERIMENTS.md) plus component
// micro-benchmarks for the substrate itself.
//
// The figure benchmarks report their headline quantity as a custom metric
// (load-cpi, overhead-x, speedup-%), so `go test -bench=.` reproduces the
// evaluation numbers. Those are modelled fidelity values — simulated
// cycles and modelled instrumentation cost, the same on every host — not
// timings. Host performance is measured by perfbench and judged by
// scripts/ab.py.

import (
	"fmt"
	"io"
	"testing"

	"optiwise/internal/dbi"
	"optiwise/internal/loops"
	"optiwise/internal/ooo"
	"optiwise/internal/program"
	"optiwise/internal/workloads"
)

func mustProgram(b *testing.B, build func() (*Program, error)) *Program {
	b.Helper()
	p, err := build()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- Figure 1: motivating example ---------------------------------------

func BenchmarkFig1(b *testing.B) {
	prog := mustProgram(b, Fig1Program)
	var loadCPI float64
	for i := 0; i < b.N; i++ {
		prof, err := Profile(prog, Options{SamplePeriod: 500})
		if err != nil {
			b.Fatal(err)
		}
		r, ok := prof.InstAt(workloads.Fig1LoadOffset)
		if !ok {
			b.Fatal("load record missing")
		}
		loadCPI = r.CPI
	}
	b.ReportMetric(loadCPI, "load-cpi")
}

// --- Figure 2: pipeline timeline -----------------------------------------

func BenchmarkFig2(b *testing.B) {
	prog := mustProgram(b, Fig2Program)
	var neverSampled float64
	for i := 0; i < b.N; i++ {
		img := program.Load(prog.Raw(), program.LoadOptions{})
		hist := make(map[uint64]uint64)
		sim := ooo.New(ooo.XeonW2195(), img, ooo.Options{
			SamplePeriod: 211,
			RandSeed:     7,
			OnSample: func(s ooo.Sample) {
				if off, ok := img.AbsToOff(s.PC); ok {
					hist[off]++
				}
			},
		})
		if _, err := sim.Run(0); err != nil {
			b.Fatal(err)
		}
		n := 0.0
		for off := uint64(3 * 4); off <= 10*4; off += 4 {
			if hist[off] == 0 {
				n++
			}
		}
		neverSampled = n
	}
	b.ReportMetric(neverSampled, "never-sampled-insts")
}

// --- Figure 7: tool overhead on the suite --------------------------------

func BenchmarkFig7Suite(b *testing.B) {
	for _, spec := range SuiteSpecs() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			prog, err := SuiteProgram(spec, 0.3)
			if err != nil {
				b.Fatal(err)
			}
			var total float64
			for i := 0; i < b.N; i++ {
				ov, err := MeasureOverhead(prog, Options{SamplePeriod: 2000})
				if err != nil {
					b.Fatal(err)
				}
				total = ov.TotalRatio
			}
			b.ReportMetric(total, "overhead-x")
		})
	}
}

// --- Figure 8: x86 sample skid -------------------------------------------

func BenchmarkFig8(b *testing.B) {
	prog := mustProgram(b, Fig8Program)
	var storeShare float64
	for i := 0; i < b.N; i++ {
		img := program.Load(prog.Raw(), program.LoadOptions{})
		var onStore, total uint64
		sim := ooo.New(ooo.XeonW2195(), img, ooo.Options{
			SamplePeriod: 211,
			RandSeed:     7,
			OnSample: func(s ooo.Sample) {
				total++
				if off, ok := img.AbsToOff(s.PC); ok && off == workloads.Fig8StoreOffset {
					onStore++
				}
			},
		})
		if _, err := sim.Run(0); err != nil {
			b.Fatal(err)
		}
		storeShare = float64(onStore) / float64(total)
	}
	// Low = reproduced: the expensive store is NOT where samples land.
	b.ReportMetric(100*storeShare, "store-sample-%")
}

// --- Figure 9: N1 early dequeue ------------------------------------------

func BenchmarkFig9(b *testing.B) {
	prog := mustProgram(b, Fig9Program)
	var peak float64
	for i := 0; i < b.N; i++ {
		img := program.Load(prog.Raw(), program.LoadOptions{})
		hist := make(map[uint64]uint64)
		sim := ooo.New(ooo.NeoverseN1(), img, ooo.Options{
			SamplePeriod: 397,
			RandSeed:     7,
			OnSample: func(s ooo.Sample) {
				if off, ok := img.AbsToOff(s.PC); ok {
					hist[off]++
				}
			},
		})
		if _, err := sim.Run(0); err != nil {
			b.Fatal(err)
		}
		var bestOff uint64
		var best uint64
		for off, n := range hist {
			if n > best {
				best, bestOff = n, off
			}
		}
		peak = float64(int64(bestOff-workloads.Fig9DivOffset) / 4)
	}
	b.ReportMetric(peak, "displacement-insts")
}

// --- Figure 10: annotated cost_compare -----------------------------------

func BenchmarkFig10(b *testing.B) {
	cfg := DefaultMCFConfig()
	cfg.Arcs = 1024
	cfg.ScanInvocations = 5
	prog := mustProgram(b, func() (*Program, error) { return MCFProgram(cfg) })
	for i := 0; i < b.N; i++ {
		prof, err := Profile(prog, Options{SamplePeriod: 1000})
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteAnnotated(io.Discard, prof, "cost_compare"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table I: loop merging ------------------------------------------------

// BenchmarkTable1 regenerates Table I end to end: the full OptiWISE
// pipeline (sampling run, instrumentation run, combining analysis with
// Algorithm 2 loop merging) on the mcf case-study program, reporting the
// merged program-loop count. This is the repository's headline
// end-to-end profiling benchmark — the CI bench gate pins it — so it
// exercises every stage a real `optiwise profile` invocation does.
func BenchmarkTable1(b *testing.B) {
	cfg := DefaultMCFConfig()
	cfg.Arcs = 1024
	cfg.ScanInvocations = 5
	prog := mustProgram(b, func() (*Program, error) { return MCFProgram(cfg) })
	var nLoops float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := Profile(prog, Options{SamplePeriod: 1000})
		if err != nil {
			b.Fatal(err)
		}
		nLoops = float64(len(prof.Loops))
	}
	b.ReportMetric(nLoops, "program-loops")
}

// BenchmarkLoopMerge is the former Table I micro-benchmark: Algorithm 2
// alone on the paper's figure 6 CFG (no profiling runs).
func BenchmarkLoopMerge(b *testing.B) {
	g := fig6Graph()
	var nLoops float64
	for i := 0; i < b.N; i++ {
		merged := loops.Merge(loops.Find(g), loops.DefaultThreshold)
		nLoops = float64(len(merged))
	}
	b.ReportMetric(nLoops, "program-loops")
}

// fig6Graph duplicates the paper's figure 6 CFG for the bench harness.
type benchGraph struct {
	succs [][]int
	freq  map[[2]int]uint64
}

func (g *benchGraph) NumNodes() int     { return len(g.succs) }
func (g *benchGraph) Succs(n int) []int { return g.succs[n] }
func (g *benchGraph) EdgeFreq(from, to int) uint64 {
	return g.freq[[2]int{from, to}]
}

func fig6Graph() *benchGraph {
	g := &benchGraph{succs: make([][]int, 8), freq: make(map[[2]int]uint64)}
	edge := func(from, to int, f uint64) {
		g.succs[from] = append(g.succs[from], to)
		g.freq[[2]int{from, to}] = f
	}
	edge(0, 1, 1)
	edge(1, 5, 2373)
	edge(1, 7, 1)
	edge(5, 1, 2000)
	edge(5, 6, 373)
	edge(6, 1, 300)
	edge(6, 2, 73)
	edge(2, 1, 50)
	edge(2, 3, 10)
	edge(2, 4, 12)
	edge(3, 1, 10)
	edge(4, 1, 12)
	return g
}

// --- Case studies ----------------------------------------------------------

func speedupBench[C any](b *testing.B, build func(C) (*Program, error), base, opt C) {
	b.Helper()
	var speedup float64
	for i := 0; i < b.N; i++ {
		bp, err := build(base)
		if err != nil {
			b.Fatal(err)
		}
		bres, err := bp.Run(XeonW2195())
		if err != nil {
			b.Fatal(err)
		}
		op, err := build(opt)
		if err != nil {
			b.Fatal(err)
		}
		ores, err := op.Run(XeonW2195())
		if err != nil {
			b.Fatal(err)
		}
		speedup = 100 * (float64(bres.Cycles)/float64(ores.Cycles) - 1)
	}
	b.ReportMetric(speedup, "speedup-%")
}

func BenchmarkCaseMCF(b *testing.B) {
	base := DefaultMCFConfig()
	base.Arcs = 2048
	base.ScanInvocations = 20
	opt := base
	opt.Opts = MCFOptions{BranchFree: true, StrengthReduce: true, Unroll: true}
	speedupBench(b, MCFProgram, base, opt)
}

func BenchmarkCaseDeepsjeng(b *testing.B) {
	base := DefaultDeepsjengConfig()
	base.Nodes = 800
	opt := base
	opt.Opts = DeepsjengOptions{Prefetch: true, RemoveDiv: true}
	speedupBench(b, DeepsjengProgram, base, opt)
}

func BenchmarkCaseBwaves(b *testing.B) {
	base := DefaultBwavesConfig()
	base.Sweeps = 8
	opt := base
	opt.Opts = BwavesOptions{InvertDiv: true}
	speedupBench(b, BwavesProgram, base, opt)
}

// --- Ablations --------------------------------------------------------------

func BenchmarkAblateAttribution(b *testing.B) {
	prog := mustProgram(b, Fig1Program)
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"none", Options{Attribution: AttrNone, SamplePeriod: 500}},
		{"predecessor", Options{Attribution: AttrPredecessor, SamplePeriod: 500}},
		{"precise", Options{Precise: true, SamplePeriod: 500}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				prof, err := Profile(prog, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				r, _ := prof.InstAt(workloads.Fig1LoadOffset)
				frac = 100 * float64(r.Cycles) / float64(prof.TotalCycles)
			}
			b.ReportMetric(frac, "load-cycle-%")
		})
	}
}

func BenchmarkAblateThreshold(b *testing.B) {
	g := fig6Graph()
	for _, t := range []uint64{1, 3, 10, 100} {
		t := t
		b.Run(fmt.Sprintf("T=%d", t), func(b *testing.B) {
			var n float64
			for i := 0; i < b.N; i++ {
				n = float64(len(loops.Merge(loops.Find(g), t)))
			}
			b.ReportMetric(n, "program-loops")
		})
	}
}

func BenchmarkAblateCleanCall(b *testing.B) {
	s, ok := workloads.SpecByName("523.xalancbmk")
	if !ok {
		b.Fatal("spec missing")
	}
	prog := mustProgram(b, func() (*Program, error) { return Assemble(s.Name, workloads.Generate(s.Scale(0.15))) })
	for _, cost := range []uint64{900, 90} {
		cost := cost
		b.Run(fmt.Sprintf("cleancall=%d", cost), func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				costs := dbi.DefaultCosts()
				costs.CleanCall = cost
				prof, err := dbi.Run(prog.Raw(), dbi.Options{
					StackProfiling: true, Costs: &costs, RandSeed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				overhead = prof.Overhead()
			}
			b.ReportMetric(overhead, "overhead-x")
		})
	}
}

func BenchmarkAblatePredictor(b *testing.B) {
	cfg := DefaultMCFConfig()
	cfg.Arcs = 1024
	cfg.ScanInvocations = 5
	prog := mustProgram(b, func() (*Program, error) { return MCFProgram(cfg) })
	for _, bimodal := range []bool{false, true} {
		bimodal := bimodal
		name := "gshare"
		if bimodal {
			name = "bimodal"
		}
		b.Run(name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				m := ooo.XeonW2195()
				m.UseBimodal = bimodal
				sim := ooo.New(m, program.Load(prog.Raw(), program.LoadOptions{}),
					ooo.Options{RandSeed: 7})
				st, err := sim.Run(0)
				if err != nil {
					b.Fatal(err)
				}
				rate = 100 * float64(st.Mispredicts) / float64(st.Branches)
			}
			b.ReportMetric(rate, "mispredict-%")
		})
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

func BenchmarkAssemble(b *testing.B) {
	src := workloads.Generate(workloads.Spec{
		Name: "bench", Lang: "C", BodyOps: 50, Iterations: 10,
		ALU: 5, Load: 2, Store: 1, WorkingSetKB: 64,
	})
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreter(b *testing.B) {
	prog := mustProgram(b, Fig2Program)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := prog.Interpret()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.Instructions)) // instructions per "byte"
	}
}

func BenchmarkPipelineSim(b *testing.B) {
	prog := mustProgram(b, Fig2Program)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(XeonW2195()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBIEngine(b *testing.B) {
	prog := mustProgram(b, Fig2Program)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := InstrumentOnly(prog, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampler(b *testing.B) {
	prog := mustProgram(b, Fig2Program)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SampleOnly(prog, Options{SamplePeriod: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombine(b *testing.B) {
	prog := mustProgram(b, Fig1Program)
	opts := Options{SamplePeriod: 500}
	sp, _, err := SampleOnly(prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	ep, err := InstrumentOnly(prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(prog, sp, ep, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Streaming windowed profiling ----------------------------------------

// BenchmarkStreamOff prices the streaming-disabled pipeline: with
// StreamWindow zero, the sampling run loop pays one nil compare per
// cycle and the DBI run loop one per block. perfbench's profile workload
// runs this same disabled path, so any cost beyond a predictable branch
// shows up in scripts/ab.py's same-runner A/B.
func BenchmarkStreamOff(b *testing.B) {
	prog := mustProgram(b, Fig2Program)
	opts := Options{SamplePeriod: 2000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Profile(prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamOn prices enabled streaming end to end: window
// slicing, increment hand-off, and the combiner's per-window summaries. Compare
// with BenchmarkStreamOff for the marginal cost per emitted window.
func BenchmarkStreamOn(b *testing.B) {
	prog := mustProgram(b, Fig2Program)
	var windows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := Options{SamplePeriod: 2000, StreamWindow: 4096}
		comb := NewStreamCombiner(prog)
		opts.OnIncrement = func(inc Increment) {
			if err := comb.Add(inc); err != nil {
				b.Error(err)
			}
		}
		if _, err := Profile(prog, opts); err != nil {
			b.Fatal(err)
		}
		snap := comb.Snapshot()
		windows = len(snap.SampleWindows) + len(snap.EdgeWindows)
	}
	b.ReportMetric(float64(windows), "windows")
}

// --- Tiered profiling and dispatch engine ---------------------------------

// suiteProgram assembles one named workload from the 23-benchmark suite
// at the given scale.
func suiteProgram(b *testing.B, name string, f float64) *Program {
	b.Helper()
	for _, spec := range SuiteSpecs() {
		if spec.Name == name {
			return mustProgram(b, func() (*Program, error) { return SuiteProgram(spec, f) })
		}
	}
	b.Fatalf("workload %q not in suite", name)
	return nil
}

// BenchmarkInterpDispatch pins the execution-engine speedup: the same
// instrumentation pass over 525.x264 on the direct-threaded engine
// (InstrumentOnly) and on the switch-interpreter reference. The two
// arms produce byte-identical Results (dispatch_test.go). CI's
// tiered-smoke job keeps the threaded engine paying for its complexity:
// the median threaded Minst/s must be at least 2x the switch arm's in
// the same run (scripts/ci/engine_ratios.awk).
func BenchmarkInterpDispatch(b *testing.B) {
	prog := suiteProgram(b, "525.x264", 0.25)
	opts := Options{RandSeed: 7}
	for _, arm := range []struct {
		name string
		run  func(b *testing.B) *EdgeProfile
	}{
		{"threaded", func(b *testing.B) *EdgeProfile {
			ep, err := InstrumentOnly(prog, opts)
			if err != nil {
				b.Fatal(err)
			}
			return ep
		}},
		{"switch", func(b *testing.B) *EdgeProfile { return switchInstrument(b, prog, opts) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				insts = arm.run(b).BaseInstructions
			}
			b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
		})
	}
}

// BenchmarkTieredPipeline prices the two-pass pipeline full vs tiered
// on the same workload. Both arms run the passes back to back — the
// full arm as SampleOnly, InstrumentOnly and Analyze, the tiered arm
// as Profile, whose passes are ordered — so the comparison is
// sum-of-passes vs sum-of-passes; the tiered arm reports the cold
// fraction it extrapolated instead of instrumenting. The
// instrumentation-side saving is measured precisely by `owbench tiered`
// (README "Tiered profiling"); this benchmark prices the end-to-end
// cost, and CI holds the median tiered ns/op to at most 1.10x the full
// arm's in the same run, so tier selection itself can never quietly
// become a regression.
func BenchmarkTieredPipeline(b *testing.B) {
	prog := suiteProgram(b, "525.x264", 0.25)
	full := Options{SamplePeriod: 2000, RandSeed: 7}
	tiered := full
	tiered.Tiered = true
	for _, arm := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"full", func() (*Result, error) {
			sp, _, err := SampleOnly(prog, full)
			if err != nil {
				return nil, err
			}
			ep, err := InstrumentOnly(prog, full)
			if err != nil {
				return nil, err
			}
			return Analyze(prog, sp, ep, full)
		}},
		{"tiered", func() (*Result, error) { return Profile(prog, tiered) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var coldPct float64
			for i := 0; i < b.N; i++ {
				prof, err := arm.run()
				if err != nil {
					b.Fatal(err)
				}
				if prof.Tiered {
					coldPct = 100 * float64(prof.ColdInsts) / float64(prof.TotalInsts)
				}
			}
			if coldPct > 0 {
				b.ReportMetric(coldPct, "cold-insts-%")
			}
		})
	}
}
