package main

import (
	"fmt"
	"math"
	"sort"

	"optiwise"
	"optiwise/internal/isa"
	"optiwise/internal/loops"
	"optiwise/internal/ooo"
	"optiwise/internal/program"
	"optiwise/internal/workloads"
)

// fig1 reproduces the motivating example: for the hot loop, print the
// three views — sampling alone, counting alone, and the combined CPI —
// showing that only the last identifies the cache-missing load.
func fig1() error {
	prog, err := optiwise.Fig1Program()
	if err != nil {
		return err
	}
	prof, err := optiwise.Profile(prog, optiwise.Options{SamplePeriod: 500})
	if err != nil {
		return err
	}
	fmt.Println("Figure 1: sampling alone vs instrumentation alone vs combined CPI")
	fmt.Printf("%8s  %-22s %10s %10s %8s\n", "OFFSET", "INSTRUCTION", "SAMPLES", "EXEC", "CPI")
	// The loop body spans the and..bnez instructions (offsets 8*4..15*4).
	var maxCPI float64
	var maxOff uint64
	for off := uint64(8 * 4); off <= 15*4; off += 4 {
		r, ok := prof.InstAt(off)
		if !ok {
			continue
		}
		marker := ""
		if off == workloads.Fig1LoadOffset {
			marker = "  <- cache-missing load"
		}
		fmt.Printf("%8x  %-22s %10d %10d %8.2f%s\n",
			off, r.Disasm, r.Samples, r.ExecCount, r.CPI, marker)
		if r.CPI > maxCPI {
			maxCPI, maxOff = r.CPI, off
		}
	}
	fmt.Printf("\nhighest CPI: offset %#x (want %#x, the load) -> %s\n",
		maxOff, uint64(workloads.Fig1LoadOffset),
		map[bool]string{true: "REPRODUCED", false: "NOT reproduced"}[maxOff == workloads.Fig1LoadOffset])
	return nil
}

// fig2 prints the pipeline timeline of the figure 2 instruction sequence
// and the sample counts demonstrating that instructions which always
// commit behind an older instruction are never sampled.
func fig2() error {
	src := workloads.Fig2()
	p, err := optiwise.Assemble("fig2", src)
	if err != nil {
		return err
	}
	img := program.Load(p.Raw(), program.LoadOptions{})
	sim := ooo.New(ooo.XeonW2195(), img, ooo.Options{TraceLimit: 600, RandSeed: 7})
	if _, err := sim.Run(0); err != nil {
		return err
	}
	fmt.Println("Figure 2: pipeline timeline (two warmed-up loop iterations)")
	fmt.Printf("%4s %8s %-18s %9s %6s %6s %7s\n",
		"SEQ", "OFFSET", "INSTRUCTION", "DISPATCH", "START", "DONE", "COMMIT")
	tr := sim.Trace()
	for _, e := range tr {
		if e.Seq < 515 || e.Seq > 530 { // well past the cold-cache warmup
			continue
		}
		off, _ := img.AbsToOff(e.PC)
		inst, _ := p.Raw().InstAt(off)
		fmt.Printf("%4d %8x %-18s %9d %6d %6d %7d\n",
			e.Seq, off, isa.Disassemble(inst), e.Dispatch, e.Start, e.Done, e.Commit)
	}

	// Sampleability: which loop PCs ever get sampled.
	hist := make(map[uint64]uint64)
	sim2 := ooo.New(ooo.XeonW2195(), program.Load(p.Raw(), program.LoadOptions{}), ooo.Options{
		SamplePeriod: 211, // prime, avoids phase lock
		RandSeed:     7,
		OnSample: func(s ooo.Sample) {
			if off, ok := img.AbsToOff(s.PC); ok {
				hist[off]++
			}
		},
	})
	if _, err := sim2.Run(0); err != nil {
		return err
	}
	fmt.Println("\nsample counts per loop instruction (skid-mode periodic sampling):")
	never := 0
	for off := uint64(3 * 4); off <= 10*4; off += 4 {
		inst, _ := p.Raw().InstAt(off)
		note := ""
		if hist[off] == 0 {
			note = "  <- never sampled"
			never++
		}
		fmt.Printf("%8x  %-18s %8d%s\n", off, isa.Disassemble(inst), hist[off], note)
	}
	fmt.Printf("\n%d of 8 loop instructions can never be sampled (paper: instructions\n"+
		"that always commit in the same cycle as an older instruction)\n", never)
	return nil
}

// fig7 measures the tool overhead across the 23-benchmark suite.
func fig7() error {
	fmt.Println("Figure 7: OptiWISE overhead on the synthetic SPEC CPU2017 suite")
	fmt.Printf("%-16s %-5s %10s %9s %9s %9s %9s %8s %8s\n",
		"BENCHMARK", "LANG", "BASE(kcy)", "SAMPLE x", "INSTR x", "TOTAL x", "ANALYZE s",
		"SMP(KiB)", "EDG(KiB)")
	type row struct {
		name  string
		total float64
	}
	var rows []row
	logSampling, logInstr, logTotal := 0.0, 0.0, 0.0
	worst := row{}
	n := 0
	specs := optiwise.SuiteSpecs()
	for i, spec := range specs {
		obsCfg.Progressf("[%d/%d] %s: sampling + instrumenting + analyzing",
			i+1, len(specs), spec.Name)
		prog, err := optiwise.SuiteProgram(spec, 1.0)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		ov, err := optiwise.MeasureOverhead(prog, optiwise.Options{SamplePeriod: 2000})
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		fmt.Printf("%-16s %-5s %10d %9.2f %9.2f %9.2f %9.3f %8.1f %8.1f\n",
			spec.Name, spec.Lang, ov.BaselineCycles/1000,
			ov.SamplingRatio, ov.InstrumentationRatio, ov.TotalRatio,
			ov.AnalysisSeconds,
			float64(ov.SampleProfileBytes)/1024, float64(ov.EdgeProfileBytes)/1024)
		logSampling += math.Log(ov.SamplingRatio)
		logInstr += math.Log(ov.InstrumentationRatio)
		logTotal += math.Log(ov.TotalRatio)
		if ov.TotalRatio > worst.total {
			worst = row{spec.Name, ov.TotalRatio}
		}
		rows = append(rows, row{spec.Name, ov.TotalRatio})
		n++
	}
	fmt.Printf("\ngeomean: sampling %.2fx, instrumentation %.2fx, total %.2fx\n",
		math.Exp(logSampling/float64(n)), math.Exp(logInstr/float64(n)),
		math.Exp(logTotal/float64(n)))
	fmt.Printf("worst case: %s at %.1fx\n", worst.name, worst.total)
	fmt.Println("paper: sampling 1.01x, instrumentation geomean 7.1x (worst 56x,")
	fmt.Println("       xalancbmk), total geomean 8.1x (worst 57x)")
	return nil
}

// fig8 prints the paper-style sample table around the long-latency store.
func fig8() error {
	p, err := optiwise.Fig8Program()
	if err != nil {
		return err
	}
	img := program.Load(p.Raw(), program.LoadOptions{})
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
		return err
	}
	fmt.Println("Figure 8: skid sampling around a long-latency store (x86-style commit)")
	fmt.Printf("%8s  %-20s %10s  %s\n", "OFFSET", "INSTRUCTION", "SAMPLES", "NOTE")
	storeOff := uint64(workloads.Fig8StoreOffset)
	for off := storeOff - 8; off <= storeOff+17*4; off += 4 {
		inst, ok := p.Raw().InstAt(off)
		if !ok {
			continue
		}
		note := ""
		switch {
		case off == storeOff:
			note = "long-latency store"
		case (off-storeOff)%16 == 0 && off > storeOff:
			note = "commit group start"
		}
		fmt.Printf("%8x  %-20s %10d  %s\n", off, isa.Disassemble(inst), hist[off], note)
	}
	fmt.Println("\npaper: the store itself is rarely sampled; the mass lands after the")
	fmt.Println("stall clears, with moderate counts on each 4-wide commit-group leader")
	return nil
}

// fig9 prints the N1 early-dequeue histogram: samples land at the
// issue-queue back-pressure distance after the slow divide.
func fig9() error {
	p, err := optiwise.Fig9Program()
	if err != nil {
		return err
	}
	img := program.Load(p.Raw(), program.LoadOptions{})
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
		return err
	}
	fmt.Println("Figure 9: N1-style early dequeue — samples vs distance from the divide")
	type entry struct {
		off uint64
		n   uint64
	}
	var entries []entry
	for off, n := range hist {
		entries = append(entries, entry{off, n})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].n > entries[j].n })
	div := uint64(workloads.Fig9DivOffset)
	for i, e := range entries {
		if i >= 8 {
			break
		}
		inst, _ := p.Raw().InstAt(e.off)
		fmt.Printf("  %6d samples at %#x (%s), %+d instructions from the divide\n",
			e.n, e.off, isa.Disassemble(inst), int64(e.off-div)/4)
	}
	if len(entries) > 0 {
		fmt.Printf("\npeak displacement: %+d instructions (paper: 48 — the issue-queue\n"+
			"back-pressure distance; ours is IQ size 48 plus issued-in-flight slack)\n",
			int64(entries[0].off-div)/4)
	}
	fmt.Printf("samples on the divide itself: %d\n", hist[div])
	return nil
}

// fig10 prints the annotated cost_compare disassembly from the mcf
// baseline profile.
func fig10() error {
	prog, err := optiwise.MCFProgram(optiwise.DefaultMCFConfig())
	if err != nil {
		return err
	}
	prof, err := optiwise.Profile(prog, optiwise.Options{SamplePeriod: 1000})
	if err != nil {
		return err
	}
	fmt.Println("Figure 10: cost_compare annotated disassembly (505.mcf baseline)")
	if err := optiwise.WriteAnnotated(fmtWriter{}, prof, "cost_compare"); err != nil {
		return err
	}
	fmt.Println("\npaper: the conditional jumps are expensive (mispredicts); the")
	fmt.Println("instructions following them are not -> rewrite branch-free")
	return nil
}

// table1 reproduces Table I: the loop-merging iterations on the figure 6
// CFG.
func table1() error {
	g := fig6Graph()
	raw := loops.Find(g)
	merged, trace := loops.MergeGroupTrace(raw, loops.DefaultThreshold)
	fmt.Println("Table I: Algorithm 2 iterations on the figure 6 CFG (T = 3)")
	fmt.Printf("natural loops (all sharing header): %d\n", len(raw))
	for _, r := range raw {
		fmt.Printf("  tail=%d blocks=%d backEdgeFreq=%d\n",
			r.Tail, len(r.Blocks), r.BackEdgeFreq)
	}
	for i, it := range trace {
		fmt.Printf("iteration %d:\n", i+1)
		fmt.Printf("  considered: %v\n", it.Considered)
		fmt.Printf("  peeled (merged into one program loop): %v\n", it.Peeled)
		fmt.Printf("  kept as nested: %v\n", it.Kept)
	}
	fmt.Printf("result: %d program loops (paper: 3 — three of five merged)\n", len(merged))
	for _, l := range merged {
		fmt.Printf("  header=%d blocks=%d freq=%d depth=%d\n",
			l.Header, len(l.Blocks), l.BackEdgeFreq, l.Depth)
	}
	return nil
}

// fig6Graph is the paper's figure 6 CFG with five same-header back edges.
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
	edge(5, 1, 2000) // X
	edge(5, 6, 373)
	edge(6, 1, 300) // Y
	edge(6, 2, 73)
	edge(2, 1, 50) // C
	edge(2, 3, 10)
	edge(2, 4, 12)
	edge(3, 1, 10) // A
	edge(4, 1, 12) // B
	return g
}

// fmtWriter adapts fmt printing to io.Writer for report helpers.
type fmtWriter struct{}

func (fmtWriter) Write(p []byte) (int, error) {
	fmt.Print(string(p))
	return len(p), nil
}
