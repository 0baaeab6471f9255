package main

import (
	"fmt"

	"optiwise"
	"optiwise/internal/obs"
)

// caseMCF reproduces case study A (§VI-A): OptiWISE evidence on the
// baseline, then speedups from the three optimizations it suggests.
func caseMCF() error {
	cfg := optiwise.DefaultMCFConfig()
	prog, err := optiwise.MCFProgram(cfg)
	if err != nil {
		return err
	}
	prof, err := optiwise.Profile(prog, optiwise.Options{SamplePeriod: 1000})
	if err != nil {
		return err
	}
	fmt.Println("Case study A: 505.mcf")
	fmt.Println("\n-- OptiWISE evidence on the baseline --")
	if qs, ok := prof.FuncByName("spec_qsort"); ok {
		fmt.Printf("spec_qsort total time (incl. callees): %.1f%% (paper: 61.1%%)\n",
			100*qs.TimeFrac)
	}
	if cc, ok := prof.FuncByName("cost_compare"); ok {
		fmt.Printf("cost_compare self time: %.1f%%, IPC %.2f (paper: 23.7%%)\n",
			100*float64(cc.SelfCycles)/float64(prof.TotalCycles), cc.IPC)
	}
	// The divide inside spec_qsort.
	var divCPI float64
	for _, r := range prof.Insts {
		if r.Func == "spec_qsort" && r.Inst.Op.String() == "div" && r.CPI > divCPI {
			divCPI = r.CPI
		}
	}
	fmt.Printf("spec_qsort divide CPI: %.2f (paper: 38.12)\n", divCPI)
	if l, ok := prof.LoopByHeader(loopHeaderOf(prof, "primal_bea_mpp")); ok {
		fmt.Printf("primal_bea_mpp loop: %.1f inst/iteration over %d iterations "+
			"(paper: 18.6 and ~4000/invocation)\n", l.InstsPerIter, l.Iterations)
	}

	fmt.Println("\n-- optimizations --")
	base, err := cyclesOf(optiwise.MCFProgram, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-34s %12s %9s\n", "VARIANT", "CYCLES", "SPEEDUP")
	fmt.Printf("%-34s %12d %9s\n", "baseline", base, "-")
	variants := []struct {
		name string
		opts optiwise.MCFOptions
	}{
		{"branch-free comparators (cmov)", optiwise.MCFOptions{BranchFree: true}},
		{"divide -> fixed-point multiply", optiwise.MCFOptions{StrengthReduce: true}},
		{"primal_bea_mpp unrolled x4", optiwise.MCFOptions{Unroll: true}},
		{"all three", optiwise.MCFOptions{BranchFree: true, StrengthReduce: true, Unroll: true}},
	}
	for _, v := range variants {
		c := cfg
		c.Opts = v.opts
		cy, err := cyclesOf(optiwise.MCFProgram, c)
		if err != nil {
			return err
		}
		fmt.Printf("%-34s %12d %8.1f%%\n", v.name, cy, 100*(float64(base)/float64(cy)-1))
	}
	fmt.Println("paper: the three optimizations combined give +12% on 'ref'")
	return nil
}

// caseDeepsjeng reproduces case study B (§VI-B).
func caseDeepsjeng() error {
	cfg := optiwise.DefaultDeepsjengConfig()
	prog, err := optiwise.DeepsjengProgram(cfg)
	if err != nil {
		return err
	}
	prof, err := optiwise.Profile(prog, optiwise.Options{SamplePeriod: 1000})
	if err != nil {
		return err
	}
	fmt.Println("Case study B: 531.deepsjeng")
	fmt.Println("\n-- OptiWISE evidence on the baseline --")
	if pt, ok := prof.FuncByName("probett"); ok {
		fmt.Printf("probett total time: %.1f%%, self IPC %.2f (paper: 16.7%%, IPC 0.16)\n",
			100*pt.TimeFrac, pt.IPC)
		// The dominant load inside probett.
		var best float64
		var bestCycles, ptCycles uint64
		for _, r := range prof.Insts {
			if r.Func == "probett" {
				ptCycles += r.Cycles
				if r.Inst.Op.String() == "ld" && r.CPI > best {
					best = r.CPI
					bestCycles = r.Cycles
				}
			}
		}
		if ptCycles > 0 {
			fmt.Printf("transposition-table load: CPI %.1f, %.0f%% of probett time "+
				"(paper: CPI 279, 81%%)\n", best, 100*float64(bestCycles)/float64(ptCycles))
		}
	}

	fmt.Println("\n-- optimizations --")
	base, err := cyclesOf(optiwise.DeepsjengProgram, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-34s %12s %9s\n", "VARIANT", "CYCLES", "SPEEDUP")
	fmt.Printf("%-34s %12d %9s\n", "baseline", base, "-")
	variants := []struct {
		name string
		opts optiwise.DeepsjengOptions
	}{
		{"early prefetch", optiwise.DeepsjengOptions{Prefetch: true}},
		{"divide removed from hash", optiwise.DeepsjengOptions{RemoveDiv: true}},
		{"both", optiwise.DeepsjengOptions{Prefetch: true, RemoveDiv: true}},
	}
	for _, v := range variants {
		c := cfg
		c.Opts = v.opts
		cy, err := cyclesOf(optiwise.DeepsjengProgram, c)
		if err != nil {
			return err
		}
		fmt.Printf("%-34s %12d %8.1f%%\n", v.name, cy, 100*(float64(base)/float64(cy)-1))
	}
	fmt.Println("paper: both combined give +6.8% on 'ref'")
	return nil
}

// caseBwaves reproduces case study C (§VI-C).
func caseBwaves() error {
	cfg := optiwise.DefaultBwavesConfig()
	prog, err := optiwise.BwavesProgram(cfg)
	if err != nil {
		return err
	}
	prof, err := optiwise.Profile(prog, optiwise.Options{SamplePeriod: 1000})
	if err != nil {
		return err
	}
	fmt.Println("Case study C: 603.bwaves")
	fmt.Println("\n-- OptiWISE evidence on the baseline --")
	var divCPI, divFrac float64
	for _, r := range prof.Insts {
		if r.Inst.Op.String() == "fdiv" {
			divCPI = r.CPI
			divFrac = float64(r.Cycles) / float64(prof.TotalCycles)
		}
	}
	fmt.Printf("flux kernel fdiv: CPI %.1f, %.1f%% of total time "+
		"(divisor is loop-invariant)\n", divCPI, 100*divFrac)
	if fd, ok := prof.FuncByName("flux_div_kernel"); ok {
		fmt.Printf("flux_div_kernel: %.1f%% of time\n", 100*fd.TimeFrac)
	}

	fmt.Println("\n-- optimization --")
	base, err := cyclesOf(optiwise.BwavesProgram, cfg)
	if err != nil {
		return err
	}
	c := cfg
	c.Opts = optiwise.BwavesOptions{InvertDiv: true}
	opt, err := cyclesOf(optiwise.BwavesProgram, c)
	if err != nil {
		return err
	}
	fmt.Printf("baseline: %d cycles\n", base)
	fmt.Printf("multiply by precomputed 1/dt: %d cycles, speedup %.1f%%\n",
		opt, 100*(float64(base)/float64(opt)-1))
	fmt.Println("paper: +2% on 'ref' (the divide kernel is a minority of the program)")
	return nil
}

// cyclesOf builds and natively runs a case-study program, checking that
// the optimized variants still compute the right answer.
func cyclesOf[C any](build func(C) (*optiwise.Program, error), cfg C) (uint64, error) {
	prog, err := build(cfg)
	if err != nil {
		return 0, err
	}
	res, err := prog.Run(optiwise.XeonW2195())
	if err != nil {
		return 0, err
	}
	if prog.Module() == "505.mcf" && res.ExitCode != 0 {
		obs.Warn("case-study verification failed",
			obs.F("module", prog.Module()), obs.F("exit_code", res.ExitCode))
	}
	return res.Cycles, nil
}

// loopHeaderOf finds the header offset of the hottest loop inside fn.
func loopHeaderOf(prof *optiwise.Result, fn string) uint64 {
	for _, l := range prof.Loops { // sorted hottest-first
		if l.Func == fn {
			return l.HeaderOffset
		}
	}
	return 0
}
