package main

import (
	"fmt"

	"optiwise"
	"optiwise/internal/asm"
	"optiwise/internal/dbi"
	"optiwise/internal/loops"
	"optiwise/internal/ooo"
	"optiwise/internal/program"
	"optiwise/internal/workloads"
)

// ablate runs the design-choice ablations called out in DESIGN.md §4.
func ablate() error {
	if err := ablateAttribution(); err != nil {
		return err
	}
	if err := ablateWeighting(); err != nil {
		return err
	}
	if err := ablateThreshold(); err != nil {
		return err
	}
	if err := ablatePredictor(); err != nil {
		return err
	}
	if err := ablateCleanCall(); err != nil {
		return err
	}
	return ablateGprof()
}

// ablateGprof compares stack-profiling attribution (§IV-D) against
// gprof-style call-ratio apportioning on a program whose shared callee
// does 9x more work for one caller than the other.
func ablateGprof() error {
	fmt.Println("-- ablation: stack profiling vs gprof-style apportioning (§IV-D) --")
	src := `
.func main
main:
    addi sp, sp, -16
    st ra, 8(sp)
    li s2, 150
m_loop:
    call cheap_user
    call heavy_user
    addi s2, s2, -1
    bnez s2, m_loop
    ld ra, 8(sp)
    addi sp, sp, 16
    li a0, 0
    li a7, 93
    syscall
.endfunc
.func cheap_user
cheap_user:
    addi sp, sp, -16
    st ra, 8(sp)
    li a0, 10
    call shared
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
.endfunc
.func heavy_user
heavy_user:
    addi sp, sp, -16
    st ra, 8(sp)
    li a0, 90
    call shared
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
.endfunc
.func shared
shared:
    mov t0, a0
s_loop:
    div t1, t0, t0
    addi t0, t0, -1
    bnez t0, s_loop
    ret
.endfunc
`
	prog, err := optiwise.Assemble("gprof-ablation", src)
	if err != nil {
		return err
	}
	prof, err := optiwise.Profile(prog, optiwise.Options{SamplePeriod: 300})
	if err != nil {
		return err
	}
	fmt.Printf("  %-12s %18s %18s\n", "FUNCTION", "STACKS (truth)", "GPROF-STYLE")
	for _, name := range []string{"cheap_user", "heavy_user"} {
		f, _ := prof.FuncByName(name)
		g, _ := prof.GprofTotalFor(name)
		fmt.Printf("  %-12s %17.1f%% %17.1f%%\n", name, 100*f.TimeFrac, 100*g.TimeFrac)
	}
	fmt.Println("  (both callers invoke 'shared' equally often, but with 9x different")
	fmt.Println("   work: call-ratio apportioning splits the cost evenly and is wrong)")
	return nil
}

// ablateAttribution compares how much of the cache-missing load's cost each
// attribution mode recovers on the figure 1 kernel.
func ablateAttribution() error {
	fmt.Println("-- ablation: sample attribution (§III point 1) --")
	prog, err := optiwise.Fig1Program()
	if err != nil {
		return err
	}
	show := func(name string, opts optiwise.Options) error {
		opts.SamplePeriod = 500
		prof, err := optiwise.Profile(prog, opts)
		if err != nil {
			return err
		}
		r, _ := prof.InstAt(workloads.Fig1LoadOffset)
		frac := 0.0
		if prof.TotalCycles > 0 {
			frac = float64(r.Cycles) / float64(prof.TotalCycles)
		}
		hot, _ := prof.HottestInst()
		fmt.Printf("  %-28s load CPI %7.2f, %5.1f%% of cycles on the load, hottest=%s\n",
			name, r.CPI, 100*frac, hot.Disasm)
		return nil
	}
	if err := show("skid, no re-attribution", optiwise.Options{Attribution: optiwise.AttrNone}); err != nil {
		return err
	}
	if err := show("skid + predecessor heuristic", optiwise.Options{Attribution: optiwise.AttrPredecessor}); err != nil {
		return err
	}
	return show("PEBS-style precise", optiwise.Options{Precise: true})
}

// ablateWeighting compares weighted samples against raw sample counting.
func ablateWeighting() error {
	fmt.Println("-- ablation: sample weighting (§IV-B) --")
	prog, err := optiwise.Fig1Program()
	if err != nil {
		return err
	}
	for _, unweighted := range []bool{false, true} {
		prof, err := optiwise.Profile(prog, optiwise.Options{
			SamplePeriod: 500, Unweighted: unweighted,
		})
		if err != nil {
			return err
		}
		r, _ := prof.InstAt(workloads.Fig1LoadOffset)
		fmt.Printf("  unweighted=%-5v load CPI %.2f (total cycle estimate %d)\n",
			unweighted, r.CPI, prof.TotalCycles)
	}
	return nil
}

// ablateThreshold sweeps Algorithm 2's T on the figure 6 loop nest.
func ablateThreshold() error {
	fmt.Println("-- ablation: loop-merging threshold T (§IV-E) --")
	raw := loops.Find(fig6Graph())
	for _, t := range []uint64{1, 2, 3, 5, 10, 100} {
		merged := loops.Merge(raw, t)
		fmt.Printf("  T=%-4d -> %d program loops\n", t, len(merged))
	}
	fmt.Println("  (paper chooses T=3: 3 loops — nested X and Y split, control paths merged)")
	return nil
}

// ablatePredictor compares gshare against the bimodal ablation predictor
// on the branchy mcf comparator workload.
func ablatePredictor() error {
	fmt.Println("-- ablation: direction predictor (gshare vs bimodal) --")
	cfg := optiwise.DefaultMCFConfig()
	cfg.Arcs = 2000
	cfg.ScanInvocations = 5
	p, err := optiwise.MCFProgram(cfg)
	if err != nil {
		return err
	}
	for _, bimodal := range []bool{false, true} {
		m := ooo.XeonW2195()
		m.UseBimodal = bimodal
		img := program.Load(p.Raw(), program.LoadOptions{})
		sim := ooo.New(m, img, ooo.Options{RandSeed: 7})
		st, err := sim.Run(0)
		if err != nil {
			return err
		}
		name := "gshare"
		if bimodal {
			name = "bimodal"
		}
		fmt.Printf("  %-8s %12d cycles, %6.2f%% mispredict rate\n",
			name, st.Cycles, 100*float64(st.Mispredicts)/float64(st.Branches))
	}
	return nil
}

// ablateCleanCall re-prices the indirect-branch instrumentation: what the
// figure 7 worst case would look like if indirect branches were handled by
// inlined hashing instead of DynamoRIO clean calls.
func ablateCleanCall() error {
	fmt.Println("-- ablation: clean-call vs inlined indirect-branch instrumentation (§IV-C) --")
	spec, _ := optiwise.SuiteSpecs(), 0
	_ = spec
	s, ok := workloads.SpecByName("523.xalancbmk")
	if !ok {
		return fmt.Errorf("missing spec")
	}
	p, err := asm.Assemble(s.Name, workloads.Generate(s.Scale(0.25)))
	if err != nil {
		return err
	}
	for _, cleanCall := range []uint64{500, 50, 10} {
		costs := dbi.DefaultCosts()
		costs.CleanCall = cleanCall
		prof, err := dbi.Run(p, dbi.Options{StackProfiling: true, Costs: &costs, RandSeed: 7})
		if err != nil {
			return err
		}
		fmt.Printf("  clean-call cost %4d instr-equivalents -> xalancbmk overhead %6.1fx\n",
			cleanCall, prof.Overhead())
	}
	fmt.Println("  (the paper's worst case is entirely a clean-call artifact)")
	return nil
}
