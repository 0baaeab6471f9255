package optiwise

// The paper's tool supports both x86-64 and AArch64 (§VIII). These tests
// run the full pipeline and the case studies on the Neoverse-style machine
// as well, verifying that every conclusion is machine-portable.

import (
	"testing"

	"optiwise/internal/interp"
	"optiwise/internal/program"
)

// switchRun runs p to exit on the switch interpreter (Machine.Run),
// the reference that shares no dispatch code with the threaded cells
// Interpret and the simulator's front end execute.
func switchRun(t *testing.T, p *Program) *interp.Machine {
	t.Helper()
	m := interp.New(program.Load(p.prog, program.LoadOptions{}), 7)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProfileOnNeoverseN1(t *testing.T) {
	prog, err := Fig1Program()
	if err != nil {
		t.Fatal(err)
	}
	// Note the paper's §V-B: the N1's early-dequeue sampling quirks are
	// observed but NOT corrected by OptiWISE, so plain skid sampling can
	// place the peak away from the culprit on this machine. With precise
	// attribution the combined CPI identifies the load on N1 too.
	prof, err := Profile(prog, Options{
		Machine: NeoverseN1(), SamplePeriod: 499, Precise: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot, ok := prof.HottestInst()
	if !ok {
		t.Fatal("no records")
	}
	if hot.Inst.Op.String() != "ld" {
		t.Errorf("N1 hottest = %s, want the load", hot.Disasm)
	}
}

func TestMCFOptimizationPortableToN1(t *testing.T) {
	cfg := DefaultMCFConfig()
	cfg.Arcs = 1024
	cfg.ScanInvocations = 10
	base, err := MCFProgram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := base.Run(NeoverseN1())
	if err != nil {
		t.Fatal(err)
	}
	if bres.ExitCode != 0 {
		t.Fatalf("baseline failed verification on N1: exit %d", bres.ExitCode)
	}
	cfg.Opts = MCFOptions{BranchFree: true, StrengthReduce: true, Unroll: true}
	opt, err := MCFProgram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ores, err := opt.Run(NeoverseN1())
	if err != nil {
		t.Fatal(err)
	}
	if ores.ExitCode != 0 {
		t.Fatalf("optimized failed verification on N1: exit %d", ores.ExitCode)
	}
	if ores.Cycles >= bres.Cycles {
		t.Errorf("mcf optimizations did not help on N1: %d vs %d", ores.Cycles, bres.Cycles)
	}
}

func TestBwavesOptimizationPortableToN1(t *testing.T) {
	cfg := DefaultBwavesConfig()
	cfg.Sweeps = 6
	base, err := BwavesProgram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := base.Run(NeoverseN1())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Opts = BwavesOptions{InvertDiv: true}
	opt, err := BwavesProgram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ores, err := opt.Run(NeoverseN1())
	if err != nil {
		t.Fatal(err)
	}
	if ores.Cycles >= bres.Cycles {
		t.Errorf("bwaves inversion did not help on N1: %d vs %d", ores.Cycles, bres.Cycles)
	}
}

func TestArchitecturalResultsAgreeAcrossMachines(t *testing.T) {
	// Same program, same inputs: both machine models and the switch
	// interpreter must agree on everything architectural.
	cfg := DefaultDeepsjengConfig()
	cfg.Nodes = 200
	prog, err := DeepsjengProgram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := switchRun(t, prog)
	for _, m := range []Machine{XeonW2195(), NeoverseN1()} {
		res, err := prog.Run(m)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExitCode != ref.ExitCode || res.Instructions != ref.Steps {
			t.Errorf("%s diverged: exit %d/%d, insts %d/%d",
				m.Name, res.ExitCode, ref.ExitCode, res.Instructions, ref.Steps)
		}
	}
}
