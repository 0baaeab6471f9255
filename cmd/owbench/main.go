// Command owbench regenerates every table and figure of the OptiWISE paper
// evaluation on the simulated substrate:
//
//	owbench fig1      motivating example: samples vs counts vs CPI
//	owbench fig2      pipeline timeline and never-sampled instructions
//	owbench fig7      tool overhead across the 23-benchmark suite
//	owbench fig8      x86 sample skid around a long-latency store
//	owbench fig9      Neoverse-style early-dequeue sampling displacement
//	owbench fig10     annotated cost_compare disassembly (505.mcf)
//	owbench table1    loop-merging iterations on the figure 6 CFG
//	owbench mcf       case study A: comparator/divide/unroll optimizations
//	owbench deepsjeng case study B: prefetch + divide removal
//	owbench bwaves    case study C: divide-by-invariant inversion
//	owbench tiered    tiered profiling overhead/accuracy frontier
//	owbench ablate    design-choice ablations (DESIGN.md §4)
//	owbench all       everything above
//
// Observability flags (before the experiment name):
//
//	owbench -progress -trace trace.json -metrics metrics.prom fig7
//
// Experiment output goes to stdout; diagnostics go through the obs
// structured logger on stderr (or as JSONL via -log), so the two streams
// are separable.
//
// Shape, not absolute numbers, is the reproduction target: who wins, by
// roughly what factor, and where the worst cases fall. EXPERIMENTS.md
// records paper-vs-measured for each experiment.
package main

import (
	"flag"
	"fmt"
	"os"

	"optiwise/internal/fault"
	"optiwise/internal/obs"
)

var commands = []struct {
	name string
	desc string
	run  func() error
}{
	{"fig1", "motivating example: samples vs counts vs CPI", fig1},
	{"fig2", "pipeline timeline and never-sampled instructions", fig2},
	{"fig7", "tool overhead across the 23-benchmark suite", fig7},
	{"fig8", "x86 sample skid around a long-latency store", fig8},
	{"fig9", "N1 early-dequeue sampling displacement", fig9},
	{"fig10", "annotated cost_compare disassembly", fig10},
	{"table1", "loop-merging iterations on the figure 6 CFG", table1},
	{"mcf", "case study A: 505.mcf", caseMCF},
	{"deepsjeng", "case study B: 531.deepsjeng", caseDeepsjeng},
	{"bwaves", "case study C: 603.bwaves", caseBwaves},
	{"accuracy", "sampling accuracy vs ground truth, by granularity", accuracyExp},
	{"tiered", "tiered profiling overhead/accuracy frontier", tieredCmd},
	{"ablate", "design-choice ablations", ablate},
}

// obsCfg is the activated observability configuration; progress output
// is owned by the config (not a package global) so that library users
// of obs can run concurrently, but the single-process owbench keeps one
// shared handle.
var obsCfg *obs.Config

func main() {
	fs := flag.NewFlagSet("owbench", flag.ExitOnError)
	fs.Usage = usage
	obsCfg = obs.BindFlags(fs)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := fault.ActivateFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "owbench:", err)
		os.Exit(2)
	}
	if p := fault.Active(); p != nil {
		fmt.Fprintf(os.Stderr, "owbench: fault injection active: %s\n", p.Spec)
	}
	if fs.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	name := fs.Arg(0)
	flush, err := obsCfg.Activate()
	if err != nil {
		obs.Error("owbench: observability setup failed", obs.F("err", err.Error()))
		os.Exit(1)
	}
	code := dispatch(name)
	if err := flush(); err != nil {
		obs.Error("owbench: flushing observability output failed",
			obs.F("err", err.Error()))
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// dispatch runs the named experiment (or all of them) and returns the
// process exit code. Failures are reported through the structured
// logger so they stay separable from experiment output on stdout.
func dispatch(name string) int {
	if name == "all" {
		for i, c := range commands {
			fmt.Printf("==================== %s ====================\n", c.name)
			obsCfg.Progressf("[%d/%d] %s: %s", i+1, len(commands), c.name, c.desc)
			sw := obs.StartTimer()
			if err := c.run(); err != nil {
				obs.Error("owbench experiment failed",
					obs.F("experiment", c.name), obs.F("err", err.Error()))
				return 1
			}
			obs.Info("owbench experiment done",
				obs.F("experiment", c.name), obs.F("seconds", sw.Seconds()))
			fmt.Println()
		}
		return 0
	}
	for _, c := range commands {
		if c.name == name {
			sw := obs.StartTimer()
			if err := c.run(); err != nil {
				obs.Error("owbench experiment failed",
					obs.F("experiment", name), obs.F("err", err.Error()))
				return 1
			}
			obs.Info("owbench experiment done",
				obs.F("experiment", name), obs.F("seconds", sw.Seconds()))
			return 0
		}
	}
	obs.Error("owbench: unknown experiment", obs.F("experiment", name))
	usage()
	return 2
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: owbench [flags] <experiment>")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", c.name, c.desc)
	}
	fmt.Fprintln(os.Stderr, "  all        run every experiment")
	fmt.Fprintln(os.Stderr, `flags:
  -trace FILE   Chrome trace-event JSON (chrome://tracing / Perfetto)
  -metrics FILE Prometheus text exposition of pipeline metrics
  -log FILE     JSONL structured event log ("-" = stderr)
  -progress     per-workload progress lines on stderr
  -pprof ADDR   serve net/http/pprof + expvar on ADDR`)
}
