// Command optiwise mirrors the paper artifact's command-line tool: it
// profiles an OWISA assembly program on a simulated out-of-order machine
// by sampling and instrumentation, then combines the two profiles into
// granular CPI reports.
//
// Usage:
//
//	optiwise check
//	optiwise run        [flags] prog.s        # sample + instrument + analyze
//	optiwise sample     [flags] -o s.json prog.s
//	optiwise instrument [flags] -o e.json prog.s
//	optiwise analyze    [flags] -sample s.json -edges e.json prog.s
//	optiwise help
//
// Flags (run/sample/instrument/analyze as applicable):
//
//	-machine xeon|n1    simulated processor (default xeon)
//	-period N           sampling period in user cycles (default 2000)
//	-precise            PEBS-style precise sampling
//	-no-stack           disable stack profiling (Algorithm 1)
//	-T N                loop-merging threshold (default 3)
//	-attr auto|none|pred sample attribution mode
//	-func NAME          annotate only this function
//	-csv                emit per-instruction and loop CSV instead of text
//
// Observability flags (all profiling subcommands):
//
//	-trace FILE         Chrome trace-event JSON of the pipeline spans
//	                    (open in chrome://tracing or ui.perfetto.dev)
//	-metrics FILE       Prometheus text exposition of pipeline metrics
//	-log FILE           JSONL structured event log ("-" = stderr)
//	-progress           per-workload progress lines on stderr
//	-pprof ADDR         serve net/http/pprof + expvar on ADDR
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"

	"optiwise"
	"optiwise/internal/fault"
	"optiwise/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// OPTIWISE_FAULT installs a process-wide fault-injection plan before
	// any subcommand runs; the per-command -fault flag layers on top via
	// Options.FaultSpec.
	if err := fault.ActivateFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "optiwise:", err)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "check":
		fmt.Println("optiwise: simulated machines available: xeon-w2195, neoverse-n1")
		fmt.Println("optiwise: ok")
	case "run", "profile":
		err = cmdRun(args)
	case "sample":
		err = cmdSample(args)
	case "instrument":
		err = cmdInstrument(args)
	case "analyze":
		err = cmdAnalyze(args)
	case "trace":
		err = cmdTrace(args)
	case "compare":
		err = cmdCompare(args)
	case "asm":
		err = cmdAsm(args)
	case "cfg":
		err = cmdCFG(args)
	case "serve":
		err = cmdServe(args)
	case "submit":
		err = cmdSubmit(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "optiwise: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "optiwise:", err)
		// Errors that carry their own exit code (e.g. a drain-deadline
		// forced serve exit) override the generic failure code so
		// supervisors can tell the cases apart.
		var coded interface{ ExitCode() int }
		if errors.As(err, &coded) {
			os.Exit(coded.ExitCode())
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  optiwise check
  optiwise run        [flags] prog.s   (alias: profile)
  optiwise sample     [flags] -o sample.json prog.s
  optiwise instrument [flags] -o edges.json prog.s
  optiwise analyze    [flags] -sample sample.json -edges edges.json prog.s
  optiwise trace      [flags] prog.s   (figure 2-style pipeline diagram)
  optiwise compare    [flags] old.s new.s   (before/after cycle deltas)
  optiwise asm        -o prog.owx prog.s    (assemble to a binary image)
  optiwise cfg        -func NAME prog.s     (Graphviz dot of the CFG)
  optiwise serve      [flags]               (HTTP profiling service)
  optiwise submit     [flags] prog.s        (send a job to a service)
observability flags on every profiling subcommand:
  -trace FILE   Chrome trace-event JSON (chrome://tracing / Perfetto)
  -metrics FILE Prometheus text exposition of pipeline metrics
  -log FILE     JSONL structured event log ("-" = stderr)
  -progress     progress lines on stderr      -pprof ADDR  pprof+expvar server
  -window N     cycle windows: report phase summary and counter tracks
                in the -trace Chrome trace (run also streams them)
run 'optiwise <cmd> -h' for flags`)
}

// commonFlags registers the flags shared by the profiling subcommands.
type commonFlags struct {
	fs            *flag.FlagSet
	machine       *string
	period        *uint64
	precise       *bool
	noStack       *bool
	thresh        *uint64
	attr          *string
	faultSpec     *string
	allowDegraded *bool
	window        *uint64
	tiered        *bool
	hotThreshold  *float64
	obs           *obs.Config
}

func newFlags(name string) *commonFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &commonFlags{
		fs:            fs,
		machine:       fs.String("machine", "xeon", "simulated machine: xeon or n1"),
		period:        fs.Uint64("period", 2000, "sampling period in user cycles"),
		precise:       fs.Bool("precise", false, "PEBS-style precise sampling"),
		noStack:       fs.Bool("no-stack", false, "disable stack profiling"),
		thresh:        fs.Uint64("T", 3, "loop-merging threshold"),
		attr:          fs.String("attr", "auto", "sample attribution: auto, none, pred"),
		faultSpec:     fs.String("fault", "", "fault-injection spec, e.g. 'seed=1;dbi.run:error:nth=1' (also OPTIWISE_FAULT)"),
		allowDegraded: fs.Bool("allow-degraded", false, "produce a flagged single-pass report when exactly one profiling pass fails"),
		window:        fs.Uint64("window", 0, "window in cycles (0 = off): IPC, ROB occupancy, mispredict and cache-miss rates, and stall causes per window into the report's phase summary and the -trace counter tracks; run also prints a line per window on stderr, submit serves them at /v1/jobs/{id}/windows"),
		tiered:        fs.Bool("tiered", false, "tiered adaptive instrumentation: sample first, instrument only hot code; cold counts are extrapolated and marked '~' in reports"),
		hotThreshold:  fs.Float64("hot-threshold", 0, "tiered-mode hotness cutoff as a fraction of sampled cycle mass (0 = default 0.01); requires -tiered"),
		obs:           obs.BindFlags(fs),
	}
}

// withObs activates the observability configuration (tracer, metrics
// registry, structured logger, pprof server) around body, then flushes
// the -trace/-metrics output files. Flush errors surface unless body
// already failed.
func (c *commonFlags) withObs(body func() error) error {
	flush, err := c.obs.Activate()
	if err != nil {
		return err
	}
	if err := body(); err != nil {
		flush() //nolint:errcheck // body error takes precedence
		return err
	}
	return flush()
}

func (c *commonFlags) options() (optiwise.Options, error) {
	opts := optiwise.Options{
		SamplePeriod:          *c.period,
		Precise:               *c.precise,
		DisableStackProfiling: *c.noStack,
		LoopThreshold:         *c.thresh,
		FaultSpec:             *c.faultSpec,
		AllowDegraded:         *c.allowDegraded,
		Window:                *c.window,
		Tiered:                *c.tiered,
		HotThreshold:          *c.hotThreshold,
	}
	machine, err := optiwise.MachineByName(*c.machine)
	if err != nil {
		return opts, err
	}
	opts.Machine = machine
	switch *c.attr {
	case "auto":
		opts.Attribution = optiwise.AttrAuto
	case "none":
		opts.Attribution = optiwise.AttrNone
	case "pred":
		opts.Attribution = optiwise.AttrPredecessor
	default:
		return opts, fmt.Errorf("unknown attribution %q", *c.attr)
	}
	if err := opts.Validate(); err != nil {
		return opts, err
	}
	return opts, nil
}

func loadProgram(fs *flag.FlagSet) (*optiwise.Program, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("expected exactly one program file, got %d", fs.NArg())
	}
	return loadProgramPath(fs.Arg(0))
}

// loadProgramPath accepts either assembly source (.s) or an assembled OWX
// binary image (anything else is sniffed by magic).
func loadProgramPath(path string) (*optiwise.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= 4 && string(data[:4]) == "OWX\x01" {
		return optiwise.ReadBinary(bytes.NewReader(data))
	}
	return optiwise.Assemble(moduleName(path), string(data))
}

// cmdAsm assembles source into an OWX binary image.
func cmdAsm(args []string) error {
	fs := flag.NewFlagSet("asm", flag.ExitOnError)
	out := fs.String("o", "a.owx", "output image")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("asm wants exactly one source file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := optiwise.Assemble(moduleName(fs.Arg(0)), string(src))
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := prog.WriteBinary(f); err != nil {
		return err
	}
	fmt.Printf("assembled %s -> %s\n", fs.Arg(0), *out)
	return nil
}

func moduleName(path string) string {
	base := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			base = path[i+1:]
			break
		}
	}
	if len(base) > 2 && base[len(base)-2:] == ".s" {
		base = base[:len(base)-2]
	}
	return base
}

func cmdRun(args []string) error {
	c := newFlags("run")
	fn := c.fs.String("func", "", "annotate only this function")
	csv := c.fs.Bool("csv", false, "emit CSV instead of text report")
	callgraph := c.fs.Bool("callgraph", false, "emit the caller/callee table")
	jsonOut := c.fs.Bool("json", false, "emit the combined profile as JSON")
	yamlOut := c.fs.Bool("yaml", false, "emit the combined profile as YAML")
	events := c.fs.Bool("events", false, "emit per-function event rates (misses, mispredicts)")
	loopID := c.fs.Int("loop", -1, "annotate only this loop id")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	opts, err := c.options()
	if err != nil {
		return err
	}
	var comb *optiwise.StreamCombiner
	var combErr error
	var combMu sync.Mutex
	prog, err := loadProgram(c.fs)
	if err != nil {
		return err
	}
	if opts.Window > 0 {
		comb = optiwise.NewStreamCombiner(prog)
		opts.OnIncrement = func(inc optiwise.Increment) {
			if err := comb.Add(inc); err != nil {
				combMu.Lock()
				if combErr == nil {
					combErr = err
				}
				combMu.Unlock()
				return
			}
			tag := ""
			if inc.Final {
				tag = " (final)"
			}
			if inc.Sample != nil {
				fmt.Fprintf(os.Stderr, "stream: sampling window #%d: %d samples, %d cycles%s\n",
					inc.Seq, len(inc.Sample.Records), inc.Sample.Cycles, tag)
			} else if inc.Edge != nil {
				fmt.Fprintf(os.Stderr, "stream: instrumentation window #%d: %d instructions, %d block executions, %d new blocks%s\n",
					inc.Seq, inc.Edge.Instructions, inc.Edge.BlockExecs, inc.Edge.NewBlocks, tag)
			}
		}
	}
	return c.withObs(func() error {
		c.obs.Progressf("[1/1] profiling %s", prog.Module())
		sw := obs.StartTimer()
		prof, err := optiwise.Profile(prog, opts)
		if err != nil {
			return err
		}
		if comb != nil {
			combMu.Lock()
			err := combErr
			combMu.Unlock()
			if err != nil {
				return fmt.Errorf("stream combine: %w", err)
			}
			snap := comb.Snapshot()
			fmt.Fprintf(os.Stderr, "stream: %d sampling + %d instrumentation windows\n",
				len(snap.SampleWindows), len(snap.EdgeWindows))
		}
		obs.Info("profile complete",
			obs.F("module", prog.Module()),
			obs.F("samples", prof.TotalSamples),
			obs.F("seconds", sw.Seconds()))
		switch {
		case *jsonOut:
			return prof.WriteJSON(os.Stdout)
		case *yamlOut:
			return optiwise.WriteYAML(os.Stdout, prof)
		case *loopID >= 0:
			return optiwise.WriteAnnotatedLoop(os.Stdout, prof, *loopID)
		case *events:
			return optiwise.WriteEventTable(os.Stdout, prof)
		case *csv:
			if err := optiwise.WriteInstCSV(os.Stdout, prof); err != nil {
				return err
			}
			fmt.Println()
			return optiwise.WriteLoopCSV(os.Stdout, prof)
		case *callgraph:
			return optiwise.WriteCallGraph(os.Stdout, prof)
		case *fn != "":
			return optiwise.WriteAnnotated(os.Stdout, prof, *fn)
		default:
			return optiwise.WriteReport(os.Stdout, prof)
		}
	})
}

func cmdSample(args []string) error {
	c := newFlags("sample")
	out := c.fs.String("o", "sample.json", "output file")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	opts, err := c.options()
	if err != nil {
		return err
	}
	prog, err := loadProgram(c.fs)
	if err != nil {
		return err
	}
	return c.withObs(func() error {
		sp, stats, err := optiwise.SampleOnly(prog, opts)
		if err != nil {
			return err
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sp.Write(f); err != nil {
			return err
		}
		fmt.Printf("sampled %s: %d samples over %d cycles -> %s\n",
			prog.Module(), stats.Samples, stats.Cycles, *out)
		return nil
	})
}

func cmdInstrument(args []string) error {
	c := newFlags("instrument")
	out := c.fs.String("o", "edges.json", "output file")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	opts, err := c.options()
	if err != nil {
		return err
	}
	prog, err := loadProgram(c.fs)
	if err != nil {
		return err
	}
	return c.withObs(func() error {
		ep, err := optiwise.InstrumentOnly(prog, opts)
		if err != nil {
			return err
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ep.Write(f); err != nil {
			return err
		}
		fmt.Printf("instrumented %s: %d blocks, %d instructions, %.1fx overhead -> %s\n",
			prog.Module(), len(ep.Blocks), ep.BaseInstructions, ep.Overhead(), *out)
		return nil
	})
}

func cmdAnalyze(args []string) error {
	c := newFlags("analyze")
	sampleIn := c.fs.String("sample", "sample.json", "sampling profile")
	edgesIn := c.fs.String("edges", "edges.json", "edge profile")
	fn := c.fs.String("func", "", "annotate only this function")
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	opts, err := c.options()
	if err != nil {
		return err
	}
	prog, err := loadProgram(c.fs)
	if err != nil {
		return err
	}
	sf, err := os.Open(*sampleIn)
	if err != nil {
		return err
	}
	defer sf.Close()
	sp, err := optiwise.ReadSampleProfile(sf)
	if err != nil {
		return err
	}
	ef, err := os.Open(*edgesIn)
	if err != nil {
		return err
	}
	defer ef.Close()
	ep, err := optiwise.ReadEdgeProfile(ef)
	if err != nil {
		return err
	}
	return c.withObs(func() error {
		prof, err := optiwise.Analyze(prog, sp, ep, opts)
		if err != nil {
			return err
		}
		if *fn != "" {
			return optiwise.WriteAnnotated(os.Stdout, prof, *fn)
		}
		return optiwise.WriteReport(os.Stdout, prof)
	})
}
