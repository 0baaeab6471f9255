// Package report renders combined profiles as human-readable tables and
// annotated disassembly, in the style of the paper's figures 1 and 10, plus
// machine-readable CSV exports.
//
// Every public renderer starts with the same preamble: the report.render
// fault-injection site (so chaos tests can fail rendering mid-report) and
// a degraded-result banner. Degraded profiles — single-pass results from
// Options.AllowDegraded (DESIGN.md §8) — are missing half their inputs,
// so every renderer prominently flags them rather than letting a partial
// view masquerade as a full one. WriteAll emits the banner exactly once by
// composing the unbannered body helpers.
package report

import (
	"fmt"
	"io"

	"optiwise/internal/core"
	"optiwise/internal/fault"
	"optiwise/internal/isa"
	"optiwise/internal/obs"
)

// degradedNote returns the one-line warning describing what a degraded
// profile is missing, or "" for full results.
func degradedNote(p *core.Profile) string {
	if !p.Degraded {
		return ""
	}
	switch p.FailedPass {
	case core.PassInstrumentation:
		return fmt.Sprintf("DEGRADED RESULT (sampling-only): instrumentation pass failed: %s; "+
			"execution counts are time-share estimates, per-instruction CPI unavailable", p.DegradedReason)
	case core.PassSampling:
		return fmt.Sprintf("DEGRADED RESULT (counts-only): sampling pass failed: %s; "+
			"no cycle data, functions ranked by retired instructions", p.DegradedReason)
	default:
		return fmt.Sprintf("DEGRADED RESULT: %s", p.DegradedReason)
	}
}

// tieredNote returns the one-line confidence note for tiered profiles
// (DESIGN.md §12), or "" for full-instrumentation results.
func tieredNote(p *core.Profile) string {
	if !p.Tiered {
		return ""
	}
	if p.Degraded {
		// A tiered run whose instrumentation pass died has no selection
		// left to describe: even the would-be hot code is extrapolated.
		return "TIERED PROFILE: tiered run degraded before selective instrumentation; " +
			"all counts marked '~' are extrapolated from sampling time-shares"
	}
	return fmt.Sprintf("TIERED PROFILE: selective instrumentation over %d hot range(s); "+
		"counts marked '~' are extrapolated from sampling time-shares", len(p.HotRanges))
}

// writeBanner writes the degraded and tiered notes (if any) with the
// given line prefix ("" for text tables, "# " for CSV). Full profiles
// write nothing, keeping their reports byte-identical.
func writeBanner(w io.Writer, p *core.Profile, prefix string) error {
	for _, note := range []string{degradedNote(p), tieredNote(p)} {
		if note == "" {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s*** %s ***\n", prefix, note); err != nil {
			return err
		}
	}
	return nil
}

// estCount renders an execution count, prefixed '~' when the count is a
// tiered-mode extrapolation rather than a measurement. Exact counts
// render exactly as the plain %d they always did.
func estCount(v uint64, estimated bool) string {
	if estimated {
		return fmt.Sprintf("~%d", v)
	}
	return fmt.Sprintf("%d", v)
}

// preamble is the shared renderer prologue: the report.render fault site
// followed by the degraded banner.
func preamble(w io.Writer, p *core.Profile, prefix string) error {
	if err := fault.Err(fault.SiteReport); err != nil {
		return fmt.Errorf("report: render: %w", err)
	}
	return writeBanner(w, p, prefix)
}

// WriteSummary prints the whole-program header block.
func WriteSummary(w io.Writer, p *core.Profile) error {
	if err := preamble(w, p, ""); err != nil {
		return err
	}
	return summaryBody(w, p)
}

func summaryBody(w io.Writer, p *core.Profile) error {
	_, err := fmt.Fprintf(w,
		"module %s: %d cycles, %d instructions, IPC %.2f (CPI %.2f), %d samples @ period %d\n",
		p.Module, p.TotalCycles, p.TotalInsts, p.IPC, safeInv(p.IPC),
		p.TotalSamples, p.SamplePeriod)
	return err
}

func safeInv(x float64) float64 {
	if x == 0 {
		return 0
	}
	return 1 / x
}

// WriteFunctionTable prints per-function totals, hottest first.
func WriteFunctionTable(w io.Writer, p *core.Profile) error {
	if err := preamble(w, p, ""); err != nil {
		return err
	}
	return functionTableBody(w, p)
}

func functionTableBody(w io.Writer, p *core.Profile) error {
	if _, err := fmt.Fprintf(w, "%-24s %7s %7s %12s %12s %6s %6s\n",
		"FUNCTION", "TIME%", "SELF%", "INSTS", "TOTAL-INSTS", "CPI", "IPC"); err != nil {
		return err
	}
	for _, f := range p.Funcs {
		selfFrac := 0.0
		if p.TotalCycles > 0 {
			selfFrac = float64(f.SelfCycles) / float64(p.TotalCycles)
		}
		if _, err := fmt.Fprintf(w, "%-24s %6.1f%% %6.1f%% %12s %12s %6.2f %6.2f\n",
			f.Name, 100*f.TimeFrac, 100*selfFrac,
			estCount(f.SelfInsts, f.Estimated), estCount(f.TotalInsts, f.Estimated),
			f.CPI, f.IPC); err != nil {
			return err
		}
	}
	return nil
}

// WriteLoopTable prints merged loops, hottest first. The indentation of
// the header offset reflects nesting depth.
func WriteLoopTable(w io.Writer, p *core.Profile) error {
	if err := preamble(w, p, ""); err != nil {
		return err
	}
	return loopTableBody(w, p)
}

func loopTableBody(w io.Writer, p *core.Profile) error {
	if _, err := fmt.Fprintf(w, "%-4s %-20s %-18s %7s %10s %10s %8s %6s %s\n",
		"LOOP", "FUNCTION", "HEADER", "TIME%", "INVOC", "ITERS", "INST/IT", "CPI", "SOURCE"); err != nil {
		return err
	}
	for _, l := range p.Loops {
		src := ""
		if l.File != "" {
			src = fmt.Sprintf("%s:%d-%d", l.File, l.StartLine, l.EndLine)
		}
		indent := ""
		for i := 0; i < l.Depth; i++ {
			indent += "  "
		}
		if _, err := fmt.Fprintf(w, "%-4d %-20s %-18s %6.1f%% %10d %10d %8.1f %6.2f %s\n",
			l.ID, l.Func, indent+fmt.Sprintf("0x%x", l.HeaderOffset),
			100*l.TimeFrac, l.Invocations, l.Iterations, l.InstsPerIter,
			l.CPI, src); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlockTable prints the hottest basic blocks.
func WriteBlockTable(w io.Writer, p *core.Profile, max int) error {
	if err := preamble(w, p, ""); err != nil {
		return err
	}
	return blockTableBody(w, p, max)
}

func blockTableBody(w io.Writer, p *core.Profile, max int) error {
	if _, err := fmt.Fprintf(w, "%-24s %7s %12s %8s %6s\n",
		"BLOCK", "TIME%", "EXEC", "INSTS", "CPI"); err != nil {
		return err
	}
	for i, b := range p.Blocks {
		if max > 0 && i >= max {
			break
		}
		name := fmt.Sprintf("%s+0x%x", b.Func, b.Start)
		if b.Func == "" {
			name = fmt.Sprintf("0x%x", b.Start)
		}
		if _, err := fmt.Fprintf(w, "%-24s %6.1f%% %12d %8d %6.2f\n",
			name, 100*b.TimeFrac, b.ExecCount, b.Insts, b.CPI); err != nil {
			return err
		}
	}
	return nil
}

// WriteLineTable prints the hottest source lines.
func WriteLineTable(w io.Writer, p *core.Profile, max int) error {
	if err := preamble(w, p, ""); err != nil {
		return err
	}
	return lineTableBody(w, p, max)
}

func lineTableBody(w io.Writer, p *core.Profile, max int) error {
	if _, err := fmt.Fprintf(w, "%-24s %7s %12s %10s %6s\n",
		"SOURCE", "TIME%", "EXEC", "SAMPLES", "CPI"); err != nil {
		return err
	}
	for i, l := range p.Lines {
		if max > 0 && i >= max {
			break
		}
		if _, err := fmt.Fprintf(w, "%-24s %6.1f%% %12s %10d %6.2f\n",
			fmt.Sprintf("%s:%d", l.File, l.Line), 100*l.TimeFrac,
			estCount(l.ExecCount, l.Estimated), l.Samples, l.CPI); err != nil {
			return err
		}
	}
	return nil
}

// WriteEventTable prints per-function sampled event rates: cache misses
// and branch mispredicts per kilo-instruction — the "wide range of events"
// perf records beyond the three fields OptiWISE's CPI math needs (§IV-A).
func WriteEventTable(w io.Writer, p *core.Profile) error {
	if err := preamble(w, p, ""); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-24s %12s %10s %10s %10s %10s\n",
		"FUNCTION", "INSTS", "MISSES", "MPKI", "BR-MISS", "BR-MPKI"); err != nil {
		return err
	}
	for _, f := range p.Funcs {
		if f.SelfInsts == 0 {
			continue
		}
		mpki := 1000 * float64(f.CacheMisses) / float64(f.SelfInsts)
		bpki := 1000 * float64(f.Mispredicts) / float64(f.SelfInsts)
		if _, err := fmt.Fprintf(w, "%-24s %12d %10d %10.2f %10d %10.2f\n",
			f.Name, f.SelfInsts, f.CacheMisses, mpki, f.Mispredicts, bpki); err != nil {
			return err
		}
	}
	return nil
}

// WriteAnnotatedFunc prints the figure 1/10-style annotated disassembly of
// one function: offset, samples, execution count, CPI, and the
// instruction, with symbolized direct targets.
func WriteAnnotatedFunc(w io.Writer, p *core.Profile, name string) error {
	if err := preamble(w, p, ""); err != nil {
		return err
	}
	return annotatedFuncBody(w, p, name)
}

func annotatedFuncBody(w io.Writer, p *core.Profile, name string) error {
	fn, ok := p.Prog.FuncByName(name)
	if !ok {
		return fmt.Errorf("report: no function %q", name)
	}
	if _, err := fmt.Fprintf(w, "%s:\n%8s %10s %12s %8s  %s\n",
		name, "OFFSET", "SAMPLES", "EXEC", "CPI", "INSTRUCTION"); err != nil {
		return err
	}
	for off := fn.Lo; off < fn.Hi; off += isa.InstBytes {
		inst, ok := p.Prog.InstAt(off)
		if !ok {
			continue
		}
		text := isa.Disassemble(inst)
		switch inst.Op.Kind() {
		case isa.KindBranch, isa.KindJump, isa.KindCall:
			text = fmt.Sprintf("%s -> %s", text, p.Prog.SymbolizeTarget(inst.Target))
		}
		r, recorded := p.InstAt(off)
		if !recorded {
			if _, err := fmt.Fprintf(w, "%8x %10s %12s %8s  %s\n",
				off, "-", "-", "-", text); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%8x %10d %12s %8.2f  %s\n",
			off, r.Samples, estCount(r.ExecCount, r.Estimated), r.CPI, text); err != nil {
			return err
		}
	}
	return nil
}

// WriteAnnotatedLoop prints the annotated disassembly of one merged loop's
// body blocks — the "interesting region" view the paper's loop analysis
// exists to surface quickly.
func WriteAnnotatedLoop(w io.Writer, p *core.Profile, loopID int) error {
	if err := preamble(w, p, ""); err != nil {
		return err
	}
	var loop *core.LoopRecord
	for i := range p.Loops {
		if p.Loops[i].ID == loopID {
			loop = &p.Loops[i]
		}
	}
	if loop == nil {
		return fmt.Errorf("report: no loop %d", loopID)
	}
	if _, err := fmt.Fprintf(w,
		"loop %d in %s (header 0x%x, depth %d): %d invocations, %d iterations, CPI %.2f\n",
		loop.ID, loop.Func, loop.HeaderOffset, loop.Depth,
		loop.Invocations, loop.Iterations, loop.CPI); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%8s %10s %12s %8s  %s\n",
		"OFFSET", "SAMPLES", "EXEC", "CPI", "INSTRUCTION"); err != nil {
		return err
	}
	for _, start := range loop.BlockStarts {
		bi := p.Graph.BlockAt(start)
		if bi < 0 {
			continue
		}
		b := p.Graph.Blocks[bi]
		for off := b.Start; off < b.End; off += isa.InstBytes {
			inst, ok := p.Prog.InstAt(off)
			if !ok {
				continue
			}
			text := isa.Disassemble(inst)
			switch inst.Op.Kind() {
			case isa.KindBranch, isa.KindJump, isa.KindCall:
				text = fmt.Sprintf("%s -> %s", text, p.Prog.SymbolizeTarget(inst.Target))
			}
			r, _ := p.InstAt(off)
			if _, err := fmt.Fprintf(w, "%8x %10d %12d %8.2f  %s\n",
				off, r.Samples, r.ExecCount, r.CPI, text); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteAll prints the complete report: summary, functions, loops, hottest
// lines, and annotated disassembly of the hottest function. The degraded
// banner — when the profile carries one — appears exactly once, at the
// top, rather than before every section.
func WriteAll(w io.Writer, p *core.Profile) error {
	span := obs.Start("report").SetAttr("module", p.Module)
	defer span.End()
	if err := preamble(w, p, ""); err != nil {
		return err
	}
	if err := summaryBody(w, p); err != nil {
		return err
	}
	// The phase summary renders only when the run collected interval
	// telemetry (Options.Window); default profiles stay
	// byte-identical to earlier releases.
	if len(p.Intervals) > 0 {
		fmt.Fprintln(w)
		if err := phaseSummaryBody(w, p); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	if err := functionTableBody(w, p); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := loopTableBody(w, p); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := blockTableBody(w, p, 15); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := lineTableBody(w, p, 20); err != nil {
		return err
	}
	if len(p.Funcs) > 0 {
		fmt.Fprintln(w)
		hottest := p.Funcs[0].Name
		for _, f := range p.Funcs {
			if f.SelfCycles > 0 {
				hottest = f.Name
				break
			}
		}
		if err := annotatedFuncBody(w, p, hottest); err != nil {
			return err
		}
	}
	return nil
}

// WriteInstCSV exports per-instruction records as CSV. A degraded banner
// is emitted as a "# " comment line so naive CSV consumers that skip
// comments still parse, while anything inspecting the file sees the flag.
func WriteInstCSV(w io.Writer, p *core.Profile) error {
	if err := preamble(w, p, "# "); err != nil {
		return err
	}
	// Tiered profiles gain a trailing estimated column; full profiles
	// keep the legacy schema byte-identically.
	estCol := ""
	if p.Tiered {
		estCol = ",estimated"
	}
	if _, err := fmt.Fprintf(w, "offset,func,file,line,exec,samples,cycles,cpi,disasm%s\n", estCol); err != nil {
		return err
	}
	for _, r := range p.Insts {
		est := ""
		if p.Tiered {
			est = fmt.Sprintf(",%t", r.Estimated)
		}
		if _, err := fmt.Fprintf(w, "0x%x,%s,%s,%d,%d,%d,%d,%.4f,%q%s\n",
			r.Offset, r.Func, r.File, r.Line, r.ExecCount, r.Samples,
			r.Cycles, r.CPI, r.Disasm, est); err != nil {
			return err
		}
	}
	return nil
}

// WriteLoopCSV exports loop records as CSV, with the same "# " degraded
// comment convention as WriteInstCSV.
func WriteLoopCSV(w io.Writer, p *core.Profile) error {
	if err := preamble(w, p, "# "); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w,
		"id,func,header,parent,depth,invocations,iterations,insts_per_iter,cpi,time_frac"); err != nil {
		return err
	}
	for _, l := range p.Loops {
		if _, err := fmt.Fprintf(w, "%d,%s,0x%x,%d,%d,%d,%d,%.2f,%.4f,%.4f\n",
			l.ID, l.Func, l.HeaderOffset, l.Parent, l.Depth,
			l.Invocations, l.Iterations, l.InstsPerIter, l.CPI, l.TimeFrac); err != nil {
			return err
		}
	}
	return nil
}
