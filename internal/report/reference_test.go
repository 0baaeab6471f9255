package report

// The fmt renderers the append renderers in report.go and phases.go
// replaced, kept verbatim (renamed ref*, the report span dropped) as the reference
// every production renderer must match byte for byte. The symbolized
// branch target keeps its fmt form here too; the disassembly is
// isa.Disassemble, which internal/isa checks against its own fmt
// reference. The drill-down model at the end is kept the same way (its
// types and builder renamed ref*): WriteDrilldown must write what
// encoding/json's indenting Encoder writes for refBuildDrilldown.

import (
	"fmt"
	"io"
	"sort"

	"optiwise/internal/core"
	"optiwise/internal/fault"
	"optiwise/internal/isa"
	"optiwise/internal/ooo"
	"optiwise/internal/program"
)

// refDegradedNote returns the one-line warning describing what a degraded
// profile is missing, or "" for full results.
func refDegradedNote(p *core.Profile) string {
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

// refTieredNote returns the one-line confidence note for tiered profiles
// (DESIGN.md §12), or "" for full-instrumentation results.
func refTieredNote(p *core.Profile) string {
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

// refWriteBanner writes the degraded and tiered notes (if any) with the
// given line prefix ("" for text tables, "# " for CSV). Full profiles
// write nothing, keeping their reports byte-identical.
func refWriteBanner(w io.Writer, p *core.Profile, prefix string) error {
	for _, note := range []string{refDegradedNote(p), refTieredNote(p)} {
		if note == "" {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s*** %s ***\n", prefix, note); err != nil {
			return err
		}
	}
	return nil
}

// refEstCount renders an execution count, prefixed '~' when the count is a
// tiered-mode extrapolation rather than a measurement. Exact counts
// render exactly as the plain %d they always did.
func refEstCount(v uint64, estimated bool) string {
	if estimated {
		return fmt.Sprintf("~%d", v)
	}
	return fmt.Sprintf("%d", v)
}

// refPreamble is the shared renderer prologue: the report.render fault site
// followed by the degraded banner.
func refPreamble(w io.Writer, p *core.Profile, prefix string) error {
	if err := fault.Err(fault.SiteReport); err != nil {
		return fmt.Errorf("report: render: %w", err)
	}
	return refWriteBanner(w, p, prefix)
}

// refWriteSummary prints the whole-program header block.
func refWriteSummary(w io.Writer, p *core.Profile) error {
	if err := refPreamble(w, p, ""); err != nil {
		return err
	}
	return refSummaryBody(w, p)
}

func refSummaryBody(w io.Writer, p *core.Profile) error {
	_, err := fmt.Fprintf(w,
		"module %s: %d cycles, %d instructions, IPC %.2f (CPI %.2f), %d samples @ period %d\n",
		p.Module, p.TotalCycles, p.TotalInsts, p.IPC, refSafeInv(p.IPC),
		p.TotalSamples, p.SamplePeriod)
	return err
}

func refSafeInv(x float64) float64 {
	if x == 0 {
		return 0
	}
	return 1 / x
}

// refWriteFunctionTable prints per-function totals, hottest first.
func refWriteFunctionTable(w io.Writer, p *core.Profile) error {
	if err := refPreamble(w, p, ""); err != nil {
		return err
	}
	return refFunctionTableBody(w, p)
}

func refFunctionTableBody(w io.Writer, p *core.Profile) error {
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
			refEstCount(f.SelfInsts, f.Estimated), refEstCount(f.TotalInsts, f.Estimated),
			f.CPI, f.IPC); err != nil {
			return err
		}
	}
	return nil
}

// refWriteLoopTable prints merged loops, hottest first. The indentation of
// the header offset reflects nesting depth.
func refWriteLoopTable(w io.Writer, p *core.Profile) error {
	if err := refPreamble(w, p, ""); err != nil {
		return err
	}
	return refLoopTableBody(w, p)
}

func refLoopTableBody(w io.Writer, p *core.Profile) error {
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

// refWriteBlockTable prints the hottest basic blocks.
func refWriteBlockTable(w io.Writer, p *core.Profile, max int) error {
	if err := refPreamble(w, p, ""); err != nil {
		return err
	}
	return refBlockTableBody(w, p, max)
}

func refBlockTableBody(w io.Writer, p *core.Profile, max int) error {
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

// refWriteLineTable prints the hottest source lines.
func refWriteLineTable(w io.Writer, p *core.Profile, max int) error {
	if err := refPreamble(w, p, ""); err != nil {
		return err
	}
	return refLineTableBody(w, p, max)
}

func refLineTableBody(w io.Writer, p *core.Profile, max int) error {
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
			refEstCount(l.ExecCount, l.Estimated), l.Samples, l.CPI); err != nil {
			return err
		}
	}
	return nil
}

// refWriteEventTable prints per-function sampled event rates: cache misses
// and branch mispredicts per kilo-instruction — the "wide range of events"
// perf records beyond the three fields OptiWISE's CPI math needs (§IV-A).
func refWriteEventTable(w io.Writer, p *core.Profile) error {
	if err := refPreamble(w, p, ""); err != nil {
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

// refWriteAnnotatedFunc prints the figure 1/10-style annotated disassembly of
// one function: offset, samples, execution count, CPI, and the
// instruction, with symbolized direct targets.
func refWriteAnnotatedFunc(w io.Writer, p *core.Profile, name string) error {
	if err := refPreamble(w, p, ""); err != nil {
		return err
	}
	return refAnnotatedFuncBody(w, p, name)
}

func refAnnotatedFuncBody(w io.Writer, p *core.Profile, name string) error {
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
			text = fmt.Sprintf("%s -> %s", text, refSymbolizeTarget(p.Prog, inst.Target))
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
			off, r.Samples, refEstCount(r.ExecCount, r.Estimated), r.CPI, text); err != nil {
			return err
		}
	}
	return nil
}

// refWriteAnnotatedLoop prints the annotated disassembly of one merged loop's
// body blocks — the "interesting region" view the paper's loop analysis
// exists to surface quickly.
func refWriteAnnotatedLoop(w io.Writer, p *core.Profile, loopID int) error {
	if err := refPreamble(w, p, ""); err != nil {
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
				text = fmt.Sprintf("%s -> %s", text, refSymbolizeTarget(p.Prog, inst.Target))
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

// refWriteAll prints the complete report: summary, functions, loops, hottest
// lines, and annotated disassembly of the hottest function. The degraded
// banner — when the profile carries one — appears exactly once, at the
// top, rather than before every section.
func refWriteAll(w io.Writer, p *core.Profile) error {
	if err := refPreamble(w, p, ""); err != nil {
		return err
	}
	if err := refSummaryBody(w, p); err != nil {
		return err
	}
	// The phase summary renders only when the run collected interval
	// telemetry (Options.Window); default profiles stay
	// byte-identical to earlier releases.
	if len(p.Intervals) > 0 {
		fmt.Fprintln(w)
		if err := refPhaseSummaryBody(w, p); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	if err := refFunctionTableBody(w, p); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := refLoopTableBody(w, p); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := refBlockTableBody(w, p, 15); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := refLineTableBody(w, p, 20); err != nil {
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
		if err := refAnnotatedFuncBody(w, p, hottest); err != nil {
			return err
		}
	}
	return nil
}

// refWriteInstCSV exports per-instruction records as CSV. A degraded banner
// is emitted as a "# " comment line so naive CSV consumers that skip
// comments still parse, while anything inspecting the file sees the flag.
func refWriteInstCSV(w io.Writer, p *core.Profile) error {
	if err := refPreamble(w, p, "# "); err != nil {
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

// refWriteLoopCSV exports loop records as CSV, with the same "# " degraded
// comment convention as refWriteInstCSV.
func refWriteLoopCSV(w io.Writer, p *core.Profile) error {
	if err := refPreamble(w, p, "# "); err != nil {
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

// refSymbolizeTarget is program.(*Program).SymbolizeTarget as it was
// before AppendTarget.
func refSymbolizeTarget(p *program.Program, off uint64) string {
	if f, ok := p.FuncAt(off); ok {
		if off == f.Lo {
			return f.Name
		}
		return fmt.Sprintf("%s+0x%x", f.Name, off-f.Lo)
	}
	return fmt.Sprintf("0x%x", off)
}

func refWritePhaseSummary(w io.Writer, p *core.Profile) error {
	if err := refPreamble(w, p, ""); err != nil {
		return err
	}
	return refPhaseSummaryBody(w, p)
}

func refPhaseSummaryBody(w io.Writer, p *core.Profile) error {
	if len(p.Intervals) == 0 {
		_, err := fmt.Fprintln(w, "no interval telemetry collected (profile with a telemetry window to enable)")
		return err
	}
	if _, err := fmt.Fprintf(w, "PHASES: %d intervals @ %d-cycle window\n",
		len(p.Intervals), p.IntervalWindow); err != nil {
		return err
	}
	ipcs := make([]float64, len(p.Intervals))
	maxIPC := 0.0
	for i, iv := range p.Intervals {
		ipcs[i] = iv.IPC
		if iv.IPC > maxIPC {
			maxIPC = iv.IPC
		}
	}
	if _, err := fmt.Fprintf(w, "IPC %s (peak %.2f)\n", sparkline(ipcs, 60), maxIPC); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-22s %10s %6s %-12s %8s %8s\n",
		"CYCLES", "INSTS", "IPC", "STALL", "MISPRED%", "L1MISS%"); err != nil {
		return err
	}
	for _, ph := range mergePhases(p.Intervals) {
		ipc := 0.0
		if ph.cycles > 0 {
			ipc = float64(ph.insts) / float64(ph.cycles)
		}
		mis := 0.0
		if ph.branches > 0 {
			mis = 100 * float64(ph.mispredicts) / float64(ph.branches)
		}
		l1 := 0.0
		if tot := ph.l1Hits + ph.l1Misses; tot > 0 {
			l1 = 100 * float64(ph.l1Misses) / float64(tot)
		}
		rng := fmt.Sprintf("[%d,%d)", ph.start, ph.end)
		if _, err := fmt.Fprintf(w, "%-22s %10d %6.2f %-12s %7.1f%% %7.1f%%\n",
			rng, ph.insts, ipc, ph.dominant, mis, l1); err != nil {
			return err
		}
	}
	return nil
}

// sparkline is appendSparkline as a string, the form the reference
// and the sparkline tests take.
func sparkline(vals []float64, width int) string {
	return string(appendSparkline(nil, vals, width))
}

// refDrilldown is the drill-down data model.
type refDrilldown struct {
	Module  string `json:"module"`
	Machine string `json:"machine"`

	TotalCycles  uint64  `json:"total_cycles"`
	TotalInsts   uint64  `json:"total_insts"`
	TotalSamples uint64  `json:"total_samples"`
	IPC          float64 `json:"ipc"`
	CPI          float64 `json:"cpi"`

	Degraded     bool   `json:"degraded,omitempty"`
	DegradedNote string `json:"degraded_note,omitempty"`
	Tiered       bool   `json:"tiered,omitempty"`
	TieredNote   string `json:"tiered_note,omitempty"`

	// Phases folds the opt-in interval telemetry into runs of
	// consecutive windows sharing a dominant stall cause; Intervals is
	// the raw stream for the chart. Both empty without a window
	// (options.stream_window).
	IntervalWindow uint64          `json:"interval_window,omitempty"`
	Phases         []refDrillPhase `json:"phases,omitempty"`
	Intervals      []ooo.Interval  `json:"intervals,omitempty"`

	Functions []refDrillFunc `json:"functions"`
}

// refDrillPhase is one dominant-stall phase of the telemetry stream.
type refDrillPhase struct {
	Dominant   string  `json:"dominant"`
	StartCycle uint64  `json:"start_cycle"`
	EndCycle   uint64  `json:"end_cycle"`
	Cycles     uint64  `json:"cycles"`
	Insts      uint64  `json:"insts"`
	IPC        float64 `json:"ipc"`
}

// refDrillFunc is one function with its nested loops and loop-free blocks.
type refDrillFunc struct {
	Name        string  `json:"name"`
	Lo          uint64  `json:"lo"`
	SelfCycles  uint64  `json:"self_cycles"`
	TotalCycles uint64  `json:"total_cycles"`
	SelfInsts   uint64  `json:"self_insts"`
	TotalInsts  uint64  `json:"total_insts"`
	CPI         float64 `json:"cpi"`
	IPC         float64 `json:"ipc"`
	TimeFrac    float64 `json:"time_frac"`
	Estimated   bool    `json:"estimated,omitempty"`

	Loops []refDrillLoop `json:"loops,omitempty"`
	// Blocks are the function's basic blocks outside any loop.
	Blocks []refDrillBlock `json:"blocks,omitempty"`
}

// refDrillLoop is one merged loop with its body blocks. Nested loops stay
// flat (Parent/Depth describe nesting) because a block belongs to its
// innermost loop only.
type refDrillLoop struct {
	ID           int     `json:"id"`
	HeaderOffset uint64  `json:"header_offset"`
	Parent       int     `json:"parent"`
	Depth        int     `json:"depth"`
	File         string  `json:"file,omitempty"`
	StartLine    int     `json:"start_line,omitempty"`
	EndLine      int     `json:"end_line,omitempty"`
	Invocations  uint64  `json:"invocations"`
	Iterations   uint64  `json:"iterations"`
	SelfCycles   uint64  `json:"self_cycles"`
	TotalCycles  uint64  `json:"total_cycles"`
	SelfInsts    uint64  `json:"self_insts"`
	TotalInsts   uint64  `json:"total_insts"`
	CPI          float64 `json:"cpi"`
	InstsPerIter float64 `json:"insts_per_iter"`
	TimeFrac     float64 `json:"time_frac"`

	Blocks []refDrillBlock `json:"blocks,omitempty"`
}

// refDrillBlock is one basic block with its instructions.
type refDrillBlock struct {
	Start     uint64  `json:"start"`
	End       uint64  `json:"end"`
	ExecCount uint64  `json:"exec_count"`
	Insts     int     `json:"insts"`
	Samples   uint64  `json:"samples"`
	Cycles    uint64  `json:"cycles"`
	CPI       float64 `json:"cpi"`
	TimeFrac  float64 `json:"time_frac"`

	Instructions []refDrillInst `json:"instructions,omitempty"`
}

// refDrillInst is one instruction: the paper's headline per-instruction
// CPI with its disassembly and source annotation.
type refDrillInst struct {
	Offset      uint64  `json:"offset"`
	Disasm      string  `json:"disasm"`
	File        string  `json:"file,omitempty"`
	Line        int     `json:"line,omitempty"`
	ExecCount   uint64  `json:"exec_count"`
	Samples     uint64  `json:"samples"`
	Cycles      uint64  `json:"cycles"`
	CacheMisses uint64  `json:"cache_misses,omitempty"`
	Mispredicts uint64  `json:"mispredicts,omitempty"`
	CPI         float64 `json:"cpi"`
	Estimated   bool    `json:"estimated,omitempty"`
}

// refBuildDrilldown projects a combined profile into the nested
// drill-down model.
func refBuildDrilldown(p *core.Profile) *refDrilldown {
	exp := p.Export()
	d := &refDrilldown{
		Module:         exp.Module,
		Machine:        exp.Machine,
		TotalCycles:    exp.TotalCycles,
		TotalInsts:     exp.TotalInsts,
		TotalSamples:   exp.TotalSamples,
		IPC:            exp.IPC,
		Degraded:       exp.Degraded,
		DegradedNote:   degradedNote(p),
		Tiered:         exp.Tiered,
		TieredNote:     tieredNote(p),
		IntervalWindow: exp.IntervalWindow,
		Intervals:      exp.Intervals,
		Functions:      []refDrillFunc{},
	}
	if exp.IPC > 0 {
		d.CPI = 1 / exp.IPC
	}
	for _, ph := range mergePhases(exp.Intervals) {
		dp := refDrillPhase{
			Dominant:   ph.dominant,
			StartCycle: ph.start,
			EndCycle:   ph.end,
			Cycles:     ph.cycles,
			Insts:      ph.insts,
		}
		if ph.cycles > 0 {
			dp.IPC = float64(ph.insts) / float64(ph.cycles)
		}
		d.Phases = append(d.Phases, dp)
	}

	// Instructions nest into blocks by offset containment; blocks into
	// loops by the loops' recorded body block starts (innermost loop
	// wins); loop-free blocks nest directly under their function.
	instsByBlock := make(map[uint64][]refDrillInst) // block start → insts
	type span struct{ start, end uint64 }
	spans := make([]span, len(exp.Blocks))
	for i, b := range exp.Blocks {
		spans[i] = span{b.Start, b.End}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	blockOf := func(off uint64) (uint64, bool) {
		i := sort.Search(len(spans), func(i int) bool { return spans[i].start > off })
		if i == 0 {
			return 0, false
		}
		b := spans[i-1]
		if off >= b.start && off < b.end {
			return b.start, true
		}
		return 0, false
	}
	for _, ir := range exp.Insts {
		di := refDrillInst{
			Offset:      ir.Offset,
			Disasm:      ir.Disasm,
			File:        ir.File,
			Line:        ir.Line,
			ExecCount:   ir.ExecCount,
			Samples:     ir.Samples,
			Cycles:      ir.Cycles,
			CacheMisses: ir.CacheMisses,
			Mispredicts: ir.Mispredicts,
			CPI:         ir.CPI,
			Estimated:   ir.Estimated,
		}
		if bs, ok := blockOf(ir.Offset); ok {
			instsByBlock[bs] = append(instsByBlock[bs], di)
		}
	}

	// Innermost loop of each block start: deeper loops win.
	loopOfBlock := make(map[uint64]int) // block start → loop index
	for li, lr := range exp.Loops {
		for _, bs := range lr.BlockStarts {
			if prev, ok := loopOfBlock[bs]; !ok || exp.Loops[prev].Depth < lr.Depth {
				loopOfBlock[bs] = li
			}
		}
	}

	blocksByFunc := make(map[string][]refDrillBlock) // loop-free blocks
	blocksByLoop := make(map[int][]refDrillBlock)
	for _, br := range exp.Blocks {
		db := refDrillBlock{
			Start:        br.Start,
			End:          br.End,
			ExecCount:    br.ExecCount,
			Insts:        br.Insts,
			Samples:      br.Samples,
			Cycles:       br.Cycles,
			CPI:          br.CPI,
			TimeFrac:     br.TimeFrac,
			Instructions: instsByBlock[br.Start],
		}
		if li, ok := loopOfBlock[br.Start]; ok {
			blocksByLoop[li] = append(blocksByLoop[li], db)
		} else {
			blocksByFunc[br.Func] = append(blocksByFunc[br.Func], db)
		}
	}

	loopsByFunc := make(map[string][]refDrillLoop)
	for li, lr := range exp.Loops {
		dl := refDrillLoop{
			ID:           lr.ID,
			HeaderOffset: lr.HeaderOffset,
			Parent:       lr.Parent,
			Depth:        lr.Depth,
			File:         lr.File,
			StartLine:    lr.StartLine,
			EndLine:      lr.EndLine,
			Invocations:  lr.Invocations,
			Iterations:   lr.Iterations,
			SelfCycles:   lr.SelfCycles,
			TotalCycles:  lr.TotalCycles,
			SelfInsts:    lr.SelfInsts,
			TotalInsts:   lr.TotalInsts,
			CPI:          lr.CPI,
			InstsPerIter: lr.InstsPerIter,
			TimeFrac:     lr.TimeFrac,
			Blocks:       blocksByLoop[li],
		}
		loopsByFunc[lr.Func] = append(loopsByFunc[lr.Func], dl)
	}

	for _, fr := range exp.Funcs {
		d.Functions = append(d.Functions, refDrillFunc{
			Name:        fr.Name,
			Lo:          fr.Lo,
			SelfCycles:  fr.SelfCycles,
			TotalCycles: fr.TotalCycles,
			SelfInsts:   fr.SelfInsts,
			TotalInsts:  fr.TotalInsts,
			CPI:         fr.CPI,
			IPC:         fr.IPC,
			TimeFrac:    fr.TimeFrac,
			Estimated:   fr.Estimated,
			Loops:       loopsByFunc[fr.Name],
			Blocks:      blocksByFunc[fr.Name],
		})
	}
	return d
}
