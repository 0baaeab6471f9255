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
//
// The tables and CSV exports in this file append into one byte slice,
// presized from the record counts, and reach w in a single Write (the
// helpers in text.go stand in for fmt's verbs); a renderer that fails
// writes nothing.
package report

import (
	"fmt"
	"io"
	"strconv"

	"optiwise/internal/core"
	"optiwise/internal/fault"
	"optiwise/internal/isa"
	"optiwise/internal/obs"
	"optiwise/internal/program"
)

// degradedNote returns the one-line warning describing what a degraded
// profile is missing, or "" for full results.
func degradedNote(p *core.Profile) string {
	if !p.Degraded {
		return ""
	}
	switch p.FailedPass {
	case core.PassInstrumentation:
		return "DEGRADED RESULT (sampling-only): instrumentation pass failed: " + p.DegradedReason + "; " +
			"execution counts are time-share estimates, per-instruction CPI unavailable"
	case core.PassSampling:
		return "DEGRADED RESULT (counts-only): sampling pass failed: " + p.DegradedReason + "; " +
			"no cycle data, functions ranked by retired instructions"
	default:
		return "DEGRADED RESULT: " + p.DegradedReason
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
	return "TIERED PROFILE: selective instrumentation over " + strconv.Itoa(len(p.HotRanges)) + " hot range(s); " +
		"counts marked '~' are extrapolated from sampling time-shares"
}

// appendBanner appends the degraded and tiered notes (if any) with the
// given line prefix ("" for text tables, "# " for CSV). Full profiles
// append nothing, keeping their reports byte-identical.
func appendBanner(b []byte, p *core.Profile, prefix string) []byte {
	for _, note := range [...]string{degradedNote(p), tieredNote(p)} {
		if note == "" {
			continue
		}
		b = append(b, prefix...)
		b = append(b, "*** "...)
		b = append(b, note...)
		b = append(b, " ***\n"...)
	}
	return b
}

// bannerBytes bounds the banner's length, for presizing.
const bannerBytes = 512

// begin is the renderer prologue: the report.render fault site, then a
// buffer with room for about size bytes more, holding the banner.
func begin(p *core.Profile, prefix string, size int) ([]byte, error) {
	if err := fault.Err(fault.SiteReport); err != nil {
		return nil, fmt.Errorf("report: render: %w", err)
	}
	if p.Degraded || p.Tiered {
		size += bannerBytes
	}
	return appendBanner(make([]byte, 0, size), p, prefix), nil
}

func write(w io.Writer, b []byte) error {
	_, err := w.Write(b)
	return err
}

// preamble is begin for the call graph, which writes to w as it goes:
// it writes the banner at once.
func preamble(w io.Writer, p *core.Profile, prefix string) error {
	b, err := begin(p, prefix, 0)
	if err != nil || len(b) == 0 {
		return err
	}
	return write(w, b)
}

// Presizing estimates, in bytes: a table header and one row of each
// table, a little above the typical row. Rows with long names outgrow
// them, which costs a buffer growth, never a second pass.
const (
	headerBytes   = 100
	summaryBytes  = 128
	funcRowBytes  = 84
	loopRowBytes  = 112
	blockRowBytes = 64
	lineRowBytes  = 64
	instRowBytes  = 72 // one annotated instruction, symbolized target included
	instCSVBytes  = 72
	loopCSVBytes  = 64
	blockRows     = 15 // WriteAll's block and line table lengths
	lineRows      = 20
)

// WriteSummary prints the whole-program header block.
func WriteSummary(w io.Writer, p *core.Profile) error {
	b, err := begin(p, "", summaryBytes+len(p.Module))
	if err != nil {
		return err
	}
	return write(w, appendSummary(b, p))
}

func appendSummary(b []byte, p *core.Profile) []byte {
	b = append(b, "module "...)
	b = append(b, p.Module...)
	b = append(b, ": "...)
	b = strconv.AppendUint(b, p.TotalCycles, 10)
	b = append(b, " cycles, "...)
	b = strconv.AppendUint(b, p.TotalInsts, 10)
	b = append(b, " instructions, IPC "...)
	b = appendFloat(b, p.IPC, 2, 0)
	b = append(b, " (CPI "...)
	b = appendFloat(b, safeInv(p.IPC), 2, 0)
	b = append(b, "), "...)
	b = strconv.AppendUint(b, p.TotalSamples, 10)
	b = append(b, " samples @ period "...)
	b = strconv.AppendUint(b, p.SamplePeriod, 10)
	return append(b, '\n')
}

func safeInv(x float64) float64 {
	if x == 0 {
		return 0
	}
	return 1 / x
}

// WriteFunctionTable prints per-function totals, hottest first.
func WriteFunctionTable(w io.Writer, p *core.Profile) error {
	b, err := begin(p, "", headerBytes+funcRowBytes*len(p.Funcs))
	if err != nil {
		return err
	}
	return write(w, appendFunctionTable(b, p))
}

var funcHeader = header([]int{-24, 7, 7, 12, 12, 6, 6},
	"FUNCTION", "TIME%", "SELF%", "INSTS", "TOTAL-INSTS", "CPI", "IPC")

func appendFunctionTable(b []byte, p *core.Profile) []byte {
	b = append(b, funcHeader...)
	for _, f := range p.Funcs {
		selfFrac := 0.0
		if p.TotalCycles > 0 {
			selfFrac = float64(f.SelfCycles) / float64(p.TotalCycles)
		}
		b = appendStr(b, f.Name, -24)
		b = appendFloat(append(b, ' '), 100*f.TimeFrac, 1, 6)
		b = appendFloat(append(b, "% "...), 100*selfFrac, 1, 6)
		b = appendCount(append(b, "% "...), f.SelfInsts, f.Estimated, 12)
		b = appendCount(append(b, ' '), f.TotalInsts, f.Estimated, 12)
		b = appendFloat(append(b, ' '), f.CPI, 2, 6)
		b = appendFloat(append(b, ' '), f.IPC, 2, 6)
		b = append(b, '\n')
	}
	return b
}

// WriteLoopTable prints merged loops, hottest first. The indentation of
// the header offset reflects nesting depth.
func WriteLoopTable(w io.Writer, p *core.Profile) error {
	b, err := begin(p, "", headerBytes+loopRowBytes*len(p.Loops))
	if err != nil {
		return err
	}
	return write(w, appendLoopTable(b, p))
}

var loopHeader = header([]int{-4, -20, -18, 7, 10, 10, 8, 6, 0},
	"LOOP", "FUNCTION", "HEADER", "TIME%", "INVOC", "ITERS", "INST/IT", "CPI", "SOURCE")

func appendLoopTable(b []byte, p *core.Profile) []byte {
	b = append(b, loopHeader...)
	for _, l := range p.Loops {
		b = appendInt(b, int64(l.ID), -4)
		b = appendStr(append(b, ' '), l.Func, -20)
		b = append(b, ' ')
		start := len(b)
		for i := 0; i < l.Depth; i++ {
			b = append(b, "  "...)
		}
		b = pad(isa.AppendHex(b, l.HeaderOffset), start, -18)
		b = appendFloat(append(b, ' '), 100*l.TimeFrac, 1, 6)
		b = appendUint(append(b, "% "...), l.Invocations, 10)
		b = appendUint(append(b, ' '), l.Iterations, 10)
		b = appendFloat(append(b, ' '), l.InstsPerIter, 1, 8)
		b = appendFloat(append(b, ' '), l.CPI, 2, 6)
		b = append(b, ' ')
		if l.File != "" {
			b = append(b, l.File...)
			b = strconv.AppendInt(append(b, ':'), int64(l.StartLine), 10)
			b = strconv.AppendInt(append(b, '-'), int64(l.EndLine), 10)
		}
		b = append(b, '\n')
	}
	return b
}

// WriteBlockTable prints the hottest basic blocks.
func WriteBlockTable(w io.Writer, p *core.Profile, max int) error {
	b, err := begin(p, "", headerBytes+blockRowBytes*tableRows(len(p.Blocks), max))
	if err != nil {
		return err
	}
	return write(w, appendBlockTable(b, p, max))
}

// tableRows is how many of n records a table capped at max prints.
func tableRows(n, max int) int {
	if max > 0 && n > max {
		return max
	}
	return n
}

var blockHeader = header([]int{-24, 7, 12, 8, 6}, "BLOCK", "TIME%", "EXEC", "INSTS", "CPI")

func appendBlockTable(b []byte, p *core.Profile, max int) []byte {
	b = append(b, blockHeader...)
	for _, blk := range p.Blocks[:tableRows(len(p.Blocks), max)] {
		start := len(b)
		if blk.Func != "" {
			b = append(append(b, blk.Func...), '+')
		}
		b = pad(isa.AppendHex(b, blk.Start), start, -24)
		b = appendFloat(append(b, ' '), 100*blk.TimeFrac, 1, 6)
		b = appendUint(append(b, "% "...), blk.ExecCount, 12)
		b = appendInt(append(b, ' '), int64(blk.Insts), 8)
		b = appendFloat(append(b, ' '), blk.CPI, 2, 6)
		b = append(b, '\n')
	}
	return b
}

// WriteLineTable prints the hottest source lines.
func WriteLineTable(w io.Writer, p *core.Profile, max int) error {
	b, err := begin(p, "", headerBytes+lineRowBytes*tableRows(len(p.Lines), max))
	if err != nil {
		return err
	}
	return write(w, appendLineTable(b, p, max))
}

var lineHeader = header([]int{-24, 7, 12, 10, 6}, "SOURCE", "TIME%", "EXEC", "SAMPLES", "CPI")

func appendLineTable(b []byte, p *core.Profile, max int) []byte {
	b = append(b, lineHeader...)
	for _, l := range p.Lines[:tableRows(len(p.Lines), max)] {
		start := len(b)
		b = append(b, l.File...)
		b = pad(strconv.AppendInt(append(b, ':'), int64(l.Line), 10), start, -24)
		b = appendFloat(append(b, ' '), 100*l.TimeFrac, 1, 6)
		b = appendCount(append(b, "% "...), l.ExecCount, l.Estimated, 12)
		b = appendUint(append(b, ' '), l.Samples, 10)
		b = appendFloat(append(b, ' '), l.CPI, 2, 6)
		b = append(b, '\n')
	}
	return b
}

var eventHeader = header([]int{-24, 12, 10, 10, 10, 10},
	"FUNCTION", "INSTS", "MISSES", "MPKI", "BR-MISS", "BR-MPKI")

// WriteEventTable prints per-function sampled event rates: cache misses
// and branch mispredicts per kilo-instruction — the "wide range of events"
// perf records beyond the three fields OptiWISE's CPI math needs (§IV-A).
func WriteEventTable(w io.Writer, p *core.Profile) error {
	b, err := begin(p, "", headerBytes+funcRowBytes*len(p.Funcs))
	if err != nil {
		return err
	}
	b = append(b, eventHeader...)
	for _, f := range p.Funcs {
		if f.SelfInsts == 0 {
			continue
		}
		mpki := 1000 * float64(f.CacheMisses) / float64(f.SelfInsts)
		bpki := 1000 * float64(f.Mispredicts) / float64(f.SelfInsts)
		b = appendStr(b, f.Name, -24)
		b = appendUint(append(b, ' '), f.SelfInsts, 12)
		b = appendUint(append(b, ' '), f.CacheMisses, 10)
		b = appendFloat(append(b, ' '), mpki, 2, 10)
		b = appendUint(append(b, ' '), f.Mispredicts, 10)
		b = appendFloat(append(b, ' '), bpki, 2, 10)
		b = append(b, '\n')
	}
	return write(w, b)
}

// annotatedHeader heads both annotated views; INSTRUCTION sits two
// spaces from CPI, as the rows' text does.
var annotatedHeader = header([]int{8, 10, 12, 8, 0}, "OFFSET", "SAMPLES", "EXEC", "CPI", " INSTRUCTION")

// appendInstText appends inst's disassembly, with a direct
// control-transfer target symbolized after it.
func appendInstText(b []byte, prog *program.Program, inst isa.Instruction) []byte {
	b = isa.AppendDisassembly(b, inst)
	switch inst.Op.Kind() {
	case isa.KindBranch, isa.KindJump, isa.KindCall:
		b = prog.AppendTarget(append(b, " -> "...), inst.Target)
	}
	return b
}

// WriteAnnotatedFunc prints the figure 1/10-style annotated disassembly of
// one function: offset, samples, execution count, CPI, and the
// instruction, with symbolized direct targets.
func WriteAnnotatedFunc(w io.Writer, p *core.Profile, name string) error {
	fn, ok := p.Prog.FuncByName(name)
	b, err := begin(p, "", annotatedFuncBytes(fn, name))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("report: no function %q", name)
	}
	return write(w, appendAnnotatedFunc(b, p, fn))
}

func annotatedFuncBytes(fn program.Function, name string) int {
	return len(name) + 2 + headerBytes + instRowBytes*int((fn.Hi-fn.Lo)/isa.InstBytes)
}

func appendAnnotatedFunc(b []byte, p *core.Profile, fn program.Function) []byte {
	b = append(append(b, fn.Name...), ":\n"...)
	b = append(b, annotatedHeader...)
	for off := fn.Lo; off < fn.Hi; off += isa.InstBytes {
		inst, ok := p.Prog.InstAt(off)
		if !ok {
			continue
		}
		start := len(b)
		b = pad(strconv.AppendUint(b, off, 16), start, 8)
		if r, recorded := p.InstAt(off); recorded {
			b = appendUint(append(b, ' '), r.Samples, 10)
			b = appendCount(append(b, ' '), r.ExecCount, r.Estimated, 12)
			b = appendFloat(append(b, ' '), r.CPI, 2, 8)
		} else {
			b = appendStr(append(b, ' '), "-", 10)
			b = appendStr(append(b, ' '), "-", 12)
			b = appendStr(append(b, ' '), "-", 8)
		}
		b = appendInstText(append(b, "  "...), p.Prog, inst)
		b = append(b, '\n')
	}
	return b
}

// WriteAnnotatedLoop prints the annotated disassembly of one merged loop's
// body blocks — the "interesting region" view the paper's loop analysis
// exists to surface quickly.
func WriteAnnotatedLoop(w io.Writer, p *core.Profile, loopID int) error {
	var loop *core.LoopRecord
	for i := range p.Loops {
		if p.Loops[i].ID == loopID {
			loop = &p.Loops[i]
		}
	}
	rows := 0
	if loop != nil {
		for _, start := range loop.BlockStarts {
			if bi := p.Graph.BlockAt(start); bi >= 0 {
				rows += int((p.Graph.Blocks[bi].End - p.Graph.Blocks[bi].Start) / isa.InstBytes)
			}
		}
	}
	b, err := begin(p, "", summaryBytes+headerBytes+instRowBytes*rows)
	if err != nil {
		return err
	}
	if loop == nil {
		return fmt.Errorf("report: no loop %d", loopID)
	}
	b = strconv.AppendInt(append(b, "loop "...), int64(loop.ID), 10)
	b = append(append(b, " in "...), loop.Func...)
	b = isa.AppendHex(append(b, " (header "...), loop.HeaderOffset)
	b = strconv.AppendInt(append(b, ", depth "...), int64(loop.Depth), 10)
	b = strconv.AppendUint(append(b, "): "...), loop.Invocations, 10)
	b = strconv.AppendUint(append(b, " invocations, "...), loop.Iterations, 10)
	b = appendFloat(append(b, " iterations, CPI "...), loop.CPI, 2, 0)
	b = append(b, '\n')
	b = append(b, annotatedHeader...)
	for _, start := range loop.BlockStarts {
		bi := p.Graph.BlockAt(start)
		if bi < 0 {
			continue
		}
		blk := p.Graph.Blocks[bi]
		for off := blk.Start; off < blk.End; off += isa.InstBytes {
			inst, ok := p.Prog.InstAt(off)
			if !ok {
				continue
			}
			r, _ := p.InstAt(off)
			col := len(b)
			b = pad(strconv.AppendUint(b, off, 16), col, 8)
			b = appendUint(append(b, ' '), r.Samples, 10)
			b = appendUint(append(b, ' '), r.ExecCount, 12)
			b = appendFloat(append(b, ' '), r.CPI, 2, 8)
			b = appendInstText(append(b, "  "...), p.Prog, inst)
			b = append(b, '\n')
		}
	}
	return write(w, b)
}

// WriteAll prints the complete report: summary, functions, loops, hottest
// lines, and annotated disassembly of the hottest function. The degraded
// banner — when the profile carries one — appears exactly once, at the
// top, rather than before every section.
func WriteAll(w io.Writer, p *core.Profile) error {
	span := obs.Start("report").SetAttr("module", p.Module)
	defer span.End()
	var phases []phase
	if len(p.Intervals) > 0 {
		phases = mergePhases(p.Intervals)
	}
	hottest := HottestFunc(p)
	fn, found := p.Prog.FuncByName(hottest)
	size := summaryBytes + len(p.Module) + phaseBytes(phases) + 4*headerBytes +
		funcRowBytes*len(p.Funcs) + loopRowBytes*len(p.Loops) +
		blockRowBytes*tableRows(len(p.Blocks), blockRows) +
		lineRowBytes*tableRows(len(p.Lines), lineRows) +
		annotatedFuncBytes(fn, hottest)
	b, err := begin(p, "", size)
	if err != nil {
		return err
	}
	b = appendSummary(b, p)
	// The phase summary renders only when the run collected interval
	// telemetry (Options.Window); default profiles stay
	// byte-identical to earlier releases.
	if len(p.Intervals) > 0 {
		b = appendPhaseSummary(append(b, '\n'), p, phases)
	}
	b = appendFunctionTable(append(b, '\n'), p)
	b = appendLoopTable(append(b, '\n'), p)
	b = appendBlockTable(append(b, '\n'), p, blockRows)
	b = appendLineTable(append(b, '\n'), p, lineRows)
	if len(p.Funcs) > 0 {
		if !found {
			return fmt.Errorf("report: no function %q", hottest)
		}
		b = appendAnnotatedFunc(append(b, '\n'), p, fn)
	}
	return write(w, b)
}

// HottestFunc names the function WriteAll annotates, and the one the
// service's annotated report defaults to: the first with sampled self
// cycles, else the first listed; "" when there is none.
func HottestFunc(p *core.Profile) string {
	for _, f := range p.Funcs {
		if f.SelfCycles > 0 {
			return f.Name
		}
	}
	if len(p.Funcs) > 0 {
		return p.Funcs[0].Name
	}
	return ""
}

// WriteInstCSV exports per-instruction records as CSV. A degraded banner
// is emitted as a "# " comment line so naive CSV consumers that skip
// comments still parse, while anything inspecting the file sees the flag.
func WriteInstCSV(w io.Writer, p *core.Profile) error {
	b, err := begin(p, "# ", headerBytes+instCSVBytes*len(p.Insts))
	if err != nil {
		return err
	}
	// Tiered profiles gain a trailing estimated column; full profiles
	// keep the legacy schema byte-identically.
	b = append(b, "offset,func,file,line,exec,samples,cycles,cpi,disasm"...)
	if p.Tiered {
		b = append(b, ",estimated"...)
	}
	b = append(b, '\n')
	for _, r := range p.Insts {
		b = append(isa.AppendHex(b, r.Offset), ',')
		b = append(append(b, r.Func...), ',')
		b = append(append(b, r.File...), ',')
		b = append(strconv.AppendInt(b, int64(r.Line), 10), ',')
		b = append(strconv.AppendUint(b, r.ExecCount, 10), ',')
		b = append(strconv.AppendUint(b, r.Samples, 10), ',')
		b = append(strconv.AppendUint(b, r.Cycles, 10), ',')
		b = append(appendFloat(b, r.CPI, 4, 0), ',')
		b = strconv.AppendQuote(b, r.Disasm)
		if p.Tiered {
			b = strconv.AppendBool(append(b, ','), r.Estimated)
		}
		b = append(b, '\n')
	}
	return write(w, b)
}

// WriteLoopCSV exports loop records as CSV, with the same "# " degraded
// comment convention as WriteInstCSV.
func WriteLoopCSV(w io.Writer, p *core.Profile) error {
	b, err := begin(p, "# ", headerBytes+loopCSVBytes*len(p.Loops))
	if err != nil {
		return err
	}
	b = append(b, "id,func,header,parent,depth,invocations,iterations,insts_per_iter,cpi,time_frac\n"...)
	for _, l := range p.Loops {
		b = append(strconv.AppendInt(b, int64(l.ID), 10), ',')
		b = append(append(b, l.Func...), ',')
		b = append(isa.AppendHex(b, l.HeaderOffset), ',')
		b = append(strconv.AppendInt(b, int64(l.Parent), 10), ',')
		b = append(strconv.AppendInt(b, int64(l.Depth), 10), ',')
		b = append(strconv.AppendUint(b, l.Invocations, 10), ',')
		b = append(strconv.AppendUint(b, l.Iterations, 10), ',')
		b = append(appendFloat(b, l.InstsPerIter, 2, 0), ',')
		b = append(appendFloat(b, l.CPI, 4, 0), ',')
		b = appendFloat(b, l.TimeFrac, 4, 0)
		b = append(b, '\n')
	}
	return write(w, b)
}
