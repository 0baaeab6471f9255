package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"optiwise/internal/cfg"
	"optiwise/internal/dbi"
	"optiwise/internal/jsonenc"
	"optiwise/internal/ooo"
	"optiwise/internal/program"
)

// Export is the serializable form of a combined profile: the record tables
// and totals, without the program image or CFG (which downstream tools
// reconstruct from the original binary if needed).
type Export struct {
	Module           string  `json:"module"`
	TotalCycles      uint64  `json:"total_cycles"`
	TotalInsts       uint64  `json:"total_instructions"`
	TotalSamples     uint64  `json:"total_samples"`
	SamplePeriod     uint64  `json:"sample_period"`
	UnmatchedSamples uint64  `json:"unmatched_samples,omitempty"`
	IPC              float64 `json:"ipc"`
	Degraded         bool    `json:"degraded,omitempty"`
	FailedPass       string  `json:"failed_pass,omitempty"`
	DegradedReason   string  `json:"degraded_reason,omitempty"`
	// Tiered-mode fields (DESIGN.md §12); all omitempty so exports of
	// full runs are unchanged.
	Tiered    bool        `json:"tiered,omitempty"`
	HotRanges []dbi.Range `json:"hot_ranges,omitempty"`
	ColdInsts uint64      `json:"cold_instructions,omitempty"`
	// Collection metadata (see Profile): lets differential analysis
	// refuse incomparable pairs. All omitempty so exports written before
	// these fields existed decode (and re-encode) unchanged.
	Machine        string `json:"machine,omitempty"`
	Precise        bool   `json:"precise,omitempty"`
	Unweighted     bool   `json:"unweighted,omitempty"`
	Attribution    string `json:"attribution,omitempty"`
	LoopThreshold  uint64 `json:"loop_threshold,omitempty"`
	StackProfiling bool   `json:"stack_profiling,omitempty"`
	// Intervals is the opt-in cycle-windowed core telemetry stream;
	// omitted when telemetry was disabled, keeping legacy exports
	// byte-identical.
	Intervals      []ooo.Interval `json:"intervals,omitempty"`
	IntervalWindow uint64         `json:"interval_window,omitempty"`
	Insts          []InstRecord   `json:"instructions"`
	Blocks         []BlockRecord  `json:"blocks"`
	Funcs          []FuncRecord   `json:"functions"`
	Loops          []LoopRecord   `json:"loops"`
	Lines          []LineRecord   `json:"lines"`
}

// Export returns the profile's serializable form. The record slices are
// shared, not copied — treat the result as a read-only view.
func (p *Profile) Export() *Export {
	return &Export{
		Module:           p.Module,
		TotalCycles:      p.TotalCycles,
		TotalInsts:       p.TotalInsts,
		TotalSamples:     p.TotalSamples,
		SamplePeriod:     p.SamplePeriod,
		UnmatchedSamples: p.UnmatchedSamples,
		IPC:              p.IPC,
		Degraded:         p.Degraded,
		FailedPass:       p.FailedPass,
		DegradedReason:   p.DegradedReason,
		Tiered:           p.Tiered,
		HotRanges:        p.HotRanges,
		ColdInsts:        p.ColdInsts,
		Machine:          p.Machine,
		Precise:          p.Precise,
		Unweighted:       p.Unweighted,
		Attribution:      p.Attribution,
		LoopThreshold:    p.LoopThreshold,
		StackProfiling:   p.StackProfiling,
		Intervals:        p.Intervals,
		IntervalWindow:   p.IntervalWindow,
		Insts:            p.Insts,
		Blocks:           p.Blocks,
		Funcs:            p.Funcs,
		Loops:            p.Loops,
		Lines:            p.Lines,
	}
}

// WriteJSON serializes the profile's analysis results: its Export,
// byte for byte as json.NewEncoder(w).Encode(p.Export()) writes it, in
// one Write of AppendJSON's buffer. A profile holding a NaN or infinite
// float is refused with encoding/json's error, and nothing is written.
func (p *Profile) WriteJSON(w io.Writer) error {
	b, err := p.AppendJSON(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendJSON appends WriteJSON's bytes to dst, growing it once, by the
// size a first pass measures. On error dst is returned unchanged.
func (p *Profile) AppendJSON(dst []byte) ([]byte, error) {
	var d jsonenc.Doc
	var scratch [1024]byte
	size, err := d.Sized(p.appendJSON(scratch[:0], &d))
	if err != nil {
		return dst, err
	}
	return p.appendJSON(jsonenc.Grow(dst, size), &d), nil
}

// appendJSON appends the Export's members in its declaration order,
// omitting what its omitempty tags omit, and the Encoder's newline.
func (p *Profile) appendJSON(b []byte, d *jsonenc.Doc) []byte {
	b = append(b, `{"module":`...)
	b = jsonenc.AppendString(b, p.Module)
	b = strconv.AppendUint(append(b, `,"total_cycles":`...), p.TotalCycles, 10)
	b = strconv.AppendUint(append(b, `,"total_instructions":`...), p.TotalInsts, 10)
	b = strconv.AppendUint(append(b, `,"total_samples":`...), p.TotalSamples, 10)
	b = strconv.AppendUint(append(b, `,"sample_period":`...), p.SamplePeriod, 10)
	if p.UnmatchedSamples != 0 {
		b = strconv.AppendUint(append(b, `,"unmatched_samples":`...), p.UnmatchedSamples, 10)
	}
	b = d.Float(append(b, `,"ipc":`...), p.IPC)
	if p.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if p.FailedPass != "" {
		b = jsonenc.AppendString(append(b, `,"failed_pass":`...), p.FailedPass)
	}
	if p.DegradedReason != "" {
		b = jsonenc.AppendString(append(b, `,"degraded_reason":`...), p.DegradedReason)
	}
	if p.Tiered {
		b = append(b, `,"tiered":true`...)
	}
	if len(p.HotRanges) > 0 {
		b = append(b, `,"hot_ranges":[`...)
		for i, r := range p.HotRanges {
			b = strconv.AppendUint(append(jsonenc.Elem(b, 0, i), `{"lo":`...), r.Lo, 10)
			b = strconv.AppendUint(append(b, `,"hi":`...), r.Hi, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if p.ColdInsts != 0 {
		b = strconv.AppendUint(append(b, `,"cold_instructions":`...), p.ColdInsts, 10)
	}
	if p.Machine != "" {
		b = jsonenc.AppendString(append(b, `,"machine":`...), p.Machine)
	}
	if p.Precise {
		b = append(b, `,"precise":true`...)
	}
	if p.Unweighted {
		b = append(b, `,"unweighted":true`...)
	}
	if p.Attribution != "" {
		b = jsonenc.AppendString(append(b, `,"attribution":`...), p.Attribution)
	}
	if p.LoopThreshold != 0 {
		b = strconv.AppendUint(append(b, `,"loop_threshold":`...), p.LoopThreshold, 10)
	}
	if p.StackProfiling {
		b = append(b, `,"stack_profiling":true`...)
	}
	if len(p.Intervals) > 0 {
		b = append(b, `,"intervals":[`...)
		for i := range p.Intervals {
			b = d.Flush(p.Intervals[i].AppendJSON(jsonenc.Elem(b, 0, i), 0, d))
		}
		b = append(b, ']')
	}
	if p.IntervalWindow != 0 {
		b = strconv.AppendUint(append(b, `,"interval_window":`...), p.IntervalWindow, 10)
	}
	// The tables, each null when nil. Every row ends a stretch (Doc.Flush).
	b = append(b, `,"instructions":`...)
	if p.Insts == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Insts {
			b = d.Flush(p.Insts[i].appendJSON(jsonenc.Elem(b, 0, i), d))
		}
		b = append(b, ']')
	}
	b = append(b, `,"blocks":`...)
	if p.Blocks == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Blocks {
			b = d.Flush(p.Blocks[i].appendJSON(jsonenc.Elem(b, 0, i), d))
		}
		b = append(b, ']')
	}
	b = append(b, `,"functions":`...)
	if p.Funcs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Funcs {
			b = d.Flush(p.Funcs[i].appendJSON(jsonenc.Elem(b, 0, i), d))
		}
		b = append(b, ']')
	}
	b = append(b, `,"loops":`...)
	if p.Loops == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Loops {
			b = d.Flush(p.Loops[i].appendJSON(jsonenc.Elem(b, 0, i), d))
		}
		b = append(b, ']')
	}
	b = append(b, `,"lines":`...)
	if p.Lines == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Lines {
			b = d.Flush(p.Lines[i].appendJSON(jsonenc.Elem(b, 0, i), d))
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// The records carry no json tags: each member is named after its field.

func (r *InstRecord) appendJSON(b []byte, d *jsonenc.Doc) []byte {
	b = strconv.AppendUint(append(b, `{"Offset":`...), r.Offset, 10)
	b = strconv.AppendUint(append(b, `,"Inst":{"Op":`...), uint64(r.Inst.Op), 10)
	b = strconv.AppendUint(append(b, `,"Rd":`...), uint64(r.Inst.Rd), 10)
	b = strconv.AppendUint(append(b, `,"Rs":`...), uint64(r.Inst.Rs), 10)
	b = strconv.AppendUint(append(b, `,"Rt":`...), uint64(r.Inst.Rt), 10)
	b = strconv.AppendInt(append(b, `,"Imm":`...), r.Inst.Imm, 10)
	b = strconv.AppendUint(append(b, `,"Target":`...), r.Inst.Target, 10)
	b = jsonenc.AppendString(append(b, `},"Disasm":`...), r.Disasm)
	b = jsonenc.AppendString(append(b, `,"Func":`...), r.Func)
	b = jsonenc.AppendString(append(b, `,"File":`...), r.File)
	b = strconv.AppendInt(append(b, `,"Line":`...), int64(r.Line), 10)
	b = strconv.AppendUint(append(b, `,"ExecCount":`...), r.ExecCount, 10)
	b = strconv.AppendUint(append(b, `,"Samples":`...), r.Samples, 10)
	b = strconv.AppendUint(append(b, `,"Cycles":`...), r.Cycles, 10)
	b = strconv.AppendUint(append(b, `,"CacheMisses":`...), r.CacheMisses, 10)
	b = strconv.AppendUint(append(b, `,"Mispredicts":`...), r.Mispredicts, 10)
	b = d.Float(append(b, `,"CPI":`...), r.CPI)
	if r.Estimated {
		b = append(b, `,"Estimated":true`...)
	}
	return append(b, '}')
}

func (r *FuncRecord) appendJSON(b []byte, d *jsonenc.Doc) []byte {
	b = jsonenc.AppendString(append(b, `{"Name":`...), r.Name)
	b = strconv.AppendUint(append(b, `,"Lo":`...), r.Lo, 10)
	b = strconv.AppendUint(append(b, `,"SelfCycles":`...), r.SelfCycles, 10)
	b = strconv.AppendUint(append(b, `,"TotalCycles":`...), r.TotalCycles, 10)
	b = strconv.AppendUint(append(b, `,"SelfSamples":`...), r.SelfSamples, 10)
	b = strconv.AppendUint(append(b, `,"SelfInsts":`...), r.SelfInsts, 10)
	b = strconv.AppendUint(append(b, `,"TotalInsts":`...), r.TotalInsts, 10)
	b = strconv.AppendUint(append(b, `,"CacheMisses":`...), r.CacheMisses, 10)
	b = strconv.AppendUint(append(b, `,"Mispredicts":`...), r.Mispredicts, 10)
	b = d.Float(append(b, `,"CPI":`...), r.CPI)
	b = d.Float(append(b, `,"IPC":`...), r.IPC)
	b = d.Float(append(b, `,"TimeFrac":`...), r.TimeFrac)
	if r.Estimated {
		b = append(b, `,"Estimated":true`...)
	}
	return append(b, '}')
}

func (r *LoopRecord) appendJSON(b []byte, d *jsonenc.Doc) []byte {
	b = strconv.AppendInt(append(b, `{"ID":`...), int64(r.ID), 10)
	b = jsonenc.AppendString(append(b, `,"Func":`...), r.Func)
	b = strconv.AppendUint(append(b, `,"HeaderOffset":`...), r.HeaderOffset, 10)
	b = strconv.AppendInt(append(b, `,"Parent":`...), int64(r.Parent), 10)
	b = strconv.AppendInt(append(b, `,"Depth":`...), int64(r.Depth), 10)
	b = append(b, `,"BlockStarts":`...)
	if r.BlockStarts == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, s := range r.BlockStarts {
			b = strconv.AppendUint(jsonenc.Elem(b, 0, i), s, 10)
		}
		b = append(b, ']')
	}
	b = jsonenc.AppendString(append(b, `,"File":`...), r.File)
	b = strconv.AppendInt(append(b, `,"StartLine":`...), int64(r.StartLine), 10)
	b = strconv.AppendInt(append(b, `,"EndLine":`...), int64(r.EndLine), 10)
	b = strconv.AppendUint(append(b, `,"Invocations":`...), r.Invocations, 10)
	b = strconv.AppendUint(append(b, `,"Iterations":`...), r.Iterations, 10)
	b = strconv.AppendUint(append(b, `,"BackEdgeFreq":`...), r.BackEdgeFreq, 10)
	b = strconv.AppendUint(append(b, `,"SelfCycles":`...), r.SelfCycles, 10)
	b = strconv.AppendUint(append(b, `,"TotalCycles":`...), r.TotalCycles, 10)
	b = strconv.AppendUint(append(b, `,"SelfInsts":`...), r.SelfInsts, 10)
	b = strconv.AppendUint(append(b, `,"TotalInsts":`...), r.TotalInsts, 10)
	b = d.Float(append(b, `,"CPI":`...), r.CPI)
	b = d.Float(append(b, `,"InstsPerIter":`...), r.InstsPerIter)
	b = d.Float(append(b, `,"TimeFrac":`...), r.TimeFrac)
	return append(b, '}')
}

func (r *BlockRecord) appendJSON(b []byte, d *jsonenc.Doc) []byte {
	b = strconv.AppendUint(append(b, `{"Start":`...), r.Start, 10)
	b = strconv.AppendUint(append(b, `,"End":`...), r.End, 10)
	b = jsonenc.AppendString(append(b, `,"Func":`...), r.Func)
	b = strconv.AppendUint(append(b, `,"ExecCount":`...), r.ExecCount, 10)
	b = strconv.AppendInt(append(b, `,"Insts":`...), int64(r.Insts), 10)
	b = strconv.AppendUint(append(b, `,"Samples":`...), r.Samples, 10)
	b = strconv.AppendUint(append(b, `,"Cycles":`...), r.Cycles, 10)
	b = d.Float(append(b, `,"CPI":`...), r.CPI)
	b = d.Float(append(b, `,"TimeFrac":`...), r.TimeFrac)
	return append(b, '}')
}

func (r *LineRecord) appendJSON(b []byte, d *jsonenc.Doc) []byte {
	b = jsonenc.AppendString(append(b, `{"File":`...), r.File)
	b = strconv.AppendInt(append(b, `,"Line":`...), int64(r.Line), 10)
	b = strconv.AppendUint(append(b, `,"ExecCount":`...), r.ExecCount, 10)
	b = strconv.AppendUint(append(b, `,"Samples":`...), r.Samples, 10)
	b = strconv.AppendUint(append(b, `,"Cycles":`...), r.Cycles, 10)
	b = d.Float(append(b, `,"CPI":`...), r.CPI)
	b = d.Float(append(b, `,"TimeFrac":`...), r.TimeFrac)
	if r.Estimated {
		b = append(b, `,"Estimated":true`...)
	}
	return append(b, '}')
}

// ReadExport deserializes a profile written by WriteJSON. The result
// carries the record tables only; methods requiring the program image
// (InstAt disassembly context is embedded in records already) work on the
// tables alone.
func ReadExport(r io.Reader) (*Export, error) {
	var e Export
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("core: decode export: %w", err)
	}
	return &e, nil
}

// FromExport rebuilds a full Profile from its serialized form plus the
// program image (which the export deliberately omits) and an optional
// CFG. The cluster layer uses it to reconstitute a result fetched from
// a sibling node's cache: the fetching node already holds the program —
// the content address is derived from it — so only the analysis tables
// and the flattened CFG travel over the wire. The lookup indexes the
// combiner builds (InstAt, FuncByName) are reindexed from the tables,
// making the reconstruction behaviorally identical to the original for
// every renderer and API consumer.
func FromExport(e *Export, prog *program.Program, g *cfg.Graph) *Profile {
	p := &Profile{
		Module:           e.Module,
		Prog:             prog,
		Graph:            g,
		Degraded:         e.Degraded,
		FailedPass:       e.FailedPass,
		DegradedReason:   e.DegradedReason,
		Tiered:           e.Tiered,
		HotRanges:        e.HotRanges,
		ColdInsts:        e.ColdInsts,
		TotalCycles:      e.TotalCycles,
		TotalInsts:       e.TotalInsts,
		TotalSamples:     e.TotalSamples,
		SamplePeriod:     e.SamplePeriod,
		UnmatchedSamples: e.UnmatchedSamples,
		IPC:              e.IPC,
		Machine:          e.Machine,
		Precise:          e.Precise,
		Unweighted:       e.Unweighted,
		Attribution:      e.Attribution,
		LoopThreshold:    e.LoopThreshold,
		StackProfiling:   e.StackProfiling,
		Intervals:        e.Intervals,
		IntervalWindow:   e.IntervalWindow,
		Insts:            e.Insts,
		Blocks:           e.Blocks,
		Funcs:            e.Funcs,
		Loops:            e.Loops,
		Lines:            e.Lines,
		instIndex:        make(map[uint64]int, len(e.Insts)),
		funcIndex:        make(map[string]int, len(e.Funcs)),
	}
	for i := range p.Insts {
		p.instIndex[p.Insts[i].Offset] = i
	}
	for i := range p.Funcs {
		p.funcIndex[p.Funcs[i].Name] = i
	}
	return p
}
