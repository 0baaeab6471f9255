package report

import (
	"sort"

	"optiwise/internal/core"
	"optiwise/internal/ooo"
)

// Drill-down projection: the JSON data model behind the dashboard's
// function → loop → basic-block → instruction view. The flat record
// tables of a combined profile (core.Export) are re-nested along the
// containment hierarchy — loops attach to their function, blocks to
// their innermost loop (or directly to the function when they belong
// to none), instructions to their block — so the UI expands one level
// at a time without re-deriving structure client-side. Tiered '~'
// estimates and DEGRADED flags ride on every level they apply to, and
// the interval-telemetry stream is folded into dominant-stall phases
// for the IPC/stall chart.

// Drilldown is the GET /v1/jobs/{id}/drilldown body.
type Drilldown struct {
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
	IntervalWindow uint64         `json:"interval_window,omitempty"`
	Phases         []DrillPhase   `json:"phases,omitempty"`
	Intervals      []ooo.Interval `json:"intervals,omitempty"`

	Functions []DrillFunc `json:"functions"`
}

// DrillPhase is one dominant-stall phase of the telemetry stream.
type DrillPhase struct {
	Dominant   string  `json:"dominant"`
	StartCycle uint64  `json:"start_cycle"`
	EndCycle   uint64  `json:"end_cycle"`
	Cycles     uint64  `json:"cycles"`
	Insts      uint64  `json:"insts"`
	IPC        float64 `json:"ipc"`
}

// DrillFunc is one function with its nested loops and loop-free blocks.
type DrillFunc struct {
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

	Loops []DrillLoop `json:"loops,omitempty"`
	// Blocks are the function's basic blocks outside any loop.
	Blocks []DrillBlock `json:"blocks,omitempty"`
}

// DrillLoop is one merged loop with its body blocks. Nested loops stay
// flat (Parent/Depth describe nesting) because a block belongs to its
// innermost loop only.
type DrillLoop struct {
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

	Blocks []DrillBlock `json:"blocks,omitempty"`
}

// DrillBlock is one basic block with its instructions.
type DrillBlock struct {
	Start     uint64  `json:"start"`
	End       uint64  `json:"end"`
	ExecCount uint64  `json:"exec_count"`
	Insts     int     `json:"insts"`
	Samples   uint64  `json:"samples"`
	Cycles    uint64  `json:"cycles"`
	CPI       float64 `json:"cpi"`
	TimeFrac  float64 `json:"time_frac"`

	Instructions []DrillInst `json:"instructions,omitempty"`
}

// DrillInst is one instruction: the paper's headline per-instruction
// CPI with its disassembly and source annotation.
type DrillInst struct {
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

// BuildDrilldown projects a combined profile into the nested
// drill-down model.
func BuildDrilldown(p *core.Profile) *Drilldown {
	exp := p.Export()
	d := &Drilldown{
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
		Functions:      []DrillFunc{},
	}
	if exp.IPC > 0 {
		d.CPI = 1 / exp.IPC
	}
	for _, ph := range mergePhases(exp.Intervals) {
		dp := DrillPhase{
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
	instsByBlock := make(map[uint64][]DrillInst) // block start → insts
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
		di := DrillInst{
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

	blocksByFunc := make(map[string][]DrillBlock) // loop-free blocks
	blocksByLoop := make(map[int][]DrillBlock)
	for _, br := range exp.Blocks {
		db := DrillBlock{
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

	loopsByFunc := make(map[string][]DrillLoop)
	for li, lr := range exp.Loops {
		dl := DrillLoop{
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
		d.Functions = append(d.Functions, DrillFunc{
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
