package report

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"

	"optiwise/internal/core"
	"optiwise/internal/jsonenc"
)

// Drill-down projection: the JSON body behind the dashboard's
// function → loop → basic-block → instruction view. The flat record
// tables of a combined profile are re-nested along the containment
// hierarchy — loops attach to their function, blocks to their innermost
// loop (or directly to the function when they belong to none),
// instructions to their block — so the UI expands one level at a time
// without re-deriving structure client-side. Tiered '~' estimates and
// DEGRADED flags ride on every level they apply to, and the
// interval-telemetry stream is folded into dominant-stall phases for
// the IPC/stall chart.
//
// The body is one object:
//
//	module, machine, total_cycles, total_insts, total_samples, ipc, cpi
//	degraded, degraded_note, tiered, tiered_note    (when set)
//	interval_window, phases, intervals              (windowed runs only)
//	functions: [{name, lo, self_cycles, total_cycles, self_insts,
//	    total_insts, cpi, ipc, time_frac, estimated?,
//	    loops?: [{id, header_offset, parent, depth, file?, start_line?,
//	        end_line?, invocations, iterations, self_cycles, total_cycles,
//	        self_insts, total_insts, cpi, insts_per_iter, time_frac, blocks?}],
//	    blocks?: [...]}]                            (loop-free blocks)
//	block: {start, end, exec_count, insts, samples, cycles, cpi,
//	    time_frac, instructions?: [{offset, disasm, file?, line?,
//	    exec_count, samples, cycles, cache_misses?, mispredicts?, cpi,
//	    estimated?}]}
//	phase: {dominant, start_cycle, end_cycle, cycles, insts, ipc}
//
// where a member marked ? is omitted when zero or empty. Nested loops
// stay flat (parent and depth describe nesting) because a block belongs
// to its innermost loop only.

// WriteDrilldown writes p's drill-down body, indented by two spaces as
// encoding/json's Encoder indents after SetIndent("", "  "), in one
// Write of AppendDrilldown's buffer. A profile holding a NaN or
// infinite float is refused with encoding/json's error, and nothing is
// written.
func WriteDrilldown(w io.Writer, p *core.Profile) error {
	b, err := AppendDrilldown(nil, p)
	if err != nil {
		return err
	}
	return write(w, b)
}

// AppendDrilldown appends WriteDrilldown's bytes to dst, growing it
// once, by the size a first pass measures. On error dst is returned
// unchanged.
func AppendDrilldown(dst []byte, p *core.Profile) ([]byte, error) {
	d := nestDrilldown(p)
	var scratch [4096]byte
	size, err := d.doc.Sized(d.appendJSON(scratch[:0]))
	if err != nil {
		return dst, err
	}
	return d.appendJSON(jsonenc.Grow(dst, size)), nil
}

// drilldown links p's tables into the containment hierarchy. Each
// level is an index list in table order: a head per parent and a next
// per child, -1 ending both. Function names and block starts are
// unique within a profile.
type drilldown struct {
	doc              jsonenc.Doc
	p                *core.Profile
	degraded, tiered string // the banner notes
	funcLoops        []int32
	funcBlocks       []int32 // blocks outside every loop
	loopBlocks       []int32
	blockInsts       []int32
	nextLoop         []int32
	nextBlock        []int32
	nextInst         []int32
}

func nestDrilldown(p *core.Profile) drilldown {
	nI, nB, nL, nF := len(p.Insts), len(p.Blocks), len(p.Loops), len(p.Funcs)
	idx := make([]int32, nI+4*nB+2*nL+3*nF)
	take := func(n int) []int32 {
		s := idx[:n:n]
		idx = idx[n:]
		return s
	}
	d := drilldown{
		p:          p,
		degraded:   degradedNote(p),
		tiered:     tieredNote(p),
		funcLoops:  take(nF),
		funcBlocks: take(nF),
		loopBlocks: take(nL),
		blockInsts: take(nB),
		nextLoop:   take(nL),
		nextBlock:  take(nB),
		nextInst:   take(nI),
	}
	for _, heads := range [][]int32{d.funcLoops, d.funcBlocks, d.loopBlocks, d.blockInsts} {
		for i := range heads {
			heads[i] = -1
		}
	}

	// Blocks by start and functions by name, for lookups.
	byStart, byName, owner := take(nB), take(nF), take(nB)
	for i := range byStart {
		byStart[i] = int32(i)
	}
	slices.SortFunc(byStart, func(a, b int32) int { return cmp.Compare(p.Blocks[a].Start, p.Blocks[b].Start) })
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(p.Funcs[a].Name, p.Funcs[b].Name) })
	// blockAt returns the block whose start is the last at or before off.
	blockAt := func(off uint64) int32 {
		lo, hi := 0, len(byStart)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); p.Blocks[byStart[m]].Start <= off {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == 0 {
			return -1
		}
		return byStart[lo-1]
	}
	funcNamed := func(name string) int32 {
		i, ok := slices.BinarySearchFunc(byName, name, func(f int32, name string) int {
			return strings.Compare(p.Funcs[f].Name, name)
		})
		if !ok {
			return -1
		}
		return byName[i]
	}

	// A block belongs to the deepest loop listing its start (the first
	// such loop among equals).
	for i := range owner {
		owner[i] = -1
	}
	for l := range p.Loops {
		lr := &p.Loops[l]
		for _, bs := range lr.BlockStarts {
			b := blockAt(bs)
			if b < 0 || p.Blocks[b].Start != bs {
				continue
			}
			if o := owner[b]; o < 0 || p.Loops[o].Depth < lr.Depth {
				owner[b] = int32(l)
			}
		}
	}

	// Build each list back to front, so it reads in table order.
	for i := nI - 1; i >= 0; i-- {
		off := p.Insts[i].Offset
		if b := blockAt(off); b >= 0 && off < p.Blocks[b].End {
			d.nextInst[i], d.blockInsts[b] = d.blockInsts[b], int32(i)
		}
	}
	for b := nB - 1; b >= 0; b-- {
		if l := owner[b]; l >= 0 {
			d.nextBlock[b], d.loopBlocks[l] = d.loopBlocks[l], int32(b)
		} else if f := funcNamed(p.Blocks[b].Func); f >= 0 {
			d.nextBlock[b], d.funcBlocks[f] = d.funcBlocks[f], int32(b)
		}
	}
	for l := nL - 1; l >= 0; l-- {
		if f := funcNamed(p.Loops[l].Func); f >= 0 {
			d.nextLoop[l], d.funcLoops[f] = d.funcLoops[f], int32(l)
		}
	}
	return d
}

// appendJSON appends the body and the Encoder's newline. The root's
// members sit at depth 1, a function's at 3, a loop's at 5; a block's
// at 2 more than its list's key, an instruction's 2 more again.
func (d *drilldown) appendJSON(b []byte) []byte {
	p := d.p
	b = jsonenc.Key(append(b, '{'), 1, true, "module")
	b = jsonenc.AppendString(b, p.Module)
	b = jsonenc.AppendString(jsonenc.Key(b, 1, false, "machine"), p.Machine)
	b = strconv.AppendUint(jsonenc.Key(b, 1, false, "total_cycles"), p.TotalCycles, 10)
	b = strconv.AppendUint(jsonenc.Key(b, 1, false, "total_insts"), p.TotalInsts, 10)
	b = strconv.AppendUint(jsonenc.Key(b, 1, false, "total_samples"), p.TotalSamples, 10)
	b = d.doc.Float(jsonenc.Key(b, 1, false, "ipc"), p.IPC)
	cpi := 0.0
	if p.IPC > 0 {
		cpi = 1 / p.IPC
	}
	b = d.doc.Float(jsonenc.Key(b, 1, false, "cpi"), cpi)
	if p.Degraded {
		b = append(jsonenc.Key(b, 1, false, "degraded"), "true"...)
	}
	if d.degraded != "" {
		b = jsonenc.AppendString(jsonenc.Key(b, 1, false, "degraded_note"), d.degraded)
	}
	if p.Tiered {
		b = append(jsonenc.Key(b, 1, false, "tiered"), "true"...)
	}
	if d.tiered != "" {
		b = jsonenc.AppendString(jsonenc.Key(b, 1, false, "tiered_note"), d.tiered)
	}
	if p.IntervalWindow != 0 {
		b = strconv.AppendUint(jsonenc.Key(b, 1, false, "interval_window"), p.IntervalWindow, 10)
	}
	if len(p.Intervals) > 0 {
		b = append(jsonenc.Key(b, 1, false, "phases"), '[')
		for i, ivs := 0, p.Intervals; len(ivs) > 0; i++ {
			var ph phase
			ph, ivs = nextPhase(ivs)
			b = jsonenc.Key(append(jsonenc.Elem(b, 2, i), '{'), 3, true, "dominant")
			b = jsonenc.AppendString(b, ph.dominant)
			b = strconv.AppendUint(jsonenc.Key(b, 3, false, "start_cycle"), ph.start, 10)
			b = strconv.AppendUint(jsonenc.Key(b, 3, false, "end_cycle"), ph.end, 10)
			b = strconv.AppendUint(jsonenc.Key(b, 3, false, "cycles"), ph.cycles, 10)
			b = strconv.AppendUint(jsonenc.Key(b, 3, false, "insts"), ph.insts, 10)
			ipc := 0.0
			if ph.cycles > 0 {
				ipc = float64(ph.insts) / float64(ph.cycles)
			}
			b = d.doc.Float(jsonenc.Key(b, 3, false, "ipc"), ipc)
			b = d.doc.Flush(jsonenc.End(b, 3, false, '}'))
		}
		b = jsonenc.End(b, 2, false, ']')
		b = append(jsonenc.Key(b, 1, false, "intervals"), '[')
		for i := range p.Intervals {
			b = d.doc.Flush(p.Intervals[i].AppendJSON(jsonenc.Elem(b, 2, i), 3, &d.doc))
		}
		b = jsonenc.End(b, 2, false, ']')
	}
	b = append(jsonenc.Key(b, 1, false, "functions"), '[')
	for f := range p.Funcs {
		b = d.appendFunc(jsonenc.Elem(b, 2, f), f)
	}
	b = jsonenc.End(b, 2, len(p.Funcs) == 0, ']')
	return append(jsonenc.End(b, 1, false, '}'), '\n')
}

func (d *drilldown) appendFunc(b []byte, f int) []byte {
	const m = 3
	fr := &d.p.Funcs[f]
	b = jsonenc.Key(append(b, '{'), m, true, "name")
	b = jsonenc.AppendString(b, fr.Name)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "lo"), fr.Lo, 10)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "self_cycles"), fr.SelfCycles, 10)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "total_cycles"), fr.TotalCycles, 10)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "self_insts"), fr.SelfInsts, 10)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "total_insts"), fr.TotalInsts, 10)
	b = d.doc.Float(jsonenc.Key(b, m, false, "cpi"), fr.CPI)
	b = d.doc.Float(jsonenc.Key(b, m, false, "ipc"), fr.IPC)
	b = d.doc.Float(jsonenc.Key(b, m, false, "time_frac"), fr.TimeFrac)
	if fr.Estimated {
		b = append(jsonenc.Key(b, m, false, "estimated"), "true"...)
	}
	b = d.doc.Flush(b)
	if l := d.funcLoops[f]; l >= 0 {
		b = append(jsonenc.Key(b, m, false, "loops"), '[')
		for i := 0; l >= 0; l, i = d.nextLoop[l], i+1 {
			b = d.appendLoop(jsonenc.Elem(b, m+1, i), l)
		}
		b = jsonenc.End(b, m+1, false, ']')
	}
	b = d.appendBlocks(b, d.funcBlocks[f], m)
	return d.doc.Flush(jsonenc.End(b, m, false, '}'))
}

func (d *drilldown) appendLoop(b []byte, l int32) []byte {
	const m = 5
	lr := &d.p.Loops[l]
	b = jsonenc.Key(append(b, '{'), m, true, "id")
	b = strconv.AppendInt(b, int64(lr.ID), 10)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "header_offset"), lr.HeaderOffset, 10)
	b = strconv.AppendInt(jsonenc.Key(b, m, false, "parent"), int64(lr.Parent), 10)
	b = strconv.AppendInt(jsonenc.Key(b, m, false, "depth"), int64(lr.Depth), 10)
	if lr.File != "" {
		b = jsonenc.AppendString(jsonenc.Key(b, m, false, "file"), lr.File)
	}
	if lr.StartLine != 0 {
		b = strconv.AppendInt(jsonenc.Key(b, m, false, "start_line"), int64(lr.StartLine), 10)
	}
	if lr.EndLine != 0 {
		b = strconv.AppendInt(jsonenc.Key(b, m, false, "end_line"), int64(lr.EndLine), 10)
	}
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "invocations"), lr.Invocations, 10)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "iterations"), lr.Iterations, 10)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "self_cycles"), lr.SelfCycles, 10)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "total_cycles"), lr.TotalCycles, 10)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "self_insts"), lr.SelfInsts, 10)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "total_insts"), lr.TotalInsts, 10)
	b = d.doc.Float(jsonenc.Key(b, m, false, "cpi"), lr.CPI)
	b = d.doc.Float(jsonenc.Key(b, m, false, "insts_per_iter"), lr.InstsPerIter)
	b = d.doc.Float(jsonenc.Key(b, m, false, "time_frac"), lr.TimeFrac)
	b = d.appendBlocks(d.doc.Flush(b), d.loopBlocks[l], m)
	return d.doc.Flush(jsonenc.End(b, m, false, '}'))
}

// appendBlocks appends the member blocks, at depth m, listing the
// blocks from b0 on; nothing when the list is empty.
func (d *drilldown) appendBlocks(b []byte, b0 int32, m int) []byte {
	if b0 < 0 {
		return b
	}
	b = append(jsonenc.Key(b, m, false, "blocks"), '[')
	bm, im := m+2, m+4 // a block's members, an instruction's
	for i, blk := 0, b0; blk >= 0; i, blk = i+1, d.nextBlock[blk] {
		br := &d.p.Blocks[blk]
		b = jsonenc.Key(append(jsonenc.Elem(b, m+1, i), '{'), bm, true, "start")
		b = strconv.AppendUint(b, br.Start, 10)
		b = strconv.AppendUint(jsonenc.Key(b, bm, false, "end"), br.End, 10)
		b = strconv.AppendUint(jsonenc.Key(b, bm, false, "exec_count"), br.ExecCount, 10)
		b = strconv.AppendInt(jsonenc.Key(b, bm, false, "insts"), int64(br.Insts), 10)
		b = strconv.AppendUint(jsonenc.Key(b, bm, false, "samples"), br.Samples, 10)
		b = strconv.AppendUint(jsonenc.Key(b, bm, false, "cycles"), br.Cycles, 10)
		b = d.doc.Float(jsonenc.Key(b, bm, false, "cpi"), br.CPI)
		b = d.doc.Float(jsonenc.Key(b, bm, false, "time_frac"), br.TimeFrac)
		b = d.doc.Flush(b)
		if in := d.blockInsts[blk]; in >= 0 {
			b = append(jsonenc.Key(b, bm, false, "instructions"), '[')
			for j := 0; in >= 0; j, in = j+1, d.nextInst[in] {
				b = d.doc.Flush(d.appendInst(jsonenc.Elem(b, bm+1, j), &d.p.Insts[in], im))
			}
			b = jsonenc.End(b, bm+1, false, ']')
		}
		b = jsonenc.End(b, bm, false, '}')
	}
	return jsonenc.End(b, m+1, false, ']')
}

func (d *drilldown) appendInst(b []byte, ir *core.InstRecord, m int) []byte {
	b = jsonenc.Key(append(b, '{'), m, true, "offset")
	b = strconv.AppendUint(b, ir.Offset, 10)
	b = jsonenc.AppendString(jsonenc.Key(b, m, false, "disasm"), ir.Disasm)
	if ir.File != "" {
		b = jsonenc.AppendString(jsonenc.Key(b, m, false, "file"), ir.File)
	}
	if ir.Line != 0 {
		b = strconv.AppendInt(jsonenc.Key(b, m, false, "line"), int64(ir.Line), 10)
	}
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "exec_count"), ir.ExecCount, 10)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "samples"), ir.Samples, 10)
	b = strconv.AppendUint(jsonenc.Key(b, m, false, "cycles"), ir.Cycles, 10)
	if ir.CacheMisses != 0 {
		b = strconv.AppendUint(jsonenc.Key(b, m, false, "cache_misses"), ir.CacheMisses, 10)
	}
	if ir.Mispredicts != 0 {
		b = strconv.AppendUint(jsonenc.Key(b, m, false, "mispredicts"), ir.Mispredicts, 10)
	}
	b = d.doc.Float(jsonenc.Key(b, m, false, "cpi"), ir.CPI)
	if ir.Estimated {
		b = append(jsonenc.Key(b, m, false, "estimated"), "true"...)
	}
	return jsonenc.End(b, m, false, '}')
}
