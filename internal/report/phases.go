package report

import (
	"io"
	"strconv"
	"unicode/utf8"

	"optiwise/internal/core"
	"optiwise/internal/ooo"
)

// Phase summary: the text-report rendering of the opt-in interval
// telemetry stream (Options.Window). An IPC sparkline gives the
// run's shape at a glance; below it, consecutive windows sharing a
// dominant stall cause merge into "phases" — the same merging idea the
// paper applies to loops (§IV-E), applied on the time axis — so a run
// that alternates between a memory-bound and a compute-bound region
// reads as exactly that, not as a wall of numbers.

// sparkRunes are the eight block-element levels of a sparkline cell.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// appendSparkline appends vals scaled against their maximum as at most
// width cells, downsampling by averaging fixed-size groups when
// necessary. An all-zero series renders as all-minimum cells.
func appendSparkline(b []byte, vals []float64, width int) []byte {
	if len(vals) == 0 || width <= 0 {
		return b
	}
	if len(vals) > width {
		grouped := make([]float64, 0, width)
		per := (len(vals) + width - 1) / width
		for i := 0; i < len(vals); i += per {
			end := i + per
			if end > len(vals) {
				end = len(vals)
			}
			sum := 0.0
			for _, v := range vals[i:end] {
				sum += v
			}
			grouped = append(grouped, sum/float64(end-i))
		}
		vals = grouped
	}
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	for _, v := range vals {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(sparkRunes)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		b = utf8.AppendRune(b, sparkRunes[idx])
	}
	return b
}

// phase is a run of consecutive intervals sharing a dominant stall cause.
type phase struct {
	dominant string
	start    uint64 // first interval's start cycle
	end      uint64 // last interval's end cycle (exclusive)
	cycles   uint64
	insts    uint64

	branches    uint64
	mispredicts uint64
	l1Hits      uint64
	l1Misses    uint64
}

// mergePhases folds the interval stream into phases by dominant stall.
func mergePhases(ivs []ooo.Interval) []phase {
	var out []phase
	for len(ivs) > 0 {
		var p phase
		p, ivs = nextPhase(ivs)
		out = append(out, p)
	}
	return out
}

// nextPhase folds the leading run of ivs (at least one interval) that
// shares a dominant stall into one phase, and returns the rest.
func nextPhase(ivs []ooo.Interval) (phase, []ooo.Interval) {
	p := phase{dominant: ivs[0].Stalls.Dominant(), start: ivs[0].Start}
	i := 0
	for ; i < len(ivs) && (i == 0 || ivs[i].Stalls.Dominant() == p.dominant); i++ {
		iv := &ivs[i]
		p.end = iv.Start + iv.Cycles
		p.cycles += iv.Cycles
		p.insts += iv.Instructions
		p.branches += iv.Branches
		p.mispredicts += iv.Mispredicts
		if len(iv.Cache) > 0 {
			p.l1Hits += iv.Cache[0].Hits
			p.l1Misses += iv.Cache[0].Misses
		}
	}
	return p, ivs[i:]
}

// WritePhaseSummary prints the interval-telemetry phase summary: an IPC
// sparkline over the run followed by one row per dominant-stall phase.
// Profiles collected without a telemetry window produce a one-line note.
func WritePhaseSummary(w io.Writer, p *core.Profile) error {
	phases := mergePhases(p.Intervals)
	b, err := begin(p, "", phaseBytes(phases))
	if err != nil {
		return err
	}
	return write(w, appendPhaseSummary(b, p, phases))
}

// phaseBytes presizes a phase summary: its header lines, the sparkline
// and one row per phase.
func phaseBytes(phases []phase) int {
	return 4*headerBytes + phaseRowBytes*len(phases)
}

const phaseRowBytes = 80

var phaseHeader = header([]int{-22, 10, 6, -12, 8, 8},
	"CYCLES", "INSTS", "IPC", "STALL", "MISPRED%", "L1MISS%")

// appendPhaseSummary appends the summary of p, whose intervals merge
// into phases.
func appendPhaseSummary(b []byte, p *core.Profile, phases []phase) []byte {
	if len(p.Intervals) == 0 {
		return append(b, "no interval telemetry collected (profile with a telemetry window to enable)\n"...)
	}
	b = strconv.AppendInt(append(b, "PHASES: "...), int64(len(p.Intervals)), 10)
	b = strconv.AppendUint(append(b, " intervals @ "...), p.IntervalWindow, 10)
	b = append(b, "-cycle window\n"...)
	ipcs := make([]float64, len(p.Intervals))
	maxIPC := 0.0
	for i, iv := range p.Intervals {
		ipcs[i] = iv.IPC
		if iv.IPC > maxIPC {
			maxIPC = iv.IPC
		}
	}
	b = appendSparkline(append(b, "IPC "...), ipcs, 60)
	b = appendFloat(append(b, " (peak "...), maxIPC, 2, 0)
	b = append(b, ")\n"...)
	b = append(b, phaseHeader...)
	for _, ph := range phases {
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
		start := len(b)
		b = strconv.AppendUint(append(b, '['), ph.start, 10)
		b = strconv.AppendUint(append(b, ','), ph.end, 10)
		b = pad(append(b, ')'), start, -22)
		b = appendUint(append(b, ' '), ph.insts, 10)
		b = appendFloat(append(b, ' '), ipc, 2, 6)
		b = appendStr(append(b, ' '), ph.dominant, -12)
		b = appendFloat(append(b, ' '), mis, 1, 7)
		b = appendFloat(append(b, "% "...), l1, 1, 7)
		b = append(b, "%\n"...)
	}
	return b
}
