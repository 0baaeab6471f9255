package report

import (
	"fmt"
	"io"
	"strings"

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

// sparkline renders vals scaled against their maximum into at most width
// cells, downsampling by averaging fixed-size groups when necessary. An
// all-zero series renders as all-minimum cells.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
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
	var b strings.Builder
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
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
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
	for _, iv := range ivs {
		dom := iv.Stalls.Dominant()
		if n := len(out); n > 0 && out[n-1].dominant == dom {
			p := &out[n-1]
			p.end = iv.Start + iv.Cycles
			p.cycles += iv.Cycles
			p.insts += iv.Instructions
			p.branches += iv.Branches
			p.mispredicts += iv.Mispredicts
			if len(iv.Cache) > 0 {
				p.l1Hits += iv.Cache[0].Hits
				p.l1Misses += iv.Cache[0].Misses
			}
			continue
		}
		p := phase{
			dominant: dom,
			start:    iv.Start,
			end:      iv.Start + iv.Cycles,
			cycles:   iv.Cycles,
			insts:    iv.Instructions,

			branches:    iv.Branches,
			mispredicts: iv.Mispredicts,
		}
		if len(iv.Cache) > 0 {
			p.l1Hits = iv.Cache[0].Hits
			p.l1Misses = iv.Cache[0].Misses
		}
		out = append(out, p)
	}
	return out
}

// WritePhaseSummary prints the interval-telemetry phase summary: an IPC
// sparkline over the run followed by one row per dominant-stall phase.
// Profiles collected without a telemetry window produce a one-line note.
func WritePhaseSummary(w io.Writer, p *core.Profile) error {
	if err := preamble(w, p, ""); err != nil {
		return err
	}
	return phaseSummaryBody(w, p)
}

func phaseSummaryBody(w io.Writer, p *core.Profile) error {
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
