package report

import (
	"bytes"
	"strings"
	"testing"

	"optiwise/internal/asm"
	"optiwise/internal/core"
	"optiwise/internal/dbi"
	"optiwise/internal/ooo"
	"optiwise/internal/sampler"
)

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 60); got != "" {
		t.Errorf("empty series: %q", got)
	}
	if got := sparkline([]float64{1, 1, 1}, 0); got != "" {
		t.Errorf("zero width: %q", got)
	}
	// All-zero series renders at the floor.
	if got := sparkline([]float64{0, 0, 0}, 60); got != "▁▁▁" {
		t.Errorf("all-zero series: %q", got)
	}
	// Monotone ramp renders monotone cells ending at the peak rune.
	got := []rune(sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 60))
	if len(got) != 8 {
		t.Fatalf("ramp width = %d, want 8", len(got))
	}
	if got[0] != '▁' || got[7] != '█' {
		t.Errorf("ramp endpoints: %q", string(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Errorf("ramp not monotone: %q", string(got))
		}
	}
	// Longer than width: downsampled to at most width cells.
	long := make([]float64, 200)
	for i := range long {
		long[i] = float64(i % 13)
	}
	if n := len([]rune(sparkline(long, 60))); n > 60 {
		t.Errorf("downsampled width = %d, want <= 60", n)
	}
}

func TestMergePhases(t *testing.T) {
	ivs := []ooo.Interval{
		{Start: 0, Cycles: 100, Instructions: 150, Stalls: ooo.StallBreakdown{Commit: 90, Execute: 10}},
		{Start: 100, Cycles: 100, Instructions: 140, Stalls: ooo.StallBreakdown{Commit: 80, Execute: 20},
			Cache: []ooo.LevelRate{{Level: "L1", Hits: 50, Misses: 5}}},
		{Start: 200, Cycles: 100, Instructions: 20, Stalls: ooo.StallBreakdown{Commit: 5, Memory: 95},
			Branches: 10, Mispredicts: 2},
		{Start: 300, Cycles: 50, Instructions: 10, Stalls: ooo.StallBreakdown{Memory: 50}},
	}
	phases := mergePhases(ivs)
	if len(phases) != 2 {
		t.Fatalf("want 2 phases (commit, memory), got %d: %+v", len(phases), phases)
	}
	c := phases[0]
	if c.dominant != "commit" || c.start != 0 || c.end != 200 || c.cycles != 200 ||
		c.insts != 290 || c.l1Hits != 50 || c.l1Misses != 5 {
		t.Errorf("commit phase wrong: %+v", c)
	}
	m := phases[1]
	if m.dominant != "memory" || m.start != 200 || m.end != 350 || m.cycles != 150 ||
		m.insts != 30 || m.branches != 10 || m.mispredicts != 2 {
		t.Errorf("memory phase wrong: %+v", m)
	}
}

// combinedWithTelemetry is combined() plus a telemetry window on the
// sampling pass.
func combinedWithTelemetry(t *testing.T) *core.Profile {
	t.Helper()
	src := `
.func main
main:
    li s2, 200
outer:
    li t0, 50
wl:
    div t1, t0, t0
    addi t0, t0, -1
    bnez t0, wl
    addi s2, s2, -1
    bnez s2, outer
    li a0, 0
    li a7, 93
    syscall
.endfunc
`
	prog, err := asm.Assemble("demo", src)
	if err != nil {
		t.Fatal(err)
	}
	sp, _, err := sampler.Run(ooo.XeonW2195(), prog, sampler.Options{Period: 300, Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := dbi.Run(prog, dbi.Options{StackProfiling: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Combine(prog, sp, ep, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPhaseSummary(t *testing.T) {
	p := combinedWithTelemetry(t)
	if len(p.Intervals) == 0 {
		t.Fatal("combined profile lost the interval stream")
	}
	var buf bytes.Buffer
	if err := WritePhaseSummary(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"PHASES:", "@ 1024-cycle window", "IPC ", "(peak ", "STALL", "MISPRED%", "L1MISS%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("phase summary missing %q:\n%s", want, out)
		}
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Errorf("phase summary missing sparkline:\n%s", out)
	}
	if !strings.Contains(out, "[0,") {
		t.Errorf("phase table missing cycle ranges:\n%s", out)
	}

	// Profiles without telemetry say so instead of rendering nothing.
	bare := combined(t)
	buf.Reset()
	if err := WritePhaseSummary(&buf, bare); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no interval telemetry collected") {
		t.Errorf("bare profile phase summary: %q", buf.String())
	}
}

// TestWriteAllPhaseSection: the full report gains the phase section
// exactly when telemetry was collected — default reports stay
// byte-identical to the pre-telemetry renderer.
func TestWriteAllPhaseSection(t *testing.T) {
	var with, without bytes.Buffer
	if err := WriteAll(&with, combinedWithTelemetry(t)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(with.String(), "PHASES:") {
		t.Error("full report with telemetry missing PHASES section")
	}
	if err := WriteAll(&without, combined(t)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(without.String(), "PHASES:") ||
		strings.Contains(without.String(), "no interval telemetry") {
		t.Error("full report without telemetry should not mention phases at all")
	}
}
