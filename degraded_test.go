package optiwise

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"optiwise/internal/fault"
	"optiwise/internal/report"
)

// withFault installs a fault plan for the test and guarantees the
// process-global registry is clean afterwards. Degraded-mode tests
// must not run in parallel (the registry is global).
func withFault(t *testing.T, spec string) {
	t.Helper()
	if err := fault.Activate(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fault.Set(nil) })
}

// TestDegradedSamplingOnly kills the DBI pass and checks the
// AllowDegraded contract: a flagged sampling-only result whose
// hot-function ranking matches the full run's sample ranking, with
// every renderer carrying the degraded banner.
func TestDegradedSamplingOnly(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Profile(p, Options{SamplePeriod: 500})
	if err != nil {
		t.Fatal(err)
	}

	withFault(t, "dbi.run:error:nth=1,msg=dbi pass killed")
	prof, err := Profile(p, Options{SamplePeriod: 500, AllowDegraded: true})
	if err != nil {
		t.Fatalf("degraded profile: %v", err)
	}
	if !prof.Degraded || prof.FailedPass != "instrumentation" {
		t.Fatalf("Degraded=%v FailedPass=%q, want degraded instrumentation",
			prof.Degraded, prof.FailedPass)
	}
	if !strings.Contains(prof.DegradedReason, "dbi pass killed") {
		t.Errorf("DegradedReason = %q, want the injected message", prof.DegradedReason)
	}
	if prof.TotalCycles == 0 || prof.TotalSamples == 0 {
		t.Errorf("sampling-only result lost its cycles: %+v", prof)
	}

	// Hot-function ranking is by stack-credited cycles, which depend
	// only on the sampling pass — so the degraded ranking must match
	// the full run's exactly.
	if len(prof.Funcs) != len(full.Funcs) {
		t.Fatalf("func count %d vs full %d", len(prof.Funcs), len(full.Funcs))
	}
	for i := range prof.Funcs {
		if prof.Funcs[i].Name != full.Funcs[i].Name {
			t.Errorf("rank %d: %s vs full %s", i, prof.Funcs[i].Name, full.Funcs[i].Name)
		}
		if prof.Funcs[i].TotalCycles != full.Funcs[i].TotalCycles {
			t.Errorf("%s: TotalCycles %d vs full %d", prof.Funcs[i].Name,
				prof.Funcs[i].TotalCycles, full.Funcs[i].TotalCycles)
		}
	}

	// Instruction totals are time-share estimates: they must sum to
	// roughly the sampled run's retired instructions and give every
	// function the program-wide CPI.
	if prof.TotalInsts == 0 {
		t.Error("sampling-only result should estimate TotalInsts from the sampling run")
	}

	// Every renderer flags the degradation.
	hot := prof.Funcs[0].Name
	renderers := map[string]func(*bytes.Buffer) error{
		"summary":   func(b *bytes.Buffer) error { return report.WriteSummary(b, prof) },
		"functions": func(b *bytes.Buffer) error { return report.WriteFunctionTable(b, prof) },
		"loops":     func(b *bytes.Buffer) error { return report.WriteLoopTable(b, prof) },
		"annotated": func(b *bytes.Buffer) error { return report.WriteAnnotatedFunc(b, prof, hot) },
		"callgraph": func(b *bytes.Buffer) error { return report.WriteCallGraph(b, prof) },
		"csv":       func(b *bytes.Buffer) error { return report.WriteInstCSV(b, prof) },
		"loops-csv": func(b *bytes.Buffer) error { return report.WriteLoopCSV(b, prof) },
		"all":       func(b *bytes.Buffer) error { return report.WriteAll(b, prof) },
	}
	for name, render := range renderers {
		var b bytes.Buffer
		if err := render(&b); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !strings.Contains(b.String(), "DEGRADED RESULT") {
			t.Errorf("%s output not marked degraded:\n%.200s", name, b.String())
		}
	}
	// The banner must appear exactly once in the full report.
	var all bytes.Buffer
	if err := report.WriteAll(&all, prof); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(all.String(), "DEGRADED RESULT"); n != 1 {
		t.Errorf("WriteAll banner count = %d, want 1", n)
	}
	// JSON export carries the flag.
	var js bytes.Buffer
	if err := prof.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"degraded":true`) {
		t.Error("JSON export missing degraded flag")
	}
	// The CFG comes from the dead instrumentation pass; asking for it
	// must fail descriptively, not render an empty graph.
	var dot bytes.Buffer
	if err := WriteCFGDot(&dot, prof, hot); err == nil {
		t.Error("WriteCFGDot on sampling-only result should fail")
	}
}

// TestDegradedCountsOnly kills the sampling pass: exact counts survive,
// cycles vanish, and functions re-rank by retired instructions.
func TestDegradedCountsOnly(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	withFault(t, "ooo.run:error:nth=1,msg=sampler killed")
	prof, err := Profile(p, Options{SamplePeriod: 500, AllowDegraded: true})
	if err != nil {
		t.Fatalf("counts-only profile: %v", err)
	}
	if !prof.Degraded || prof.FailedPass != "sampling" {
		t.Fatalf("Degraded=%v FailedPass=%q, want degraded sampling", prof.Degraded, prof.FailedPass)
	}
	if prof.TotalCycles != 0 || prof.TotalSamples != 0 {
		t.Errorf("counts-only result has cycles=%d samples=%d, want 0", prof.TotalCycles, prof.TotalSamples)
	}
	if prof.TotalInsts == 0 {
		t.Error("counts-only result lost its execution counts")
	}
	for i := 1; i < len(prof.Funcs); i++ {
		if prof.Funcs[i-1].TotalInsts < prof.Funcs[i].TotalInsts {
			t.Errorf("funcs not ranked by TotalInsts: %s(%d) before %s(%d)",
				prof.Funcs[i-1].Name, prof.Funcs[i-1].TotalInsts,
				prof.Funcs[i].Name, prof.Funcs[i].TotalInsts)
		}
	}
	if len(prof.Loops) == 0 {
		t.Error("counts-only result should keep merged loops (CFG survives)")
	}
}

// TestDegradedNotWithoutOptIn: without AllowDegraded a failing pass
// still fails the whole run.
func TestDegradedNotWithoutOptIn(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	withFault(t, "dbi.run:error:nth=1")
	if _, err := Profile(p, Options{SamplePeriod: 500}); err == nil {
		t.Fatal("expected the injected fault to fail the run")
	} else if !fault.IsTransient(err) {
		t.Errorf("expected a transient injected fault, got %v", err)
	}
}

// TestDegradedBothPassesFail: nothing survives to degrade to.
func TestDegradedBothPassesFail(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	withFault(t, "dbi.run:error:nth=1;ooo.run:error:nth=1")
	if _, err := Profile(p, Options{SamplePeriod: 500, AllowDegraded: true}); err == nil {
		t.Fatal("expected failure when both passes die")
	}
}

// TestPassPanicRecovered: an injected panic inside a pass becomes a
// *PanicError instead of crashing the process, and with AllowDegraded
// the sibling still yields a partial result.
func TestPassPanicRecovered(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	withFault(t, "dbi.run:panic:nth=1,msg=boom")
	_, err = Profile(p, Options{SamplePeriod: 500})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Op != "instrumentation" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {Op:%q stack:%d bytes}", pe.Op, len(pe.Stack))
	}

	// Reinstall: the nth=1 trigger already consumed its fire above
	// (rule counters live in the installed plan).
	withFault(t, "dbi.run:panic:nth=1,msg=boom")
	prof, err := Profile(p, Options{SamplePeriod: 500, AllowDegraded: true})
	if err != nil {
		t.Fatalf("degraded after panic: %v", err)
	}
	if !prof.Degraded || prof.FailedPass != "instrumentation" {
		t.Errorf("Degraded=%v FailedPass=%q", prof.Degraded, prof.FailedPass)
	}
}

// TestDegradedRespectsCancellation: a canceled context must surface
// the cancellation, never a degraded result.
func TestDegradedRespectsCancellation(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProfileContext(ctx, p, Options{AllowDegraded: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
