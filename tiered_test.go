package optiwise

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"optiwise/internal/dbi"
	"optiwise/internal/report"
)

// tieredSrc is built so that tiered selection has something to decide:
// kernel carries essentially all the cycle mass (hot), while coldwork's
// div loop sits past the 16-instruction coverage floor, so its counts
// must be extrapolated. coldwork also calls coldhelper from cold code,
// exercising the cold-leg call/return bookkeeping that keeps Algorithm 1
// callee totals exact under tiering.
const tieredSrc = `
.module tiered
.text
.func main
main:
    addi sp, sp, -16
    st ra, 8(sp)
    li s1, 4
cd:
    call coldwork
    addi s1, s1, -1
    bnez s1, cd
    li s2, 400
hd:
    call kernel
    addi s2, s2, -1
    bnez s2, hd
    ld ra, 8(sp)
    addi sp, sp, 16
    li a0, 0
    li a7, 93
    syscall
.endfunc
.func kernel
kernel:
    li t0, 80
.loc tiered.c 9
kl:
    div t1, t0, t0
    addi t0, t0, -1
    bnez t0, kl
    ret
.endfunc
.func coldwork
coldwork:
    addi sp, sp, -16
    st ra, 8(sp)
    addi s3, s3, 0
    addi s3, s3, 0
    addi s3, s3, 0
    addi s3, s3, 0
    addi s3, s3, 0
    addi s3, s3, 0
    addi s3, s3, 0
    addi s3, s3, 0
    addi s3, s3, 0
    addi s3, s3, 0
    addi s3, s3, 0
    addi s3, s3, 0
    addi s3, s3, 0
    addi s3, s3, 0
    li t2, 60
.loc tiered.c 24
cwl:
    div t3, t2, t2
    addi t2, t2, -1
    bnez t2, cwl
    call coldhelper
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
.endfunc
.func coldhelper
coldhelper:
    li t4, 3
chl:
    div t5, t4, t4
    addi t4, t4, -1
    bnez t4, chl
    ret
.endfunc
`

func rangesCover(rs []dbi.Range, off uint64) bool {
	for _, r := range rs {
		if off >= r.Lo && off < r.Hi {
			return true
		}
	}
	return false
}

// TestTieredProfileSemantics pins the tiered-mode accuracy contract
// (DESIGN.md §12): totals and hot-range records are exact (equal to the
// full run, not merely close), cold records carry extrapolated counts
// flagged Estimated, and the exact hot counts plus the exactly-known
// cold retirement total conserve the run's instruction count.
func TestTieredProfileSemantics(t *testing.T) {
	prog, err := Assemble("tiered", tieredSrc)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{SamplePeriod: 500, RandSeed: 1}
	full, err := Profile(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	topts := base
	topts.Tiered = true
	topts.HotThreshold = 0.05
	tiered, err := Profile(prog, topts)
	if err != nil {
		t.Fatal(err)
	}

	if full.Tiered || full.ColdInsts != 0 || len(full.HotRanges) != 0 {
		t.Fatalf("full run carries tiered fields: %+v", full.HotRanges)
	}
	if !tiered.Tiered || len(tiered.HotRanges) == 0 {
		t.Fatalf("Tiered=%v HotRanges=%v, want tiered with hot ranges",
			tiered.Tiered, tiered.HotRanges)
	}
	if tiered.ColdInsts == 0 {
		t.Fatal("ColdInsts = 0: selection instrumented everything")
	}
	if tiered.Degraded {
		t.Fatalf("tiered run degraded: %s", tiered.DegradedReason)
	}

	// Both passes are deterministic, and tiering must not perturb either
	// the sampled cycles or the exact retirement total (BaseInstructions
	// is counted in cold legs too).
	if tiered.TotalCycles != full.TotalCycles {
		t.Errorf("TotalCycles %d != full %d", tiered.TotalCycles, full.TotalCycles)
	}
	if tiered.TotalInsts != full.TotalInsts {
		t.Errorf("TotalInsts %d != full %d", tiered.TotalInsts, full.TotalInsts)
	}
	if tiered.TotalSamples != full.TotalSamples {
		t.Errorf("TotalSamples %d != full %d", tiered.TotalSamples, full.TotalSamples)
	}

	// Every record inside a hot range is exact: identical to the full
	// run's record, not just within tolerance.
	hotRecords := 0
	for _, r := range tiered.Insts {
		if !rangesCover(tiered.HotRanges, r.Offset) {
			continue
		}
		hotRecords++
		if r.Estimated {
			t.Errorf("offset %#x inside a hot range flagged Estimated", r.Offset)
		}
		fr, ok := full.InstAt(r.Offset)
		if !ok {
			t.Errorf("offset %#x has no full-run record", r.Offset)
			continue
		}
		if r.ExecCount != fr.ExecCount || r.CPI != fr.CPI {
			t.Errorf("offset %#x: tiered count=%d cpi=%g, full count=%d cpi=%g",
				r.Offset, r.ExecCount, r.CPI, fr.ExecCount, fr.CPI)
		}
	}
	if hotRecords == 0 {
		t.Fatal("no records inside hot ranges")
	}

	// Cold-code records exist, are flagged, lie outside the hot ranges,
	// and carry a nonzero extrapolated count (they were sampled, so the
	// time-share is positive).
	estimated := 0
	for _, r := range tiered.Insts {
		if !r.Estimated {
			continue
		}
		estimated++
		if rangesCover(tiered.HotRanges, r.Offset) {
			t.Errorf("estimated record %#x inside a hot range", r.Offset)
		}
		if r.Func != "coldwork" {
			t.Errorf("estimated record %#x in %q, want coldwork", r.Offset, r.Func)
		}
		if r.ExecCount == 0 {
			t.Errorf("estimated record %#x has zero extrapolated count", r.Offset)
		}
	}
	if estimated == 0 {
		t.Fatal("no Estimated records: no samples landed in cold code")
	}

	// Conservation: exact (non-estimated) counts plus the exactly-known
	// cold retirement pool account for every retired instruction.
	var exact uint64
	for _, r := range tiered.Insts {
		if !r.Estimated {
			exact += r.ExecCount
		}
	}
	if exact+tiered.ColdInsts != tiered.TotalInsts {
		t.Errorf("exact %d + cold %d != total %d",
			exact, tiered.ColdInsts, tiered.TotalInsts)
	}

	// The hot function's aggregate is exact, per the acceptance bar
	// (hot-block CPI within 5% — here it must be equal).
	tk, ok1 := tiered.FuncByName("kernel")
	fk, ok2 := full.FuncByName("kernel")
	if !ok1 || !ok2 {
		t.Fatal("kernel function record missing")
	}
	if tk.Estimated {
		t.Error("kernel FuncRecord flagged Estimated")
	}
	if tk.SelfInsts != fk.SelfInsts || tk.CPI != fk.CPI {
		t.Errorf("kernel: tiered insts=%d cpi=%g, full insts=%d cpi=%g",
			tk.SelfInsts, tk.CPI, fk.SelfInsts, fk.CPI)
	}

	// Algorithm 1 stays globally exact under tiering: cold-leg call and
	// return hooks feed the same callee bookkeeping, so main's inclusive
	// instruction total matches the full run.
	tm, ok1 := tiered.FuncByName("main")
	fm, ok2 := full.FuncByName("main")
	if !ok1 || !ok2 {
		t.Fatal("main function record missing")
	}
	if tm.TotalInsts != fm.TotalInsts {
		t.Errorf("main TotalInsts %d != full %d (callee counts diverged)",
			tm.TotalInsts, fm.TotalInsts)
	}

	// The estimate flag propagates to the function and line aggregates.
	cw, ok := tiered.FuncByName("coldwork")
	if !ok {
		t.Fatal("coldwork function record missing")
	}
	if !cw.Estimated {
		t.Error("coldwork FuncRecord not flagged Estimated")
	}
	lineFlagged := false
	for _, l := range tiered.Lines {
		if l.Estimated {
			lineFlagged = true
		}
	}
	if !lineFlagged {
		t.Error("no LineRecord flagged Estimated")
	}

	// Coverage floor: a cold function larger than the floor keeps its
	// entry instrumented, so its first instructions have exact records.
	if !rangesCover(tiered.HotRanges, cw.Lo) {
		t.Errorf("coldwork entry %#x not covered by the floor", cw.Lo)
	}
	// A tiny ret-terminated cold leaf gets no floor: blocks are atomic,
	// so a floor would swallow the ret and charge the clean-call cost
	// per entry, while its entry count is already carried by its
	// instrumented callers. With neither a floor nor any samples it may
	// be absent from the tiered profile entirely; if samples did land
	// there, its records must all be extrapolated.
	if ch, ok := tiered.FuncByName("coldhelper"); ok {
		if rangesCover(tiered.HotRanges, ch.Lo) {
			t.Errorf("coldhelper entry %#x floor-covered despite being a tiny ret-terminated leaf", ch.Lo)
		}
		if !ch.Estimated {
			t.Error("coldhelper FuncRecord present but not flagged Estimated")
		}
	}
}

// TestTieredConfidenceMarkers checks every renderer surfaces the
// extrapolation: the text report and CSV carry a tiered banner and '~'
// markers (CSV an estimated column), the YAML export the estimated
// flags — while full-run output stays free of all of them.
func TestTieredConfidenceMarkers(t *testing.T) {
	prog, err := Assemble("tiered", tieredSrc)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := Profile(prog, Options{
		SamplePeriod: 500, RandSeed: 1, Tiered: true, HotThreshold: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Profile(prog, Options{SamplePeriod: 500, RandSeed: 1})
	if err != nil {
		t.Fatal(err)
	}

	var text bytes.Buffer
	if err := report.WriteAll(&text, tiered); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "TIERED PROFILE") {
		t.Error("text report missing tiered banner")
	}
	if !strings.Contains(text.String(), "~") {
		t.Error("text report missing '~' confidence markers")
	}

	var csv bytes.Buffer
	if err := report.WriteInstCSV(&csv, tiered); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), ",estimated\n") ||
		!strings.Contains(csv.String(), ",true\n") {
		t.Error("tiered CSV missing estimated column/values")
	}

	var yml bytes.Buffer
	if err := report.WriteYAML(&yml, tiered); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tiered: true", "hot_ranges:", "cold_instructions:", "estimated: true"} {
		if !strings.Contains(yml.String(), want) {
			t.Errorf("tiered YAML missing %q", want)
		}
	}

	// Full runs stay unmarked in every format.
	var ftext, fcsv, fyml bytes.Buffer
	if err := report.WriteAll(&ftext, full); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteInstCSV(&fcsv, full); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteYAML(&fyml, full); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ftext.String(), "TIERED") || strings.Contains(ftext.String(), "~") {
		t.Error("full text report carries tiered markers")
	}
	if strings.Contains(fcsv.String(), "estimated") {
		t.Error("full CSV carries the estimated column")
	}
	if strings.Contains(fyml.String(), "estimated") || strings.Contains(fyml.String(), "tiered: true") {
		t.Error("full YAML carries tiered fields")
	}
}

// TestTieredOptionContract pins validation and cache-identity handling
// of the tiered knobs: Tiered/HotThreshold are profile parameters and
// survive Canonical; an out-of-range threshold is rejected; the
// threshold is irrelevant (and stripped) when tiering is off.
func TestTieredOptionContract(t *testing.T) {
	if err := (Options{Tiered: true, HotThreshold: 1.5}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "hot threshold") {
		t.Errorf("HotThreshold=1.5: %v", err)
	}
	if err := (Options{Tiered: true, HotThreshold: -0.1}).Validate(); err == nil {
		t.Error("negative hot threshold accepted")
	}
	if err := (Options{Tiered: true, HotThreshold: 0.25}).Validate(); err != nil {
		t.Errorf("valid tiered options rejected: %v", err)
	}

	c := Options{Tiered: true}.Canonical()
	if !c.Tiered || c.HotThreshold != DefaultHotThreshold {
		t.Errorf("Canonical tiered = %v threshold %g, want default %g filled in",
			c.Tiered, c.HotThreshold, DefaultHotThreshold)
	}
	c = Options{HotThreshold: 0.3}.Canonical()
	if c.Tiered || c.HotThreshold != 0 {
		t.Errorf("Canonical kept HotThreshold %g without Tiered", c.HotThreshold)
	}
}

// TestTieredDegradedSamplerFailure: when the sampling pass dies there is
// no hotness information to tier on, so the degraded fallback must run
// full-coverage instrumentation — a counts-only profile with nothing
// missing from its counts.
func TestTieredDegradedSamplerFailure(t *testing.T) {
	prog, err := Assemble("tiered", tieredSrc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Profile(prog, Options{SamplePeriod: 500, RandSeed: 1})
	if err != nil {
		t.Fatal(err)
	}

	withFault(t, "ooo.run:error:nth=1,msg=sampler killed")
	prof, err := Profile(prog, Options{
		SamplePeriod: 500, RandSeed: 1,
		Tiered: true, HotThreshold: 0.05, AllowDegraded: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Degraded || prof.FailedPass != "sampling" {
		t.Fatalf("Degraded=%v FailedPass=%q, want degraded sampling",
			prof.Degraded, prof.FailedPass)
	}
	if prof.Tiered || len(prof.HotRanges) != 0 || prof.ColdInsts != 0 {
		t.Errorf("degraded fallback still tiered: ranges=%v cold=%d",
			prof.HotRanges, prof.ColdInsts)
	}
	if prof.TotalInsts != full.TotalInsts {
		t.Errorf("counts-only TotalInsts %d != full %d: fallback lost coverage",
			prof.TotalInsts, full.TotalInsts)
	}
}

// TestTieredSelectFault covers the fault seam between the two passes:
// a selection failure is fatal without AllowDegraded, and degrades to a
// sampling-only profile with it (the sampling data is already in hand).
func TestTieredSelectFault(t *testing.T) {
	prog, err := Assemble("tiered", tieredSrc)
	if err != nil {
		t.Fatal(err)
	}

	withFault(t, "tiered.select:error:nth=1,msg=selection failed")
	if _, err := Profile(prog, Options{
		SamplePeriod: 500, RandSeed: 1, Tiered: true,
	}); err == nil || !strings.Contains(err.Error(), "tiered selection") {
		t.Fatalf("selection fault: %v, want tiered selection error", err)
	}

	withFault(t, "tiered.select:error:nth=1,msg=selection failed")
	prof, err := Profile(prog, Options{
		SamplePeriod: 500, RandSeed: 1, Tiered: true, AllowDegraded: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Degraded || prof.FailedPass != "instrumentation" {
		t.Fatalf("Degraded=%v FailedPass=%q, want sampling-only degradation",
			prof.Degraded, prof.FailedPass)
	}
	if !prof.Tiered {
		t.Error("degraded tiered run dropped the Tiered flag; the report must carry both banners")
	}
	if len(prof.HotRanges) != 0 {
		t.Errorf("no selection survived, yet HotRanges = %v", prof.HotRanges)
	}
}

// TestTieredStreamEquivalence: streaming a tiered run must leave its
// Result byte-identical, tiered metadata included, and the combiner's
// cumulative totals must agree with that Result.
func TestTieredStreamEquivalence(t *testing.T) {
	prog, err := Assemble("tiered", tieredSrc)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{SamplePeriod: 500, RandSeed: 1, Tiered: true, HotThreshold: 0.05}
	oneShot, err := Profile(prog, base)
	if err != nil {
		t.Fatal(err)
	}

	opts := base
	opts.StreamWindow = 4096
	comb := NewStreamCombiner(prog)
	var mu sync.Mutex
	var addErr error
	opts.OnIncrement = func(inc Increment) {
		mu.Lock()
		defer mu.Unlock()
		if err := comb.Add(inc); err != nil && addErr == nil {
			addErr = err
		}
	}
	streamed, err := Profile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if addErr != nil {
		t.Fatalf("combiner rejected an increment: %v", addErr)
	}
	if !comb.Complete() {
		t.Fatal("combiner incomplete after the run returned")
	}
	if !streamed.Tiered || streamed.ColdInsts != oneShot.ColdInsts {
		t.Errorf("streamed tiered=%v cold=%d, one-shot cold=%d",
			streamed.Tiered, streamed.ColdInsts, oneShot.ColdInsts)
	}
	if got := exportBytes(t, streamed); !bytes.Equal(got, exportBytes(t, oneShot)) {
		t.Error("streaming perturbed the tiered run's own profile")
	}
	checkSnapshotTotals(t, comb.Snapshot(), oneShot)
}
