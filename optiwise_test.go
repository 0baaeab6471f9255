package optiwise

import (
	"bytes"
	"strings"
	"testing"
)

const quickSrc = `
.module quick
.text
.func main
main:
    addi sp, sp, -16
    st ra, 8(sp)
    li s2, 300
.loc quick.c 3
outer:
    call kernel
    addi s2, s2, -1
    bnez s2, outer
    ld ra, 8(sp)
    addi sp, sp, 16
    li a0, 0
    li a7, 93
    syscall
.endfunc
.func kernel
kernel:
    li t0, 60
.loc quick.c 9
kl:
    div t1, t0, t0
    addi t0, t0, -1
    bnez t0, kl
    ret
.endfunc
`

func TestAssembleAndRun(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Module() != "quick" {
		t.Errorf("module = %q", p.Module())
	}
	res, err := p.Run(XeonW2195())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 || res.Cycles == 0 || res.Instructions == 0 {
		t.Errorf("run result = %+v", res)
	}
	ref := switchRun(t, p)
	if ref.Steps != res.Instructions {
		t.Errorf("switch interpreter retired %d, pipeline %d", ref.Steps, res.Instructions)
	}
	ires, err := p.Interpret()
	if err != nil {
		t.Fatal(err)
	}
	if ires.Instructions != ref.Steps || ires.ExitCode != ref.ExitCode || !bytes.Equal(ires.Output, ref.Output) {
		t.Errorf("Interpret = %+v, switch interpreter retired %d, exit %d", ires, ref.Steps, ref.ExitCode)
	}
}

func TestAssembleError(t *testing.T) {
	if _, err := Assemble("bad", "frobnicate a0"); err == nil {
		t.Error("bad source accepted")
	}
}

func TestEndToEndProfile(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(p, Options{SamplePeriod: 500})
	if err != nil {
		t.Fatal(err)
	}
	kernel, ok := prof.FuncByName("kernel")
	if !ok {
		t.Fatal("kernel missing from profile")
	}
	if kernel.TimeFrac < 0.8 {
		t.Errorf("kernel time frac = %.2f, want dominant", kernel.TimeFrac)
	}
	if len(prof.Loops) != 2 {
		t.Errorf("loops = %d, want 2", len(prof.Loops))
	}
	hot, ok := prof.HottestInst()
	if !ok || hot.Func != "kernel" {
		t.Errorf("hottest inst = %+v", hot)
	}
}

func TestStagedPipelineMatchesProfile(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{SamplePeriod: 500}
	sp, _, err := SampleOnly(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := InstrumentOnly(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := Analyze(p, sp, ep, opts)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := Profile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if staged.TotalInsts != oneShot.TotalInsts || staged.TotalSamples != oneShot.TotalSamples {
		t.Error("staged pipeline diverged from one-shot Profile")
	}
}

func TestReportWriters(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(p, Options{SamplePeriod: 500})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, prof); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"module quick", "kernel", "LOOP", "quick.c:9"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for _, fn := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return WriteFunctionTable(b, prof) },
		func(b *bytes.Buffer) error { return WriteLoopTable(b, prof) },
		func(b *bytes.Buffer) error { return WriteAnnotated(b, prof, "kernel") },
		func(b *bytes.Buffer) error { return WriteInstCSV(b, prof) },
		func(b *bytes.Buffer) error { return WriteLoopCSV(b, prof) },
	} {
		buf.Reset()
		if err := fn(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Error("writer produced nothing")
		}
	}
}

func TestMeasureOverhead(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := MeasureOverhead(p, Options{SamplePeriod: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if ov.SamplingRatio < 1.0 || ov.SamplingRatio > 1.5 {
		t.Errorf("sampling ratio = %.3f, want near 1", ov.SamplingRatio)
	}
	if ov.InstrumentationRatio < 1.0 {
		t.Errorf("instrumentation ratio = %.2f, want > 1", ov.InstrumentationRatio)
	}
	if ov.TotalRatio <= ov.InstrumentationRatio {
		t.Error("total should include both runs")
	}
	if ov.AnalysisSeconds < 0 {
		t.Error("negative analysis time")
	}
}

func TestWorkloadReexports(t *testing.T) {
	specs := SuiteSpecs()
	if len(specs) != 23 {
		t.Fatalf("suite = %d", len(specs))
	}
	p, err := SuiteProgram(specs[0], 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Interpret(); err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() (*Program, error){
		Fig1Program, Fig2Program, Fig8Program, Fig9Program,
	} {
		if _, err := build(); err != nil {
			t.Fatal(err)
		}
	}
	mcfCfg := DefaultMCFConfig()
	mcfCfg.Arcs = 128
	mcfCfg.ScanInvocations = 1
	mp, err := MCFProgram(mcfCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mp.Interpret()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Errorf("mcf exit = %d", res.ExitCode)
	}
	dcfg := DefaultDeepsjengConfig()
	dcfg.Nodes = 100
	if _, err := DeepsjengProgram(dcfg); err != nil {
		t.Fatal(err)
	}
	bcfg := DefaultBwavesConfig()
	bcfg.Sweeps = 1
	if _, err := BwavesProgram(bcfg); err != nil {
		t.Fatal(err)
	}
}

func TestPreciseOption(t *testing.T) {
	p, err := Fig1Program()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(p, Options{SamplePeriod: 600, Precise: true})
	if err != nil {
		t.Fatal(err)
	}
	hot, _ := prof.HottestInst()
	if hot.Inst.Op.String() != "ld" {
		t.Errorf("precise profile hottest = %s, want the ld", hot.Disasm)
	}
}

func TestBinaryRoundTripThroughPublicAPI(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Run(XeonW2195())
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Run(XeonW2195())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.ExitCode != b.ExitCode {
		t.Error("binary round trip changed behaviour")
	}
}

// TestBinaryEncodedOnce: Binary is the image WriteOWX writes, encoded
// on the first call only — later calls and WriteBinary reuse the same
// bytes without allocating.
func TestBinaryEncodedOnce(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := p.Raw().WriteOWX(&want); err != nil {
		t.Fatal(err)
	}
	first, err := p.Binary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want.Bytes()) {
		t.Fatal("Binary differs from the program's OWX encoding")
	}
	var sink bytes.Buffer
	sink.Grow(2 * len(first))
	allocs := testing.AllocsPerRun(10, func() {
		again, err := p.Binary()
		if err != nil || &again[0] != &first[0] {
			t.Fatal("Binary re-encoded the program")
		}
		sink.Reset()
		if err := p.WriteBinary(&sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Binary and WriteBinary allocate %.0f times per call after the first", allocs)
	}
	if !bytes.Equal(sink.Bytes(), want.Bytes()) {
		t.Error("WriteBinary differs from the program's OWX encoding")
	}
}

func TestDisableStackProfiling(t *testing.T) {
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	with, err := Profile(p, Options{SamplePeriod: 500})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Profile(p, Options{SamplePeriod: 500, DisableStackProfiling: true})
	if err != nil {
		t.Fatal(err)
	}
	mw, _ := with.FuncByName("main")
	mo, _ := without.FuncByName("main")
	// Without stack profiling, main's total instructions miss the callee
	// contribution from the callee_count_table.
	if mo.TotalInsts >= mw.TotalInsts {
		t.Errorf("stack profiling off should shrink totals: %d vs %d",
			mo.TotalInsts, mw.TotalInsts)
	}
}

func TestLoopThresholdPlumbsThrough(t *testing.T) {
	// A shared-header nest: T=1000 merges everything into one loop; the
	// default splits the hot nested loop.
	src := `
.func main
main:
    li s2, 100
outer:
    li s3, 50
inner:
    addi s3, s3, -1
    bnez s3, outer_share
    j after
outer_share:
    j inner
after:
    addi s2, s2, -1
    bnez s2, outer
    li a0, 0
    li a7, 93
    syscall
.endfunc
`
	p, err := Assemble("nest", src)
	if err != nil {
		t.Fatal(err)
	}
	def, err := Profile(p, Options{SamplePeriod: 500})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Profile(p, Options{SamplePeriod: 500, LoopThreshold: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Loops) > len(def.Loops) {
		t.Errorf("huge T should merge loops: %d vs %d", len(merged.Loops), len(def.Loops))
	}
}
