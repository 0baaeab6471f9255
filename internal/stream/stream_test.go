package stream

import (
	"strings"
	"testing"

	"optiwise/internal/asm"
	"optiwise/internal/core"
	"optiwise/internal/dbi"
	"optiwise/internal/ooo"
	"optiwise/internal/sampler"
)

const twoFuncs = `
.func main
main:
    addi sp, sp, -16
    st ra, 8(sp)
    call kernel
    ld ra, 8(sp)
    addi sp, sp, 16
    li a0, 0
    li a7, 93
    syscall
.endfunc
.func kernel
kernel:
    li t0, 4
kl:
    addi t0, t0, -1
    bnez t0, kl
    ret
.endfunc
`

func newTestCombiner(t *testing.T) *Combiner {
	t.Helper()
	p, err := asm.Assemble("mod", twoFuncs)
	if err != nil {
		t.Fatal(err)
	}
	return NewCombiner(p)
}

// kernelOffset returns a module offset inside the kernel function, so
// synthetic sample records attribute to a known name.
func kernelOffset(t *testing.T, c *Combiner) uint64 {
	t.Helper()
	for off := uint64(0); off < 1<<12; off += 4 {
		if f, ok := c.prog.FuncAt(off); ok && f.Name == "kernel" {
			return off
		}
	}
	t.Fatal("kernel function not found in test program")
	return 0
}

func sampleInc(seq int, final bool, recs []sampler.Record, cycles, user, insts uint64) Increment {
	return Increment{
		Pass:  core.PassSampling,
		Seq:   seq,
		Final: final,
		Sample: &sampler.Window{
			Interval: ooo.Interval{Cycles: cycles, UserCycles: user, Instructions: insts},
			Records:  recs,
		},
	}
}

func edgeInc(seq int, final bool, insts, execs uint64, newBlocks int) Increment {
	return Increment{
		Pass:  core.PassInstrumentation,
		Seq:   seq,
		Final: final,
		Edge:  &dbi.Window{Instructions: insts, BlockExecs: execs, NewBlocks: newBlocks},
	}
}

// TestCombinerAccumulates drives the combiner with synthetic increments
// and checks that the snapshot reflects cumulative, not per-window,
// state.
func TestCombinerAccumulates(t *testing.T) {
	c := newTestCombiner(t)
	koff := kernelOffset(t, c)

	if err := c.Add(sampleInc(0, false,
		[]sampler.Record{{Offset: koff, Weight: 1500}}, 5000, 4000, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(sampleInc(1, true,
		[]sampler.Record{{Offset: koff, Weight: 500}, {Offset: koff, Weight: 700}},
		2500, 2000, 1500)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(edgeInc(0, false, 400, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if c.Complete() {
		t.Error("complete before the instrumentation final increment")
	}
	if err := c.Add(edgeInc(1, true, 100, 7, 1)); err != nil {
		t.Fatal(err)
	}
	if !c.Complete() {
		t.Error("not complete after both final increments")
	}

	s := c.Snapshot()
	if !s.Complete || !s.SampleDone || !s.EdgeDone {
		t.Errorf("snapshot completion flags: %+v", s)
	}
	if len(s.SampleWindows) != 2 || len(s.EdgeWindows) != 2 {
		t.Fatalf("window counts: %d sample, %d edge, want 2 and 2",
			len(s.SampleWindows), len(s.EdgeWindows))
	}
	if s.Cycles != 7500 || s.UserCycles != 6000 || s.Instructions != 4500 {
		t.Errorf("cumulative sampling totals: cycles=%d user=%d insts=%d",
			s.Cycles, s.UserCycles, s.Instructions)
	}
	if s.Samples != 3 {
		t.Errorf("cumulative samples = %d, want 3", s.Samples)
	}
	if s.EdgeInstructions != 500 {
		t.Errorf("cumulative edge instructions = %d, want 500", s.EdgeInstructions)
	}
	if s.Blocks != 2 {
		t.Errorf("cumulative blocks = %d, want 2", s.Blocks)
	}
	if w := s.EdgeWindows[1]; w.Instructions != 100 || w.BlockExecs != 7 || w.NewBlocks != 1 {
		t.Errorf("second edge window: %+v", w)
	}
	// Per-function cycle estimates fold across windows.
	if len(s.TopFuncs) != 1 || s.TopFuncs[0].Name != "kernel" {
		t.Fatalf("top funcs: %+v", s.TopFuncs)
	}
	if s.TopFuncs[0].Cycles != 2700 || s.TopFuncs[0].Samples != 3 {
		t.Errorf("kernel cycles=%d samples=%d, want 2700 and 3",
			s.TopFuncs[0].Cycles, s.TopFuncs[0].Samples)
	}
	// Per-window summaries keep window-local values.
	if s.SampleWindows[1].WeightCycles != 1200 || s.SampleWindows[1].Samples != 2 {
		t.Errorf("second sample window: %+v", s.SampleWindows[1])
	}
	if !s.SampleWindows[1].Final || s.SampleWindows[0].Final {
		t.Error("final flags not carried onto window summaries")
	}
}

// TestCombinerAddErrors covers the increment-validation paths.
func TestCombinerAddErrors(t *testing.T) {
	c := newTestCombiner(t)
	if err := c.Add(Increment{Pass: "warmup"}); err == nil ||
		!strings.Contains(err.Error(), "unknown pass") {
		t.Errorf("unknown pass: %v", err)
	}
	if err := c.Add(Increment{Pass: core.PassSampling}); err == nil ||
		!strings.Contains(err.Error(), "without a profile") {
		t.Errorf("nil sampling profile: %v", err)
	}
	if err := c.Add(Increment{Pass: core.PassInstrumentation}); err == nil ||
		!strings.Contains(err.Error(), "without a window") {
		t.Errorf("nil instrumentation window: %v", err)
	}
	// Each pass must deliver Seq 0, 1, 2, ... exactly once: a gap or a
	// repeat is rejected before it touches the cumulative state.
	if err := c.Add(sampleInc(1, false, nil, 100, 80, 60)); err == nil ||
		!strings.Contains(err.Error(), "out of order") {
		t.Errorf("sampling gap: %v", err)
	}
	if err := c.Add(sampleInc(0, false, nil, 100, 80, 60)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(sampleInc(0, false, nil, 100, 80, 60)); err == nil ||
		!strings.Contains(err.Error(), "out of order") {
		t.Errorf("sampling duplicate: %v", err)
	}
	if err := c.Add(edgeInc(1, false, 10, 0, 0)); err == nil ||
		!strings.Contains(err.Error(), "out of order") {
		t.Errorf("instrumentation gap: %v", err)
	}
	if err := c.Add(edgeInc(0, false, 10, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(edgeInc(0, false, 10, 0, 0)); err == nil ||
		!strings.Contains(err.Error(), "out of order") {
		t.Errorf("instrumentation duplicate: %v", err)
	}
	if s := c.Snapshot(); len(s.SampleWindows) != 1 || s.Cycles != 100 ||
		len(s.EdgeWindows) != 1 || s.EdgeInstructions != 10 {
		t.Errorf("rejected increments changed the state: %+v", s)
	}
	if err := c.Add(sampleInc(1, true, nil, 100, 80, 60)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(sampleInc(2, false, nil, 100, 80, 60)); err == nil ||
		!strings.Contains(err.Error(), "after the final window") {
		t.Errorf("sampling after final: %v", err)
	}
	if err := c.Add(edgeInc(1, true, 10, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(edgeInc(2, false, 10, 0, 0)); err == nil ||
		!strings.Contains(err.Error(), "after the final window") {
		t.Errorf("instrumentation after final: %v", err)
	}
}
