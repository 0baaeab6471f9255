package stream

import (
	"context"
	"strings"
	"testing"

	"optiwise/internal/asm"
	"optiwise/internal/core"
	"optiwise/internal/dbi"
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
	return NewCombiner(p, core.Options{})
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
		Sample: &sampler.Profile{
			Module:       "mod",
			Period:       2000,
			Records:      recs,
			TotalCycles:  cycles,
			UserCycles:   user,
			Instructions: insts,
		},
	}
}

func edgeInc(seq int, final bool, blocks []*dbi.Block, insts uint64) Increment {
	return Increment{
		Pass:  core.PassInstrumentation,
		Seq:   seq,
		Final: final,
		Edge: &dbi.Profile{
			Module:           "mod",
			Blocks:           blocks,
			BaseInstructions: insts,
		},
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
	if err := c.Add(edgeInc(0, false,
		[]*dbi.Block{{Start: 0, NumInsts: 1, Count: 10}}, 400)); err != nil {
		t.Fatal(err)
	}
	if c.Complete() {
		t.Error("complete before the instrumentation final increment")
	}
	if err := c.Add(edgeInc(1, true,
		[]*dbi.Block{{Start: 0, NumInsts: 1, Count: 5}, {Start: 8, NumInsts: 1, Count: 2}}, 100)); err != nil {
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
	// The second edge window introduced exactly one previously-unseen
	// block.
	if s.EdgeWindows[1].NewBlocks != 1 {
		t.Errorf("second edge window NewBlocks = %d, want 1", s.EdgeWindows[1].NewBlocks)
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
		!strings.Contains(err.Error(), "without a profile") {
		t.Errorf("nil instrumentation profile: %v", err)
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
	if err := c.Add(edgeInc(1, false, nil, 10)); err == nil ||
		!strings.Contains(err.Error(), "out of order") {
		t.Errorf("instrumentation gap: %v", err)
	}
	if err := c.Add(edgeInc(0, false, nil, 10)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(edgeInc(0, false, nil, 10)); err == nil ||
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
	if err := c.Add(edgeInc(1, true, nil, 10)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(edgeInc(2, false, nil, 10)); err == nil ||
		!strings.Contains(err.Error(), "after the final window") {
		t.Errorf("instrumentation after final: %v", err)
	}
	// Header mismatches surface the Accumulate error.
	c2 := newTestCombiner(t)
	if err := c2.Add(sampleInc(0, false, nil, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	bad := sampleInc(1, false, nil, 1, 1, 1)
	bad.Sample.Period = 999
	if err := c2.Add(bad); err == nil {
		t.Error("period mismatch accepted")
	}
}

// TestCombinerResultNeedsBothPasses pins the error contract of Result
// before any (or only one) pass has reported.
func TestCombinerResultNeedsBothPasses(t *testing.T) {
	c := newTestCombiner(t)
	if _, err := c.Result(context.Background()); err == nil {
		t.Error("result with no increments succeeded")
	}
	if err := c.Add(sampleInc(0, true, nil, 100, 80, 60)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "instrumentation=false") {
		t.Errorf("result with sampling only: %v", err)
	}
}
