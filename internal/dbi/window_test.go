package dbi

import (
	"reflect"
	"testing"

	"optiwise/internal/asm"
)

// windowLoop retires ~5000 instructions across a call-heavy nested loop,
// so instruction-count windows see many boundaries, callee counts move,
// and `ret` exercises indirect targets.
const windowLoop = `
.func main
main:
    addi sp, sp, -16
    st ra, 8(sp)
    li s2, 50
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
    li t0, 30
kl:
    div t1, t0, t0
    addi t0, t0, -1
    bnez t0, kl
    ret
.endfunc
`

// TestWindowIncrementsTelescope is the streaming contract at the
// instrumentation layer: window emission must leave the run's profile
// unchanged, and the window counts must telescope to the run's totals —
// for a full run and for a tiered one, whose cold code has no blocks.
func TestWindowIncrementsTelescope(t *testing.T) {
	p, err := asm.Assemble("win", windowLoop)
	if err != nil {
		t.Fatal(err)
	}
	kernel, ok := p.FuncByName("kernel")
	if !ok {
		t.Fatal("kernel function not found")
	}
	for _, base := range []Options{
		{StackProfiling: true, RandSeed: 7},
		{StackProfiling: true, RandSeed: 7, Select: NewSelection([]Range{{Lo: kernel.Lo, Hi: kernel.Hi}})},
	} {
		tiered := base.Select != nil
		oneShot, err := Run(p, base)
		if err != nil {
			t.Fatal(err)
		}

		var wins []Window
		finals := 0
		opts := base
		opts.WindowInstructions = 500
		opts.OnWindow = func(w Window, final bool) {
			wins = append(wins, w)
			if final {
				finals++
			}
		}
		streamed, err := Run(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oneShot, streamed) {
			t.Errorf("tiered=%v: window emission perturbed the run's own profile", tiered)
		}
		if len(wins) < 2 {
			t.Fatalf("tiered=%v: only %d windows for a multi-window run", tiered, len(wins))
		}
		if finals != 1 {
			t.Fatalf("tiered=%v: saw %d final windows, want exactly 1", tiered, finals)
		}

		var sum Window
		for _, w := range wins {
			sum.Instructions += w.Instructions
			sum.BlockExecs += w.BlockExecs
			sum.NewBlocks += w.NewBlocks
		}
		var execs uint64
		for _, b := range oneShot.Blocks {
			execs += b.Count
		}
		want := Window{Instructions: oneShot.BaseInstructions, BlockExecs: execs, NewBlocks: len(oneShot.Blocks)}
		if sum != want {
			t.Errorf("tiered=%v: window sums %+v, run totals %+v", tiered, sum, want)
		}
	}
}
