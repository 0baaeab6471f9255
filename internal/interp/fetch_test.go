package interp

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"optiwise/internal/asm"
	"optiwise/internal/isa"
	"optiwise/internal/program"
	"optiwise/internal/workloads"
)

// lockstep runs two machines over p, one on Machine.Step and one on
// Code.Fetch, and fails on the first instruction after which they
// differ: the step outcome (PC, NextPC, Taken, Addr, and the slot Fetch
// reports), the full State, Steps, Output, Exited and ExitCode. A trap
// must match by PC and Msg. It stops at the first trap (after checking
// that a further step traps alike, which covers "step after exit") or
// after maxSteps instructions, and returns the number of instructions
// both retired and the trap, if any.
func lockstep(t testing.TB, name string, p *program.Program, maxSteps int) (uint64, *Trap) {
	t.Helper()
	ref := New(program.Load(p, program.LoadOptions{}), 7)
	img := program.Load(p, program.LoadOptions{})
	m := New(img, 7)
	code := Translate(img)
	for i := 0; i < maxSteps; i++ {
		pc := m.St.PC
		want, werr := ref.Step()
		slot, addr, taken, gerr := code.Fetch(m)
		var wt, gt *Trap
		if werr != nil || gerr != nil {
			if !errors.As(werr, &wt) || !errors.As(gerr, &gt) || *wt != *gt {
				t.Fatalf("%s: step %d at %#x: Step error %v, Fetch error %v", name, i, pc, werr, gerr)
			}
		} else {
			got := StepResult{PC: pc, NextPC: m.St.PC, Taken: taken, Addr: addr, Inst: want.Inst}
			if got != want {
				t.Fatalf("%s: step %d: Fetch outcome %+v, Step %+v", name, i, got, want)
			}
			if wantSlot := int((pc - img.TextBase) / isa.InstBytes); slot != wantSlot {
				t.Fatalf("%s: step %d at %#x: slot %d, want %d", name, i, pc, slot, wantSlot)
			}
		}
		if !stateEqual(ref.St, m.St) || ref.Steps != m.Steps || !bytes.Equal(ref.Output, m.Output) ||
			ref.Exited != m.Exited || ref.ExitCode != m.ExitCode {
			t.Fatalf("%s: step %d at %#x: machine state diverged:\nStep  %+v steps=%d exited=%v code=%d\nFetch %+v steps=%d exited=%v code=%d",
				name, i, pc, ref.St, ref.Steps, ref.Exited, ref.ExitCode, m.St, m.Steps, m.Exited, m.ExitCode)
		}
		if wt != nil {
			return m.Steps, wt
		}
	}
	return m.Steps, nil
}

// assembleT assembles src or fails the test.
func assembleT(t testing.TB, name, src string) *program.Program {
	t.Helper()
	p, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// fetchEdgeSrc exercises the cases a predecoded single step can get
// wrong: a load overwriting its own base register, X0 destinations
// (including an X0 load, whose address is still reported), both arms
// of CMOVZ/CMOVNZ, every fused pair executed head then tail, and a jump
// onto each pair's tail. %TAIL% is replaced per case.
const fetchEdgeSrc = `
.data
buf: .space 64
.text
.func main
main:
    la s1, buf
    li t0, 1234
    st t0, 0(s1)
    st s1, 8(s1)
    mov t1, s1
    ld t1, 8(t1)
    ld t1, 0(t1)
    lw t2, 0(s1)
    lbu t2, 1(s1)
    fld f1, 0(s1)
    prefetch 32(s1)
    ld x0, 0(s1)
    add x0, t0, t0
    addi x0, t0, 1
    lui x0, 99
    cmovz x0, t0, x0
    li t3, 0
    li t4, 7
    cmovz t5, t4, t3
    cmovz t5, t0, t4
    cmovnz t6, t4, t3
    cmovnz t6, t0, t4
    cmovnz t4, t4, t4
    add t0, t1, t2
    and t2, t0, t4
    lui t1, 77
    add t2, t1, t0
    mul t0, t1, t2
    lui t3, 5
    lui t3, 6
    mul t0, t3, t3
    and t0, t0, t4
    add t1, t0, t4
    add s1, s1, x0
    ld t2, 16(s1)
    jmp tail1
    add t0, t1, t2
tail1:
    and t2, t0, t4
    jmp tail2
    lui t1, 77
tail2:
    add t2, t1, t0
    jmp tail3
    add t0, t1, t1
tail3:
    ld t1, 0(s1)
%TAIL%
.endfunc
`

// TestFetchMatchesStep runs Machine.Step and Code.Fetch in lockstep over
// every suite program, the case-study and figure programs, and the
// hand-written edge cases, requiring identical outcomes and state after
// every instruction. The suite runs at a fifth of its iterations: the
// static code, which is what translation can get wrong, is unchanged.
func TestFetchMatchesStep(t *testing.T) {
	programs := map[string]string{
		"mcf":       workloads.MCF(workloads.DefaultMCFConfig()),
		"deepsjeng": workloads.Deepsjeng(workloads.DefaultDeepsjengConfig()),
		"bwaves":    workloads.Bwaves(workloads.DefaultBwavesConfig()),
		"fig1":      workloads.Fig1(), "fig2": workloads.Fig2(),
		"fig8": workloads.Fig8(), "fig9": workloads.Fig9(),
	}
	for _, s := range workloads.Suite() {
		programs[s.Name] = workloads.Generate(s.Scale(0.2))
	}
	for name, src := range programs {
		// Each runs to its exit; the step after it traps in both engines.
		if _, trap := lockstep(t, name, assembleT(t, name, src), 10_000_000); trap == nil || trap.Msg != "step after exit" {
			t.Errorf("%s: run ended with %v, want an exit", name, trap)
		}
	}

	exit := "    li a0, 3\n    li a7, 93\n    syscall\n    nop"
	for _, tc := range []struct {
		name, tail string
		want       string // the trap message that ends the run
	}{
		{"exit", exit, "step after exit"},
		{"jr-off-text", "    li t0, 0x1234\n    jr t0", "pc outside text segment"},
		// Two bytes into the text segment (loaded without ASLR).
		{"jr-misaligned", "    li t0, 0x400002\n    jr t0", "pc outside text segment"},
		{"unknown-syscall", "    li a7, 4242\n    syscall", "unknown syscall 4242"},
		{"write-too-large", "    li a0, 1\n    li a2, 0x7fffffff\n    li a7, 64\n    syscall", "write too large"},
		{"brk-out-of-range", "    li a0, 5\n    li a7, 214\n    syscall", "brk out of range"},
		{"undecodable", "    nop", "unimplemented op op(200)"},
		{"fall-off-text", "    nop", "pc outside text segment"},
	} {
		p := assembleT(t, tc.name, strings.ReplaceAll(fetchEdgeSrc, "%TAIL%", tc.tail))
		if tc.name == "undecodable" {
			p.Text[len(p.Text)-1].Op = isa.Op(200)
		}
		img := program.Load(p, program.LoadOptions{})
		code := Translate(img)
		if fused := fusedSlots(code); fused < len(fusedPairs) {
			t.Fatalf("%s: %d fused cells, want at least %d", tc.name, fused, len(fusedPairs))
		}
		steps, trap := lockstep(t, tc.name, p, 1000)
		if steps < 40 {
			t.Fatalf("%s: stopped after %d instructions", tc.name, steps)
		}
		if trap == nil || trap.Msg != tc.want {
			t.Errorf("%s: run ended with %v, want trap %q", tc.name, trap, tc.want)
		}
	}
}

// fusedSlots counts the fused cells of a translation.
func fusedSlots(c *Code) int {
	n := 0
	for i := range c.cells {
		if c.cells[i].width == 2 {
			n++
		}
	}
	return n
}

// fuzzProgram decodes data into a short text segment: four bytes per
// instruction (op, then rd/rs/rt and immediate or branch target taken
// from the next three), followed by an exit syscall. Op bytes just past
// the last defined op make undecodable instructions; direct targets stay
// inside the text. A syscall inside the body takes whatever A7 holds, so
// most are unknown-syscall traps, which Fetch must match too.
func fuzzProgram(data []byte) *program.Program {
	const maxInsts = 48
	n := len(data) / 4
	if n > maxInsts {
		n = maxInsts
	}
	total := uint64(n + 3)
	text := make([]isa.Instruction, 0, total)
	for i := 0; i < n; i++ {
		b := data[4*i : 4*i+4]
		inst := isa.Instruction{
			Op: isa.Op(int(b[0]) % (isa.NumOps + 2)),
			Rd: isa.Reg(b[1] % isa.NumRegs),
			Rs: isa.Reg(b[2] % isa.NumRegs),
			Rt: isa.Reg(b[3] % isa.NumRegs),
			// Small signed immediates keep memory traffic on a few pages.
			Imm: int64(int8(b[3]^b[1])) * 8,
		}
		switch inst.Op {
		case isa.JMP, isa.CALL, isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			inst.Target = uint64(b[1]) % total * isa.InstBytes
		case isa.LUI:
			inst.Imm = int64(int16(uint16(b[2])<<8 | uint16(b[3])))
		}
		text = append(text, inst)
	}
	text = append(text,
		isa.Instruction{Op: isa.LUI, Rd: isa.A7, Imm: SysExit},
		isa.Instruction{Op: isa.SYSCALL},
		isa.Instruction{Op: isa.NOP})
	return &program.Program{Module: "fuzz", Text: text}
}

// FuzzFetchMatchesStep steps Machine.Step and Code.Fetch in lockstep
// over generated text to exit, trap, or a step cap.
func FuzzFetchMatchesStep(f *testing.F) {
	f.Add([]byte{})
	// addi t0,x0; mul; a backward branch; an X0 load; an undecodable op.
	f.Add([]byte{
		byte(isa.ADDI), 5, 0, 3,
		byte(isa.LUI), 6, 1, 2,
		byte(isa.MUL), 7, 5, 6,
		byte(isa.ADD), 8, 7, 5,
		byte(isa.AND), 9, 8, 7,
		byte(isa.ADDI), 5, 5, 0xff,
		byte(isa.BNE), 1, 5, 0,
		byte(isa.LD), 0, 2, 1,
		byte(isa.LD), 6, 6, 0,
		byte(isa.NumOps), 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		lockstep(t, "fuzz", fuzzProgram(data), 4096)
	})
}
