package isa

import (
	"fmt"
	"testing"
)

// disassembleReference is the fmt-based disassembler AppendDisassembly
// replaced, kept verbatim (with its own FP register names) as the
// reference the append path must match byte for byte.
func disassembleReference(inst Instruction) string {
	op := inst.Op
	switch op {
	case NOP:
		return "nop"
	case RET:
		return "ret"
	case SYSCALL:
		return "syscall"
	}
	switch op.Kind() {
	case KindALU, KindMul, KindDiv:
		switch op {
		case LUI:
			return fmt.Sprintf("%s %s, %d", op, IntRegName(inst.Rd), inst.Imm)
		case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI, SLTIU:
			return fmt.Sprintf("%s %s, %s, %d", op,
				IntRegName(inst.Rd), IntRegName(inst.Rs), inst.Imm)
		default:
			return fmt.Sprintf("%s %s, %s, %s", op,
				IntRegName(inst.Rd), IntRegName(inst.Rs), IntRegName(inst.Rt))
		}
	case KindFPU, KindFDiv:
		switch op {
		case FSQRT, FNEG, FMOV:
			return fmt.Sprintf("%s %s, %s", op, refFPRegName(inst.Rd), refFPRegName(inst.Rs))
		case FCVTDL, FMVDX:
			return fmt.Sprintf("%s %s, %s", op, refFPRegName(inst.Rd), IntRegName(inst.Rs))
		case FCVTLD, FMVXD:
			return fmt.Sprintf("%s %s, %s", op, IntRegName(inst.Rd), refFPRegName(inst.Rs))
		case FEQ, FLT, FLE:
			return fmt.Sprintf("%s %s, %s, %s", op,
				IntRegName(inst.Rd), refFPRegName(inst.Rs), refFPRegName(inst.Rt))
		default:
			return fmt.Sprintf("%s %s, %s, %s", op,
				refFPRegName(inst.Rd), refFPRegName(inst.Rs), refFPRegName(inst.Rt))
		}
	case KindLoad:
		if op == FLD {
			return fmt.Sprintf("%s %s, %d(%s)", op,
				refFPRegName(inst.Rd), inst.Imm, IntRegName(inst.Rs))
		}
		return fmt.Sprintf("%s %s, %d(%s)", op,
			IntRegName(inst.Rd), inst.Imm, IntRegName(inst.Rs))
	case KindStore:
		if op == FST {
			return fmt.Sprintf("%s %s, %d(%s)", op,
				refFPRegName(inst.Rt), inst.Imm, IntRegName(inst.Rs))
		}
		return fmt.Sprintf("%s %s, %d(%s)", op,
			IntRegName(inst.Rt), inst.Imm, IntRegName(inst.Rs))
	case KindPrefetch:
		return fmt.Sprintf("%s %d(%s)", op, inst.Imm, IntRegName(inst.Rs))
	case KindBranch:
		return fmt.Sprintf("%s %s, %s, 0x%x", op,
			IntRegName(inst.Rs), IntRegName(inst.Rt), inst.Target)
	case KindJump, KindCall:
		return fmt.Sprintf("%s 0x%x", op, inst.Target)
	case KindIndirect, KindIndCall:
		return fmt.Sprintf("%s %s", op, IntRegName(inst.Rs))
	}
	return op.String()
}

// refFPRegName is FPRegName as it was before the name table.
func refFPRegName(r Reg) string { return fmt.Sprintf("f%d", uint8(r)) }

// checkDisassembly compares both disassemblers on inst, and checks that
// the append form extends its destination without touching its prefix.
func checkDisassembly(t *testing.T, inst Instruction) {
	t.Helper()
	want := disassembleReference(inst)
	if got := Disassemble(inst); got != want {
		t.Fatalf("Disassemble(%+v) = %q, reference %q", inst, got, want)
	}
	prefix := []byte("0x10  ")
	got := AppendDisassembly(prefix, inst)
	if string(got) != "0x10  "+want {
		t.Fatalf("AppendDisassembly(%q, %+v) = %q, want prefix + %q", prefix, inst, got, want)
	}
}

// TestDisassemblyMatchesReference runs every op, in range and out, with
// in-range, out-of-range and extreme operands.
func TestDisassemblyMatchesReference(t *testing.T) {
	for op := 0; op < 1<<8; op++ {
		for _, inst := range []Instruction{
			{Op: Op(op)},
			{Op: Op(op), Rd: A0, Rs: SP, Rt: T6, Imm: -16, Target: 0x40},
			{Op: Op(op), Rd: 31, Rs: 32, Rt: 255, Imm: -1 << 63, Target: 1<<64 - 1},
			{Op: Op(op), Rd: 200, Rs: 7, Rt: 64, Imm: 1<<63 - 1, Target: 4},
		} {
			checkDisassembly(t, inst)
		}
	}
}

func TestFPRegNameTable(t *testing.T) {
	for r := 0; r < 1<<8; r++ {
		if got, want := FPRegName(Reg(r)), refFPRegName(Reg(r)); got != want {
			t.Errorf("FPRegName(%d) = %q, want %q", r, got, want)
		}
	}
}

// FuzzDisassemble drives arbitrary Instruction values — out-of-range
// ops and registers included — through the append disassembler and
// the fmt reference.
func FuzzDisassemble(f *testing.F) {
	f.Add(uint8(ADDI), uint8(SP), uint8(SP), uint8(0), int64(-16), uint64(0))
	f.Add(uint8(FLD), uint8(3), uint8(A0), uint8(0), int64(8), uint64(0))
	f.Add(uint8(BEQ), uint8(0), uint8(A0), uint8(X0), int64(0), uint64(0x40))
	f.Add(uint8(numOps), uint8(40), uint8(255), uint8(99), int64(-1), uint64(1<<63))
	f.Fuzz(func(t *testing.T, op, rd, rs, rt uint8, imm int64, target uint64) {
		checkDisassembly(t, Instruction{Op: Op(op), Rd: Reg(rd), Rs: Reg(rs), Rt: Reg(rt), Imm: imm, Target: target})
	})
}
