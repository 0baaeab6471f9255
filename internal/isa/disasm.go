package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Disassemble renders inst as assembly text. Direct control-transfer targets
// are printed as hexadecimal module offsets; callers that know the symbol
// table (see internal/program) can substitute symbolic names.
func Disassemble(inst Instruction) string {
	var buf [48]byte
	return string(AppendDisassembly(buf[:0], inst))
}

// AppendDisassembly appends the text Disassemble returns for inst to b
// and returns the extended slice: the allocation-free form the report
// renderers call once per annotated instruction.
func AppendDisassembly(b []byte, inst Instruction) []byte {
	op := inst.Op
	b = append(b, op.String()...)
	switch op {
	case NOP, RET, SYSCALL:
		return b
	}
	b = append(b, ' ')
	switch op.Kind() {
	case KindALU, KindMul, KindDiv:
		switch op {
		case LUI:
			b = append(b, IntRegName(inst.Rd)...)
			return appendImm(append(b, ", "...), inst.Imm)
		case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI, SLTIU:
			b = append(b, IntRegName(inst.Rd)...)
			b = append(append(b, ", "...), IntRegName(inst.Rs)...)
			return appendImm(append(b, ", "...), inst.Imm)
		default:
			b = append(b, IntRegName(inst.Rd)...)
			b = append(append(b, ", "...), IntRegName(inst.Rs)...)
			return append(append(b, ", "...), IntRegName(inst.Rt)...)
		}
	case KindFPU, KindFDiv:
		switch op {
		case FSQRT, FNEG, FMOV:
			b = append(b, FPRegName(inst.Rd)...)
			return append(append(b, ", "...), FPRegName(inst.Rs)...)
		case FCVTDL, FMVDX:
			b = append(b, FPRegName(inst.Rd)...)
			return append(append(b, ", "...), IntRegName(inst.Rs)...)
		case FCVTLD, FMVXD:
			b = append(b, IntRegName(inst.Rd)...)
			return append(append(b, ", "...), FPRegName(inst.Rs)...)
		case FEQ, FLT, FLE:
			b = append(b, IntRegName(inst.Rd)...)
			b = append(append(b, ", "...), FPRegName(inst.Rs)...)
			return append(append(b, ", "...), FPRegName(inst.Rt)...)
		default:
			b = append(b, FPRegName(inst.Rd)...)
			b = append(append(b, ", "...), FPRegName(inst.Rs)...)
			return append(append(b, ", "...), FPRegName(inst.Rt)...)
		}
	case KindLoad:
		if op == FLD {
			b = append(b, FPRegName(inst.Rd)...)
		} else {
			b = append(b, IntRegName(inst.Rd)...)
		}
		return appendMem(append(b, ", "...), inst)
	case KindStore:
		if op == FST {
			b = append(b, FPRegName(inst.Rt)...)
		} else {
			b = append(b, IntRegName(inst.Rt)...)
		}
		return appendMem(append(b, ", "...), inst)
	case KindPrefetch:
		return appendMem(b, inst)
	case KindBranch:
		b = append(b, IntRegName(inst.Rs)...)
		b = append(append(b, ", "...), IntRegName(inst.Rt)...)
		return AppendHex(append(b, ", "...), inst.Target)
	case KindJump, KindCall:
		return AppendHex(b, inst.Target)
	case KindIndirect, KindIndCall:
		return append(b, IntRegName(inst.Rs)...)
	}
	// Any other op prints its mnemonic alone: drop the separator.
	return b[:len(b)-1]
}

func appendImm(b []byte, imm int64) []byte { return strconv.AppendInt(b, imm, 10) }

// AppendHex appends v as fmt's 0x%x renders it.
func AppendHex(b []byte, v uint64) []byte {
	return strconv.AppendUint(append(b, "0x"...), v, 16)
}

// appendMem appends a displacement(base) memory operand.
func appendMem(b []byte, inst Instruction) []byte {
	b = appendImm(b, inst.Imm)
	b = append(append(b, '('), IntRegName(inst.Rs)...)
	return append(b, ')')
}

// DisassembleAll renders a sequence of instructions, one per line, with
// module offsets, starting at offset base.
func DisassembleAll(insts []Instruction, base uint64) string {
	var b strings.Builder
	for i, inst := range insts {
		fmt.Fprintf(&b, "%6x:\t%s\n", base+uint64(i)*InstBytes, Disassemble(inst))
	}
	return b.String()
}
