package ooo

import (
	"fmt"
	"slices"
	"testing"

	"optiwise/internal/isa"
)

// refRename is the reference renaming rule: per instruction, the
// lastWriter slots (0-31 int, 32-63 fp) its sources read, in order and
// with repeats, and the slots it claims. It is the rule dispatch used to
// apply to every dynamic instruction, kept here verbatim in shape so
// predecode's table can be checked against it.
func refRename(inst isa.Instruction) (srcs []int8, writes [2]int8) {
	op := inst.Op
	addDep := func(r isa.Reg, fp bool) {
		if !fp && r == isa.X0 {
			return
		}
		idx := int(r)
		if fp {
			idx += 32
		}
		srcs = append(srcs, int8(idx))
	}

	switch op.Kind() {
	case isa.KindLoad, isa.KindPrefetch:
		addDep(inst.Rs, false)
	case isa.KindStore:
		addDep(inst.Rs, false)
		addDep(inst.Rt, op.ReadsFP())
	case isa.KindBranch:
		addDep(inst.Rs, false)
		addDep(inst.Rt, false)
	case isa.KindIndirect, isa.KindIndCall:
		addDep(inst.Rs, false)
	case isa.KindJump, isa.KindCall, isa.KindReturn, isa.KindSyscall, isa.KindNop:
		if op == isa.RET {
			addDep(isa.RA, false)
		}
		if op == isa.SYSCALL {
			addDep(isa.A7, false)
			addDep(isa.A0, false)
		}
	default:
		// ALU / FP compute.
		switch op {
		case isa.LUI:
			// no sources
		case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI,
			isa.SRAI, isa.SLTI, isa.SLTIU:
			addDep(inst.Rs, false)
		case isa.CMOVZ, isa.CMOVNZ:
			addDep(inst.Rs, false)
			addDep(inst.Rt, false)
			addDep(inst.Rd, false) // old value conditionally survives
		case isa.FSQRT, isa.FNEG, isa.FMOV:
			addDep(inst.Rs, true)
		case isa.FCVTDL, isa.FMVDX:
			addDep(inst.Rs, false)
		case isa.FCVTLD, isa.FMVXD:
			addDep(inst.Rs, true)
		case isa.FEQ, isa.FLT, isa.FLE:
			addDep(inst.Rs, true)
			addDep(inst.Rt, true)
		default:
			fp := op.ReadsFP()
			addDep(inst.Rs, fp)
			addDep(inst.Rt, fp)
		}
	}

	// Writer slots: writes[0] the destination (or RA for calls),
	// writes[1] A0 for syscalls.
	writes = [2]int8{-1, -1}
	if d, fp, ok := refDest(inst); ok {
		idx := int(d)
		if fp {
			idx += 32
		}
		if idx != 0 || fp {
			writes[0] = int8(idx)
		}
	}
	if op.IsCall() {
		writes[0] = int8(isa.RA)
	}
	if op == isa.SYSCALL {
		writes[1] = int8(isa.A0)
	}
	return srcs, writes
}

// refDest reports the destination register of inst, and whether it is an
// FP register.
func refDest(inst isa.Instruction) (isa.Reg, bool, bool) {
	op := inst.Op
	switch op.Kind() {
	case isa.KindLoad:
		return inst.Rd, op.WritesFP(), true
	case isa.KindALU, isa.KindMul, isa.KindDiv:
		return inst.Rd, false, true
	case isa.KindFPU, isa.KindFDiv:
		return inst.Rd, op.WritesFP(), true
	}
	return 0, false, false
}

// TestPredecodeMatchesReference checks every op (and two undecodable
// op values) under every operand combination drawn from X0, RA, A0, A7
// and two ordinary registers, repeats included.
func TestPredecodeMatchesReference(t *testing.T) {
	regs := []isa.Reg{isa.X0, isa.RA, isa.T0, isa.T1, isa.A0, isa.A7}
	var text []isa.Instruction
	for op := 0; op < isa.NumOps+2; op++ {
		for _, rd := range regs {
			for _, rs := range regs {
				for _, rt := range regs {
					text = append(text, isa.Instruction{Op: isa.Op(op), Rd: rd, Rs: rs, Rt: rt, Imm: 8})
				}
			}
		}
	}
	tab := predecode(text)
	if len(tab) != len(text) {
		t.Fatalf("predecode: %d entries for %d slots", len(tab), len(text))
	}
	for i, inst := range text {
		d := tab[i]
		srcs, writes := refRename(inst)
		if got := d.srcs[:d.nsrc]; !slices.Equal(got, srcs) || d.writes != writes ||
			d.op != inst.Op || d.kind != inst.Op.Kind() {
			t.Fatalf("%v rd=%d rs=%d rt=%d: predecode srcs=%v writes=%v op=%v kind=%d, reference srcs=%v writes=%v",
				inst.Op, inst.Rd, inst.Rs, inst.Rt, got, d.writes, d.op, d.kind, srcs, writes)
		}
	}
}

// TestPredecodeCases pins the renaming of a few instructions by hand, so
// the reference itself is checked too.
func TestPredecodeCases(t *testing.T) {
	x5, x6, x7 := isa.T0, isa.T1, isa.T2
	for _, tc := range []struct {
		inst   isa.Instruction
		srcs   []int8
		writes [2]int8
	}{
		// A repeated source counts twice toward pending.
		{isa.Instruction{Op: isa.ADD, Rd: x5, Rs: x6, Rt: x6}, []int8{6, 6}, [2]int8{5, -1}},
		// X0 is never a source or a destination slot.
		{isa.Instruction{Op: isa.ADD, Rd: isa.X0, Rs: isa.X0, Rt: x6}, []int8{6}, [2]int8{-1, -1}},
		{isa.Instruction{Op: isa.LD, Rd: isa.X0, Rs: x5}, []int8{5}, [2]int8{-1, -1}},
		// F0 is an ordinary FP register: slot 32.
		{isa.Instruction{Op: isa.FLD, Rd: 0, Rs: isa.X0}, nil, [2]int8{32, -1}},
		{isa.Instruction{Op: isa.FADD, Rd: 1, Rs: 2, Rt: 0}, []int8{34, 32}, [2]int8{33, -1}},
		{isa.Instruction{Op: isa.FST, Rs: x5, Rt: 0}, []int8{5, 32}, [2]int8{-1, -1}},
		{isa.Instruction{Op: isa.FCVTLD, Rd: x7, Rs: 3}, []int8{35}, [2]int8{7, -1}},
		{isa.Instruction{Op: isa.FCVTDL, Rd: 3, Rs: x7}, []int8{7}, [2]int8{35, -1}},
		{isa.Instruction{Op: isa.FEQ, Rd: x5, Rs: 1, Rt: 1}, []int8{33, 33}, [2]int8{5, -1}},
		// CMOV reads its destination: the old value may survive.
		{isa.Instruction{Op: isa.CMOVZ, Rd: x5, Rs: x6, Rt: x7}, []int8{6, 7, 5}, [2]int8{5, -1}},
		{isa.Instruction{Op: isa.CALLR, Rs: isa.RA}, []int8{1}, [2]int8{1, -1}},
		{isa.Instruction{Op: isa.RET}, []int8{1}, [2]int8{-1, -1}},
		{isa.Instruction{Op: isa.SYSCALL}, []int8{17, 10}, [2]int8{-1, 10}},
		{isa.Instruction{Op: isa.LUI, Rd: x5, Rs: x6, Rt: x7}, nil, [2]int8{5, -1}},
	} {
		name := fmt.Sprintf("%v rd=%d rs=%d rt=%d", tc.inst.Op, tc.inst.Rd, tc.inst.Rs, tc.inst.Rt)
		d := predecode([]isa.Instruction{tc.inst})[0]
		if got := d.srcs[:d.nsrc]; !slices.Equal(got, tc.srcs) || d.writes != tc.writes {
			t.Errorf("%s: predecode srcs=%v writes=%v, want %v %v", name, got, d.writes, tc.srcs, tc.writes)
		}
		if srcs, writes := refRename(tc.inst); !slices.Equal(srcs, tc.srcs) || writes != tc.writes {
			t.Errorf("%s: reference srcs=%v writes=%v, want %v %v", name, srcs, writes, tc.srcs, tc.writes)
		}
	}
}

// TestPredecodeFlags checks each op's slotFlags against the predicates
// the pipeline stages used to derive per uop from its kind.
func TestPredecodeFlags(t *testing.T) {
	for op := isa.Op(0); int(op) < isa.NumOps+2; op++ {
		k := op.Kind()
		endsGroup := false
		switch k {
		case isa.KindJump, isa.KindCall, isa.KindIndirect, isa.KindIndCall, isa.KindReturn:
			endsGroup = true
		}
		f := predecode([]isa.Instruction{{Op: op}})[0].flags
		for _, c := range []struct {
			name string
			flag slotFlags
			want bool
		}{
			{"branch", fBranch, refIsBranchKind(k)},
			{"can-abort", fCanAbort, refCanAbort(k)},
			{"call", fCall, op.IsCall()},
			{"return", fReturn, op.IsReturn()},
			{"conditional", fConditional, op.IsConditional()},
			{"indirect", fIndirect, op.IsIndirect()},
			{"ends-group", fEndsGroup, endsGroup},
		} {
			if got := f&c.flag != 0; got != c.want {
				t.Errorf("%v (kind %d): %s flag %v, want %v", op, k, c.name, got, c.want)
			}
		}
	}
}
