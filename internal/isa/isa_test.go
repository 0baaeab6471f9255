package isa

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestOpNamesComplete(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if opNames[op] == "" {
			t.Errorf("op %d has no mnemonic", op)
		}
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		got, ok := OpByName(op.String())
		if !ok {
			t.Fatalf("OpByName(%q) not found", op.String())
		}
		if got != op {
			t.Errorf("OpByName(%q) = %v, want %v", op.String(), got, op)
		}
	}
}

func TestOpByNameUnknown(t *testing.T) {
	if _, ok := OpByName("frobnicate"); ok {
		t.Error("OpByName accepted unknown mnemonic")
	}
}

func TestKindClassification(t *testing.T) {
	cases := []struct {
		op   Op
		kind Kind
	}{
		{ADD, KindALU}, {ADDI, KindALU}, {CMOVZ, KindALU}, {LUI, KindALU},
		{MUL, KindMul}, {DIV, KindDiv}, {REMU, KindDiv},
		{FADD, KindFPU}, {FDIV, KindFDiv}, {FSQRT, KindFDiv},
		{LD, KindLoad}, {FLD, KindLoad}, {LBU, KindLoad},
		{ST, KindStore}, {FST, KindStore}, {SB, KindStore},
		{PREFETCH, KindPrefetch},
		{BEQ, KindBranch}, {BGEU, KindBranch},
		{JMP, KindJump}, {CALL, KindCall},
		{JR, KindIndirect}, {CALLR, KindIndCall}, {RET, KindReturn},
		{SYSCALL, KindSyscall}, {NOP, KindNop},
	}
	for _, c := range cases {
		if got := c.op.Kind(); got != c.kind {
			t.Errorf("%v.Kind() = %v, want %v", c.op, got, c.kind)
		}
	}
}

func TestControlTransferClassification(t *testing.T) {
	transfers := []Op{JMP, BEQ, BNE, BLT, BGE, BLTU, BGEU, CALL, JR, CALLR, RET, SYSCALL}
	for _, op := range transfers {
		if !op.IsControlTransfer() {
			t.Errorf("%v should be a control transfer", op)
		}
	}
	for _, op := range []Op{ADD, LD, ST, FDIV, NOP, PREFETCH, CMOVZ} {
		if op.IsControlTransfer() {
			t.Errorf("%v should not be a control transfer", op)
		}
	}
}

func TestIndirectClassification(t *testing.T) {
	for _, op := range []Op{JR, CALLR, RET} {
		if !op.IsIndirect() {
			t.Errorf("%v should be indirect", op)
		}
	}
	for _, op := range []Op{JMP, BEQ, CALL, SYSCALL} {
		if op.IsIndirect() {
			t.Errorf("%v should not be indirect", op)
		}
	}
}

func TestCallReturnClassification(t *testing.T) {
	if !CALL.IsCall() || !CALLR.IsCall() {
		t.Error("CALL/CALLR should be calls")
	}
	if JR.IsCall() || RET.IsCall() || JMP.IsCall() {
		t.Error("JR/RET/JMP should not be calls")
	}
	if !RET.IsReturn() || JR.IsReturn() {
		t.Error("return classification wrong")
	}
}

func TestFPRegisterClassification(t *testing.T) {
	if !FADD.WritesFP() || !FADD.ReadsFP() {
		t.Error("FADD should read and write FP")
	}
	if !FCVTDL.WritesFP() || FCVTDL.ReadsFP() {
		t.Error("FCVTDL writes FP, reads int")
	}
	if FCVTLD.WritesFP() || !FCVTLD.ReadsFP() {
		t.Error("FCVTLD writes int, reads FP")
	}
	if !FLD.WritesFP() || !FST.ReadsFP() {
		t.Error("FP memory classification wrong")
	}
	if ADD.WritesFP() || ADD.ReadsFP() {
		t.Error("ADD is integer-only")
	}
}

func TestIntRegNameRoundTrip(t *testing.T) {
	for i := 0; i < NumRegs; i++ {
		name := IntRegName(Reg(i))
		r, ok := IntRegByName(name)
		if !ok || r != Reg(i) {
			t.Errorf("IntRegByName(%q) = %v,%v want %d", name, r, ok, i)
		}
	}
	// Numeric aliases.
	if r, ok := IntRegByName("x10"); !ok || r != A0 {
		t.Errorf("x10 should alias a0, got %v,%v", r, ok)
	}
}

func TestFPRegByName(t *testing.T) {
	for i := 0; i < NumRegs; i++ {
		r, ok := FPRegByName(FPRegName(Reg(i)))
		if !ok || r != Reg(i) {
			t.Errorf("FPRegByName(f%d) failed", i)
		}
	}
	for _, bad := range []string{"f32", "f-1", "f7x", "g2", "f"} {
		if _, ok := FPRegByName(bad); ok {
			t.Errorf("FPRegByName(%q) should fail", bad)
		}
	}
}

// fpRegByNameFmt is the fmt-based FPRegByName the lookup table
// replaced, kept as the reference for the set of accepted names.
func fpRegByNameFmt(name string) (Reg, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "f%d", &n); err != nil || n < 0 || n >= NumRegs {
		return 0, false
	}
	// Reject trailing garbage such as "f7x".
	if fmt.Sprintf("f%d", n) != name {
		return 0, false
	}
	return Reg(n), true
}

// TestFPRegByNameMatchesFmt compares FPRegByName with the reference over
// every f-number below 1000 in many spellings: signs, leading zeros and
// spaces, case, and trailing bytes.
func TestFPRegByNameMatchesFmt(t *testing.T) {
	corpus := []string{"", "f", "F", "f+", "f-", "f ", " f1", "g2", "x1", "fa", "f0x1"}
	for n := 0; n < 1000; n++ {
		for _, num := range []string{fmt.Sprint(n), fmt.Sprintf("%02d", n), fmt.Sprintf("%03d", n),
			"+" + fmt.Sprint(n), "-" + fmt.Sprint(n), " " + fmt.Sprint(n)} {
			for _, head := range []string{"f", "F"} {
				for _, tail := range []string{"", "x", " ", "0", "\n", ",", "f"} {
					corpus = append(corpus, head+num+tail)
				}
			}
		}
	}
	accepted := make(map[string]bool)
	for _, name := range corpus {
		got, gotOK := FPRegByName(name)
		want, wantOK := fpRegByNameFmt(name)
		if got != want || gotOK != wantOK {
			t.Errorf("FPRegByName(%q) = %v,%v, reference %v,%v", name, got, gotOK, want, wantOK)
		}
		if gotOK {
			accepted[name] = true
		}
	}
	if len(accepted) != NumRegs {
		t.Errorf("corpus accepted %d distinct names, want the %d canonical ones", len(accepted), NumRegs)
	}
}

// Property: every op's kind is stable and every control-transfer op is
// exactly one of the five transfer kinds.
func TestKindPartition(t *testing.T) {
	f := func(raw uint8) bool {
		op := Op(raw % uint8(numOps))
		ct := op.IsControlTransfer()
		k := op.Kind()
		isTransferKind := k == KindBranch || k == KindJump || k == KindCall ||
			k == KindIndirect || k == KindIndCall || k == KindReturn || k == KindSyscall
		return ct == isTransferKind
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisassembleForms(t *testing.T) {
	cases := []struct {
		inst Instruction
		want string
	}{
		{Instruction{Op: NOP}, "nop"},
		{Instruction{Op: ADD, Rd: A0, Rs: A1, Rt: A2}, "add a0, a1, a2"},
		{Instruction{Op: ADDI, Rd: SP, Rs: SP, Imm: -16}, "addi sp, sp, -16"},
		{Instruction{Op: LUI, Rd: T0, Imm: 4096}, "lui t0, 4096"},
		{Instruction{Op: LD, Rd: A0, Rs: SP, Imm: 8}, "ld a0, 8(sp)"},
		{Instruction{Op: ST, Rt: A0, Rs: SP, Imm: 8}, "st a0, 8(sp)"},
		{Instruction{Op: FLD, Rd: 3, Rs: A0, Imm: 0}, "fld f3, 0(a0)"},
		{Instruction{Op: FST, Rt: 3, Rs: A0, Imm: 16}, "fst f3, 16(a0)"},
		{Instruction{Op: PREFETCH, Rs: A0, Imm: 64}, "prefetch 64(a0)"},
		{Instruction{Op: FADD, Rd: 1, Rs: 2, Rt: 3}, "fadd f1, f2, f3"},
		{Instruction{Op: FSQRT, Rd: 1, Rs: 2}, "fsqrt f1, f2"},
		{Instruction{Op: FCVTDL, Rd: 1, Rs: A0}, "fcvt.d.l f1, a0"},
		{Instruction{Op: FCVTLD, Rd: A0, Rs: 1}, "fcvt.l.d a0, f1"},
		{Instruction{Op: FLT, Rd: A0, Rs: 1, Rt: 2}, "flt a0, f1, f2"},
		{Instruction{Op: BEQ, Rs: A0, Rt: X0, Target: 0x40}, "beq a0, zero, 0x40"},
		{Instruction{Op: JMP, Target: 0x100}, "jmp 0x100"},
		{Instruction{Op: CALL, Target: 0x200}, "call 0x200"},
		{Instruction{Op: JR, Rs: T0}, "jr t0"},
		{Instruction{Op: CALLR, Rs: T1}, "callr t1"},
		{Instruction{Op: RET}, "ret"},
		{Instruction{Op: SYSCALL}, "syscall"},
		{Instruction{Op: CMOVZ, Rd: A0, Rs: A1, Rt: A2}, "cmovz a0, a1, a2"},
	}
	for _, c := range cases {
		if got := Disassemble(c.inst); got != c.want {
			t.Errorf("Disassemble(%+v) = %q, want %q", c.inst, got, c.want)
		}
	}
}

func TestDisassembleAll(t *testing.T) {
	out := DisassembleAll([]Instruction{
		{Op: NOP},
		{Op: RET},
	}, 0x10)
	want := "    10:\tnop\n    14:\tret\n"
	if out != want {
		t.Errorf("DisassembleAll = %q, want %q", out, want)
	}
}
