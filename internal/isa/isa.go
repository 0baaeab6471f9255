// Package isa defines OWISA, the instruction set architecture profiled by
// this repository's OptiWISE reproduction.
//
// OWISA is a small 64-bit load/store RISC architecture designed to stand in
// for the x86-64 and AArch64 binaries the paper profiles. It carries exactly
// the properties OptiWISE depends on: every instruction has a unique address,
// control transfers are classifiable as direct/conditional/indirect/syscall,
// and integer/floating-point operations span a wide latency range (single
// cycle ALU up to non-pipelined division) so that per-instruction CPI is a
// meaningful, varied metric.
//
// Instructions occupy four bytes each; an instruction's address is always a
// multiple of four within its module.
package isa

import (
	"fmt"
	"strconv"
)

// InstBytes is the size of every OWISA instruction in bytes. Fixed-width
// encoding keeps address arithmetic trivial for the profilers.
const InstBytes = 4

// Reg identifies one of the 32 integer or 32 floating-point registers.
// Integer registers are X0..X31, floating-point registers are F0..F31.
// X0 is hard-wired to zero, matching common RISC practice.
type Reg uint8

// Integer register aliases with conventional roles. The ABI is enforced by
// convention only; the simulator treats all registers (except X0) uniformly.
const (
	X0  Reg = iota // hard-wired zero
	RA             // X1: return address (written by CALL)
	SP             // X2: stack pointer
	GP             // X3: global pointer
	TP             // X4: thread pointer (unused, reserved)
	T0             // X5: temporary
	T1             // X6
	T2             // X7
	FP             // X8: frame pointer (used by stack unwinding)
	S1             // X9: callee-saved
	A0             // X10: argument/result 0, syscall arg 0
	A1             // X11
	A2             // X12
	A3             // X13
	A4             // X14
	A5             // X15
	A6             // X16
	A7             // X17: syscall number
	S2             // X18: callee-saved
	S3             // X19
	S4             // X20
	S5             // X21
	S6             // X22
	S7             // X23
	S8             // X24
	S9             // X25
	S10            // X26
	S11            // X27
	T3             // X28: temporary
	T4             // X29
	T5             // X30
	T6             // X31
)

// NumRegs is the number of integer registers (and also of FP registers).
const NumRegs = 32

// Op enumerates every OWISA operation.
type Op uint8

// Operations. The comment after each op gives its assembly operand shape:
// rd = destination register, rs/rt = sources, imm = signed immediate,
// target = label/absolute address.
const (
	NOP Op = iota // nop

	// Integer ALU, register-register: op rd, rs, rt
	ADD
	SUB
	MUL
	MULH // high 64 bits of signed 128-bit product
	DIV  // signed divide; long-latency, non-pipelined
	DIVU // unsigned divide; long-latency, non-pipelined
	REM
	REMU
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT  // rd = (rs < rt) ? 1 : 0, signed
	SLTU // unsigned compare

	// Integer ALU, register-immediate: op rd, rs, imm
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI
	SLTIU

	// LUI rd, imm: rd = imm << 32 upper constant loader (imm is the full
	// value to place; the assembler accepts arbitrary 64-bit constants via
	// LI which expands to LUI+ORI as needed; in this simulator LUI simply
	// loads its 64-bit immediate).
	LUI

	// Conditional move: CMOVZ rd, rs, rt => if rt == 0 { rd = rs };
	// CMOVNZ rd, rs, rt => if rt != 0 { rd = rs }. These are the
	// branch-free selects used by the mcf case study (§VI-A).
	CMOVZ
	CMOVNZ

	// Memory: LD rd, imm(rs) / ST rt, imm(rs); 8-byte accesses.
	// Sub-word variants load/store 4 or 1 bytes (LW sign-extends).
	LD
	LW
	LBU
	ST
	SW
	SB
	// PREFETCH imm(rs): hints the cache hierarchy to fetch a line; never
	// faults. Used by the deepsjeng case study (§VI-B).
	PREFETCH

	// Floating point (operate on F registers): op fd, fs, ft
	FADD
	FSUB
	FMUL
	FDIV // long-latency, non-pipelined (bwaves case study, §VI-C)
	FMIN
	FMAX
	FSQRT // fd, fs
	FNEG  // fd, fs
	FMOV  // fd, fs
	// FP/int transfers and conversions.
	FCVTDL // fd, rs: int64 -> double
	FCVTLD // rd, fs: double -> int64 (truncating)
	FMVDX  // fd, rs: move raw bits int->fp
	FMVXD  // rd, fs: move raw bits fp->int
	// FP compares write an integer register: op rd, fs, ft
	FEQ
	FLT
	FLE
	// FP memory.
	FLD // fd, imm(rs)
	FST // ft, imm(rs)

	// Control transfer.
	JMP   // jmp target             — direct unconditional
	BEQ   // beq rs, rt, target     — direct conditional
	BNE   // bne rs, rt, target
	BLT   // blt rs, rt, target (signed)
	BGE   // bge rs, rt, target (signed)
	BLTU  // bltu rs, rt, target
	BGEU  // bgeu rs, rt, target
	CALL  // call target            — direct call, RA = PC+4
	JR    // jr rs                  — indirect jump
	CALLR // callr rs               — indirect call, RA = PC+4
	RET   // ret                    — indirect jump to RA

	// SYSCALL: number in A7, args in A0..A2, result in A0.
	SYSCALL

	numOps // sentinel; keep last
)

// NumOps is the number of defined operations.
const NumOps = int(numOps)

// Kind classifies an operation for the profilers and the pipeline model.
type Kind uint8

// Instruction kinds.
const (
	KindALU      Kind = iota // single-cycle integer op
	KindMul                  // pipelined multiplier
	KindDiv                  // non-pipelined integer divider
	KindFPU                  // pipelined FP op
	KindFDiv                 // non-pipelined FP divider / sqrt
	KindLoad                 // memory read
	KindStore                // memory write
	KindPrefetch             // cache hint
	KindBranch               // direct conditional branch
	KindJump                 // direct unconditional jump
	KindCall                 // direct call
	KindIndirect             // indirect jump (jr)
	KindIndCall              // indirect call (callr)
	KindReturn               // return (indirect via RA)
	KindSyscall              // system call
	KindNop
)

// Instruction is a decoded OWISA instruction. Programs hold instructions in
// this decoded form; there is no binary encoding step because nothing in the
// toolchain requires one (the "binary" the profilers consume is the decoded
// image plus its symbol and line tables, standing in for ELF+DWARF).
type Instruction struct {
	Op  Op
	Rd  Reg   // destination (integer or FP depending on Op)
	Rs  Reg   // source 1
	Rt  Reg   // source 2
	Imm int64 // immediate / memory displacement
	// Target is the absolute module-relative target offset for direct
	// control transfers (JMP/Bxx/CALL).
	Target uint64
}

// kinds maps each Op to its Kind.
var kinds = [numOps]Kind{
	NOP: KindNop,

	ADD: KindALU, SUB: KindALU, AND: KindALU, OR: KindALU, XOR: KindALU,
	SLL: KindALU, SRL: KindALU, SRA: KindALU, SLT: KindALU, SLTU: KindALU,
	ADDI: KindALU, ANDI: KindALU, ORI: KindALU, XORI: KindALU,
	SLLI: KindALU, SRLI: KindALU, SRAI: KindALU, SLTI: KindALU, SLTIU: KindALU,
	LUI: KindALU, CMOVZ: KindALU, CMOVNZ: KindALU,

	MUL: KindMul, MULH: KindMul,
	DIV: KindDiv, DIVU: KindDiv, REM: KindDiv, REMU: KindDiv,

	FADD: KindFPU, FSUB: KindFPU, FMUL: KindFPU, FMIN: KindFPU, FMAX: KindFPU,
	FNEG: KindFPU, FMOV: KindFPU, FCVTDL: KindFPU, FCVTLD: KindFPU,
	FMVDX: KindFPU, FMVXD: KindFPU, FEQ: KindFPU, FLT: KindFPU, FLE: KindFPU,
	FDIV: KindFDiv, FSQRT: KindFDiv,

	LD: KindLoad, LW: KindLoad, LBU: KindLoad, FLD: KindLoad,
	ST: KindStore, SW: KindStore, SB: KindStore, FST: KindStore,
	PREFETCH: KindPrefetch,

	JMP: KindJump,
	BEQ: KindBranch, BNE: KindBranch, BLT: KindBranch, BGE: KindBranch,
	BLTU: KindBranch, BGEU: KindBranch,
	CALL: KindCall, JR: KindIndirect, CALLR: KindIndCall, RET: KindReturn,
	SYSCALL: KindSyscall,
}

// Kind reports the classification of op.
func (op Op) Kind() Kind {
	if int(op) >= NumOps {
		return KindNop
	}
	return kinds[op]
}

// IsControlTransfer reports whether op may redirect the PC. These ops
// terminate DBI dynamic blocks (§IV-C).
func (op Op) IsControlTransfer() bool {
	switch op.Kind() {
	case KindBranch, KindJump, KindCall, KindIndirect, KindIndCall,
		KindReturn, KindSyscall:
		return true
	}
	return false
}

// IsConditional reports whether op is a direct conditional branch.
func (op Op) IsConditional() bool { return op.Kind() == KindBranch }

// IsIndirect reports whether op's target is unknown until execution
// (indirect jumps, indirect calls, and returns).
func (op Op) IsIndirect() bool {
	switch op.Kind() {
	case KindIndirect, KindIndCall, KindReturn:
		return true
	}
	return false
}

// IsCall reports whether op is a (direct or indirect) call: it pushes a
// return address and a stack-profiling frame (§IV-D, Algorithm 1).
func (op Op) IsCall() bool {
	k := op.Kind()
	return k == KindCall || k == KindIndCall
}

// IsReturn reports whether op pops a stack-profiling frame.
func (op Op) IsReturn() bool { return op.Kind() == KindReturn }

// IsMemAccess reports whether op reads or writes data memory.
func (op Op) IsMemAccess() bool {
	k := op.Kind()
	return k == KindLoad || k == KindStore
}

// ReadsFP reports whether the Rs/Rt operands name FP registers.
func (op Op) ReadsFP() bool {
	switch op {
	case FADD, FSUB, FMUL, FDIV, FMIN, FMAX, FSQRT, FNEG, FMOV,
		FCVTLD, FMVXD, FEQ, FLT, FLE, FST:
		return true
	}
	return false
}

// WritesFP reports whether Rd names an FP register.
func (op Op) WritesFP() bool {
	switch op {
	case FADD, FSUB, FMUL, FDIV, FMIN, FMAX, FSQRT, FNEG, FMOV,
		FCVTDL, FMVDX, FLD:
		return true
	}
	return false
}

// opNames maps ops to their assembly mnemonics.
var opNames = [numOps]string{
	NOP: "nop",
	ADD: "add", SUB: "sub", MUL: "mul", MULH: "mulh",
	DIV: "div", DIVU: "divu", REM: "rem", REMU: "remu",
	AND: "and", OR: "or", XOR: "xor",
	SLL: "sll", SRL: "srl", SRA: "sra", SLT: "slt", SLTU: "sltu",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori",
	SLLI: "slli", SRLI: "srli", SRAI: "srai", SLTI: "slti", SLTIU: "sltiu",
	LUI: "lui", CMOVZ: "cmovz", CMOVNZ: "cmovnz",
	LD: "ld", LW: "lw", LBU: "lbu", ST: "st", SW: "sw", SB: "sb",
	PREFETCH: "prefetch",
	FADD:     "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
	FMIN: "fmin", FMAX: "fmax", FSQRT: "fsqrt", FNEG: "fneg", FMOV: "fmov",
	FCVTDL: "fcvt.d.l", FCVTLD: "fcvt.l.d", FMVDX: "fmv.d.x", FMVXD: "fmv.x.d",
	FEQ: "feq", FLT: "flt", FLE: "fle", FLD: "fld", FST: "fst",
	JMP: "jmp", BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
	BLTU: "bltu", BGEU: "bgeu",
	CALL: "call", JR: "jr", CALLR: "callr", RET: "ret",
	SYSCALL: "syscall",
}

// String returns op's assembly mnemonic.
func (op Op) String() string {
	if int(op) >= NumOps || opNames[op] == "" {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opNames[op]
}

// OpByName maps an assembly mnemonic to its Op. It reports false for
// unknown mnemonics.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}

var opsByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); op < numOps; op++ {
		if n := opNames[op]; n != "" {
			m[n] = op
		}
	}
	return m
}()

// intRegNames holds the canonical (ABI) names for integer registers.
var intRegNames = [NumRegs]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"fp", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// IntRegName returns the ABI name of integer register r.
func IntRegName(r Reg) string {
	if int(r) < NumRegs {
		return intRegNames[r]
	}
	return fmt.Sprintf("x%d", uint8(r))
}

// FPRegName returns the name of floating-point register r.
func FPRegName(r Reg) string { return fpRegNames[r] }

// fpRegNames holds "f0" … "f255", one name for every Reg value.
var fpRegNames = func() (names [1 << 8]string) {
	for i := range names {
		names[i] = "f" + strconv.Itoa(i)
	}
	return names
}()

// IntRegByName resolves an integer register by ABI name ("a0") or numeric
// name ("x10").
func IntRegByName(name string) (Reg, bool) {
	r, ok := intRegsByName[name]
	return r, ok
}

var intRegsByName = func() map[string]Reg {
	m := make(map[string]Reg, 2*NumRegs)
	for i := 0; i < NumRegs; i++ {
		m[intRegNames[i]] = Reg(i)
		m[fmt.Sprintf("x%d", i)] = Reg(i)
	}
	return m
}()

// FPRegByName resolves an FP register by its canonical name ("f7"):
// exactly the names FPRegName returns, so "f07", "f+1" and "F1" are not
// registers.
func FPRegByName(name string) (Reg, bool) {
	r, ok := fpRegsByName[name]
	return r, ok
}

var fpRegsByName = func() map[string]Reg {
	m := make(map[string]Reg, NumRegs)
	for i := 0; i < NumRegs; i++ {
		m[FPRegName(Reg(i))] = Reg(i)
	}
	return m
}()
