package interp

// Direct-threaded execution engine: the translate-once/dispatch-fast
// alternative to the Step switch. Translate decodes every text slot into
// a cell holding a handler func pointer plus fully pre-resolved operands
// (absolute branch targets, immediates, X0-writes folded to no-ops), so
// the dispatch loop is an indirect call per instruction with no operand
// decoding, no StepResult materialization for straight-line code, and
// batched Steps/PC bookkeeping at block granularity.
//
// Adjacent straight-line instructions are additionally fused into
// superinstructions for the highest-frequency decoded pairs. The pair
// set was chosen by a dynamic census over the 23-workload suite
// (fraction of all straight-line pairs):
//
//	add;and 12.1%   lui;add 11.4%   mul;lui 11.0%
//	lui;mul 11.0%   and;add  9.7%   add;ld   6.8%
//
// Fusion is a per-slot overlay: cell i's handler executes instructions
// i and i+1 and the walk advances by the cell's width, while cell i+1
// keeps its own unfused handler so control transfers may still land on
// it — any entry offset executes the identical architectural sequence.
//
// Four dispatch surfaces share one translation:
//
//   - ExecBlock: one discovered DBI block (straight-line burst + the
//     terminator's StepResult) — the instrumented fast path.
//   - RunCold: uninstrumented execution for tiered profiling — runs
//     until control lands on a hot cell, with optional call/ret hooks
//     so Algorithm 1 stack profiling stays exact across cold code.
//   - RunContext: a whole-program run equivalent to Machine.RunContext.
//   - Fetch: exactly one instruction, Step's equivalent for the
//     pipeline simulator's front end, which must observe the machine
//     between every two instructions.

import (
	"context"
	"fmt"
	"math"

	"optiwise/internal/fault"
	"optiwise/internal/isa"
	"optiwise/internal/program"
)

// handler executes one (or, for fused cells, two) straight-line
// instructions. Handlers are infallible: every fallible operation
// (control transfer, syscall, undecodable op) is a terminator cell
// executed by execTerm instead.
type handler func(m *Machine, c *cell)

// Terminator kinds. tNone marks straight-line cells.
const (
	tNone uint8 = iota
	tJMP
	tBR
	tCALL
	tJR
	tCALLR
	tRET
	tSYS
	tBAD // undecodable op or the off-text sentinel
)

// cell is the translated form of one instruction slot.
type cell struct {
	fn handler
	// one is the unfused handler of this slot's own instruction; fn
	// differs from it only for the head of a fused pair.
	one   handler
	width uint8 // instruction slots consumed: 1, or 2 for a fused pair
	kind  uint8 // terminator kind; tNone for straight-line cells
	hot   bool  // tiered profiling: slot lies in an instrumented range
	mem   bool  // load, store or prefetch: Fetch reports rs+imm

	rd, rs, rt isa.Reg
	imm        int64
	// Second-instruction operands of a fused pair.
	rd2, rs2, rt2 isa.Reg
	imm2          int64

	// addr is the pre-resolved absolute target of direct transfers.
	addr uint64
	// inst is the original instruction, kept for terminator StepResults.
	inst isa.Instruction
}

// Code is the direct-threaded translation of one loaded image.
type Code struct {
	img *program.Image
	// cells has one entry per text slot plus a tBAD sentinel so
	// straight-line bursts cannot run past the text end.
	cells []cell
	base  uint64 // img.TextBase
}

// Translate builds the direct-threaded code for img. Translation is a
// single linear decode pass plus the fusion peephole; its cost is
// proportional to the static text size, charged once per run.
func Translate(img *program.Image) *Code {
	n := int(img.Prog.TextSize() / isa.InstBytes)
	c := &Code{img: img, cells: make([]cell, n+1), base: img.TextBase}
	for i := 0; i < n; i++ {
		inst, _ := img.Prog.InstAt(uint64(i) * isa.InstBytes)
		c.translateCell(&c.cells[i], inst)
	}
	// Sentinel: executing past the last instruction is a trap, exactly
	// like Step's pc-outside-text check.
	c.cells[n] = cell{kind: tBAD, width: 1, inst: isa.Instruction{Op: isa.NOP}}
	c.fuse()
	return c
}

// SetHot marks every slot in the module-offset range [lo, hi) as hot.
// RunCold stops when control reaches a hot slot — by transfer or by
// straight-line fall-through — returning the program to instrumented
// execution.
func (c *Code) SetHot(lo, hi uint64) {
	for off := lo; off < hi && off/isa.InstBytes < uint64(len(c.cells)-1); off += isa.InstBytes {
		c.cells[off/isa.InstBytes].hot = true
	}
	// A fused pair whose head is cold but whose second slot is the first
	// hot slot would execute that hot instruction inside a cold burst;
	// split it so the burst's per-cell hot check sees the boundary.
	if i := lo / isa.InstBytes; i > 0 && i < uint64(len(c.cells)-1) {
		if prev := &c.cells[i-1]; prev.width == 2 && !prev.hot {
			prev.fn = prev.one
			prev.width = 1
		}
	}
}

// Hot reports whether the slot at module offset off is hot.
func (c *Code) Hot(off uint64) bool {
	i := off / isa.InstBytes
	if i >= uint64(len(c.cells)-1) {
		return false
	}
	return c.cells[i].hot
}

func (c *Code) translateCell(cl *cell, inst isa.Instruction) {
	*cl = cell{
		width: 1,
		rd:    inst.Rd, rs: inst.Rs, rt: inst.Rt,
		imm:  inst.Imm,
		inst: inst,
		mem:  inst.Op.IsMemAccess() || inst.Op.Kind() == isa.KindPrefetch,
	}
	switch inst.Op {
	case isa.JMP:
		cl.kind, cl.addr = tJMP, c.base+inst.Target
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		cl.kind, cl.addr = tBR, c.base+inst.Target
	case isa.CALL:
		cl.kind, cl.addr = tCALL, c.base+inst.Target
	case isa.JR:
		cl.kind = tJR
	case isa.CALLR:
		cl.kind = tCALLR
	case isa.RET:
		cl.kind = tRET
	case isa.SYSCALL:
		cl.kind = tSYS
	default:
		cl.fn = straightHandler(inst)
		cl.one = cl.fn
		if cl.fn == nil {
			// Undecodable op: a trap-on-execute terminator.
			cl.kind = tBAD
		}
	}
}

// straightHandler returns the handler for a straight-line op, with
// writes to X0 folded to no-ops at translate time (Step re-checks the
// destination on every execution; here the check happens once). It
// returns nil for ops it cannot execute.
func straightHandler(inst isa.Instruction) handler {
	writesX := false
	switch inst.Op {
	case isa.ADD, isa.SUB, isa.MUL, isa.MULH, isa.DIV, isa.DIVU, isa.REM,
		isa.REMU, isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL, isa.SRA,
		isa.SLT, isa.SLTU, isa.ADDI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SLLI, isa.SRLI, isa.SRAI, isa.SLTI, isa.SLTIU, isa.LUI,
		isa.CMOVZ, isa.CMOVNZ, isa.LD, isa.LW, isa.LBU,
		isa.FCVTLD, isa.FMVXD, isa.FEQ, isa.FLT, isa.FLE:
		writesX = true
	}
	if writesX && inst.Rd == isa.X0 {
		// Discarded result; no handled op has another architectural
		// effect (loads on the sparse memory are side-effect free).
		return hNOP
	}
	if int(inst.Op) < isa.NumOps {
		return handlers[inst.Op]
	}
	return nil
}

// handlers maps each straight-line op to its unfused handler.
var handlers = [isa.NumOps]handler{
	isa.NOP: hNOP, isa.PREFETCH: hNOP,

	isa.ADD: hADD, isa.SUB: hSUB, isa.MUL: hMUL, isa.MULH: hMULH,
	isa.DIV: hDIV, isa.DIVU: hDIVU, isa.REM: hREM, isa.REMU: hREMU,
	isa.AND: hAND, isa.OR: hOR, isa.XOR: hXOR,
	isa.SLL: hSLL, isa.SRL: hSRL, isa.SRA: hSRA,
	isa.SLT: hSLT, isa.SLTU: hSLTU,

	isa.ADDI: hADDI, isa.ANDI: hANDI, isa.ORI: hORI, isa.XORI: hXORI,
	isa.SLLI: hSLLI, isa.SRLI: hSRLI, isa.SRAI: hSRAI,
	isa.SLTI: hSLTI, isa.SLTIU: hSLTIU, isa.LUI: hLUI,
	isa.CMOVZ: hCMOVZ, isa.CMOVNZ: hCMOVNZ,

	isa.LD: hLD, isa.LW: hLW, isa.LBU: hLBU,
	isa.ST: hST, isa.SW: hSW, isa.SB: hSB,

	isa.FADD: hFADD, isa.FSUB: hFSUB, isa.FMUL: hFMUL, isa.FDIV: hFDIV,
	isa.FMIN: hFMIN, isa.FMAX: hFMAX, isa.FSQRT: hFSQRT, isa.FNEG: hFNEG,
	isa.FMOV: hFMOV, isa.FCVTDL: hFCVTDL, isa.FCVTLD: hFCVTLD,
	isa.FMVDX: hFMVDX, isa.FMVXD: hFMVXD,
	isa.FEQ: hFEQ, isa.FLT: hFLT, isa.FLE: hFLE,
	isa.FLD: hFLD, isa.FST: hFST,
}

func hNOP(m *Machine, c *cell) {}

func hADD(m *Machine, c *cell)  { x := &m.St.X; x[c.rd] = x[c.rs] + x[c.rt] }
func hSUB(m *Machine, c *cell)  { x := &m.St.X; x[c.rd] = x[c.rs] - x[c.rt] }
func hMUL(m *Machine, c *cell)  { x := &m.St.X; x[c.rd] = x[c.rs] * x[c.rt] }
func hMULH(m *Machine, c *cell) { x := &m.St.X; x[c.rd] = mulh(int64(x[c.rs]), int64(x[c.rt])) }
func hDIV(m *Machine, c *cell) {
	x := &m.St.X
	x[c.rd] = uint64(sdiv(int64(x[c.rs]), int64(x[c.rt])))
}
func hDIVU(m *Machine, c *cell) { x := &m.St.X; x[c.rd] = udiv(x[c.rs], x[c.rt]) }
func hREM(m *Machine, c *cell) {
	x := &m.St.X
	x[c.rd] = uint64(srem(int64(x[c.rs]), int64(x[c.rt])))
}
func hREMU(m *Machine, c *cell) { x := &m.St.X; x[c.rd] = urem(x[c.rs], x[c.rt]) }
func hAND(m *Machine, c *cell)  { x := &m.St.X; x[c.rd] = x[c.rs] & x[c.rt] }
func hOR(m *Machine, c *cell)   { x := &m.St.X; x[c.rd] = x[c.rs] | x[c.rt] }
func hXOR(m *Machine, c *cell)  { x := &m.St.X; x[c.rd] = x[c.rs] ^ x[c.rt] }
func hSLL(m *Machine, c *cell)  { x := &m.St.X; x[c.rd] = x[c.rs] << (x[c.rt] & 63) }
func hSRL(m *Machine, c *cell)  { x := &m.St.X; x[c.rd] = x[c.rs] >> (x[c.rt] & 63) }
func hSRA(m *Machine, c *cell) {
	x := &m.St.X
	x[c.rd] = uint64(int64(x[c.rs]) >> (x[c.rt] & 63))
}
func hSLT(m *Machine, c *cell)  { x := &m.St.X; x[c.rd] = b2u(int64(x[c.rs]) < int64(x[c.rt])) }
func hSLTU(m *Machine, c *cell) { x := &m.St.X; x[c.rd] = b2u(x[c.rs] < x[c.rt]) }

func hADDI(m *Machine, c *cell) { x := &m.St.X; x[c.rd] = x[c.rs] + uint64(c.imm) }
func hANDI(m *Machine, c *cell) { x := &m.St.X; x[c.rd] = x[c.rs] & uint64(c.imm) }
func hORI(m *Machine, c *cell)  { x := &m.St.X; x[c.rd] = x[c.rs] | uint64(c.imm) }
func hXORI(m *Machine, c *cell) { x := &m.St.X; x[c.rd] = x[c.rs] ^ uint64(c.imm) }
func hSLLI(m *Machine, c *cell) { x := &m.St.X; x[c.rd] = x[c.rs] << (uint64(c.imm) & 63) }
func hSRLI(m *Machine, c *cell) { x := &m.St.X; x[c.rd] = x[c.rs] >> (uint64(c.imm) & 63) }
func hSRAI(m *Machine, c *cell) {
	x := &m.St.X
	x[c.rd] = uint64(int64(x[c.rs]) >> (uint64(c.imm) & 63))
}
func hSLTI(m *Machine, c *cell)  { x := &m.St.X; x[c.rd] = b2u(int64(x[c.rs]) < c.imm) }
func hSLTIU(m *Machine, c *cell) { x := &m.St.X; x[c.rd] = b2u(x[c.rs] < uint64(c.imm)) }
func hLUI(m *Machine, c *cell)   { m.St.X[c.rd] = uint64(c.imm) }
func hCMOVZ(m *Machine, c *cell) {
	x := &m.St.X
	if x[c.rt] == 0 {
		x[c.rd] = x[c.rs]
	}
}
func hCMOVNZ(m *Machine, c *cell) {
	x := &m.St.X
	if x[c.rt] != 0 {
		x[c.rd] = x[c.rs]
	}
}

func hLD(m *Machine, c *cell) { x := &m.St.X; x[c.rd] = m.Mem.Read64(x[c.rs] + uint64(c.imm)) }
func hLW(m *Machine, c *cell) {
	x := &m.St.X
	x[c.rd] = uint64(int64(int32(m.Mem.Read32(x[c.rs] + uint64(c.imm)))))
}
func hLBU(m *Machine, c *cell) {
	x := &m.St.X
	x[c.rd] = uint64(m.Mem.LoadByte(x[c.rs] + uint64(c.imm)))
}
func hST(m *Machine, c *cell) { x := &m.St.X; m.Mem.Write64(x[c.rs]+uint64(c.imm), x[c.rt]) }
func hSW(m *Machine, c *cell) {
	x := &m.St.X
	m.Mem.Write32(x[c.rs]+uint64(c.imm), uint32(x[c.rt]))
}
func hSB(m *Machine, c *cell) {
	x := &m.St.X
	m.Mem.StoreByte(x[c.rs]+uint64(c.imm), byte(x[c.rt]))
}

func hFADD(m *Machine, c *cell)  { f := &m.St.F; f[c.rd] = f[c.rs] + f[c.rt] }
func hFSUB(m *Machine, c *cell)  { f := &m.St.F; f[c.rd] = f[c.rs] - f[c.rt] }
func hFMUL(m *Machine, c *cell)  { f := &m.St.F; f[c.rd] = f[c.rs] * f[c.rt] }
func hFDIV(m *Machine, c *cell)  { f := &m.St.F; f[c.rd] = f[c.rs] / f[c.rt] }
func hFMIN(m *Machine, c *cell)  { f := &m.St.F; f[c.rd] = math.Min(f[c.rs], f[c.rt]) }
func hFMAX(m *Machine, c *cell)  { f := &m.St.F; f[c.rd] = math.Max(f[c.rs], f[c.rt]) }
func hFSQRT(m *Machine, c *cell) { f := &m.St.F; f[c.rd] = math.Sqrt(f[c.rs]) }
func hFNEG(m *Machine, c *cell)  { f := &m.St.F; f[c.rd] = -f[c.rs] }
func hFMOV(m *Machine, c *cell)  { f := &m.St.F; f[c.rd] = f[c.rs] }
func hFCVTDL(m *Machine, c *cell) {
	m.St.F[c.rd] = float64(int64(m.St.X[c.rs]))
}
func hFCVTLD(m *Machine, c *cell) { m.St.X[c.rd] = uint64(f2i(m.St.F[c.rs])) }
func hFMVDX(m *Machine, c *cell)  { m.St.F[c.rd] = math.Float64frombits(m.St.X[c.rs]) }
func hFMVXD(m *Machine, c *cell)  { m.St.X[c.rd] = math.Float64bits(m.St.F[c.rs]) }
func hFEQ(m *Machine, c *cell)    { f := &m.St.F; m.St.X[c.rd] = b2u(f[c.rs] == f[c.rt]) }
func hFLT(m *Machine, c *cell)    { f := &m.St.F; m.St.X[c.rd] = b2u(f[c.rs] < f[c.rt]) }
func hFLE(m *Machine, c *cell)    { f := &m.St.F; m.St.X[c.rd] = b2u(f[c.rs] <= f[c.rt]) }
func hFLD(m *Machine, c *cell) {
	m.St.F[c.rd] = math.Float64frombits(m.Mem.Read64(m.St.X[c.rs] + uint64(c.imm)))
}
func hFST(m *Machine, c *cell) {
	m.Mem.Write64(m.St.X[c.rs]+uint64(c.imm), math.Float64bits(m.St.F[c.rt]))
}

// Fused superinstruction handlers. Each executes its two instructions
// strictly in order, so register overlap between the pair behaves
// exactly as in sequential execution.

func hFuseAddAnd(m *Machine, c *cell) {
	x := &m.St.X
	x[c.rd] = x[c.rs] + x[c.rt]
	x[c.rd2] = x[c.rs2] & x[c.rt2]
}
func hFuseLuiAdd(m *Machine, c *cell) {
	x := &m.St.X
	x[c.rd] = uint64(c.imm)
	x[c.rd2] = x[c.rs2] + x[c.rt2]
}
func hFuseMulLui(m *Machine, c *cell) {
	x := &m.St.X
	x[c.rd] = x[c.rs] * x[c.rt]
	x[c.rd2] = uint64(c.imm2)
}
func hFuseLuiMul(m *Machine, c *cell) {
	x := &m.St.X
	x[c.rd] = uint64(c.imm)
	x[c.rd2] = x[c.rs2] * x[c.rt2]
}
func hFuseAndAdd(m *Machine, c *cell) {
	x := &m.St.X
	x[c.rd] = x[c.rs] & x[c.rt]
	x[c.rd2] = x[c.rs2] + x[c.rt2]
}
func hFuseAddLd(m *Machine, c *cell) {
	x := &m.St.X
	x[c.rd] = x[c.rs] + x[c.rt]
	x[c.rd2] = m.Mem.Read64(x[c.rs2] + uint64(c.imm2))
}

// fusedPairs maps (first op, second op) to the fused handler.
var fusedPairs = map[[2]isa.Op]handler{
	{isa.ADD, isa.AND}: hFuseAddAnd,
	{isa.LUI, isa.ADD}: hFuseLuiAdd,
	{isa.MUL, isa.LUI}: hFuseMulLui,
	{isa.LUI, isa.MUL}: hFuseLuiMul,
	{isa.AND, isa.ADD}: hFuseAndAdd,
	{isa.ADD, isa.LD}:  hFuseAddLd,
}

// fuse overlays fused handlers onto eligible adjacent pairs, greedily
// left to right. A pair is eligible when both cells are straight-line,
// unfused, and neither write was folded away (rd != x0 keeps the fused
// handlers branch-free).
func (c *Code) fuse() {
	cells := c.cells
	for i := 0; i+1 < len(cells)-1; i++ {
		a, b := &cells[i], &cells[i+1]
		if a.kind != tNone || b.kind != tNone || a.width != 1 {
			continue
		}
		if a.rd == isa.X0 || b.rd == isa.X0 {
			continue
		}
		fn, ok := fusedPairs[[2]isa.Op{a.inst.Op, b.inst.Op}]
		if !ok {
			continue
		}
		a.fn = fn
		a.width = 2
		a.rd2, a.rs2, a.rt2, a.imm2 = b.rd, b.rs, b.rt, b.imm
		i++ // the consumed cell cannot start another pair
	}
}

// slotOf maps an absolute pc to its cell index. The sentinel slot is
// not a valid target.
func (c *Code) slotOf(pc uint64) (int, bool) {
	if pc < c.base {
		return 0, false
	}
	off := pc - c.base
	if off%isa.InstBytes != 0 {
		return 0, false
	}
	i := int(off / isa.InstBytes)
	if i >= len(c.cells)-1 {
		return 0, false
	}
	return i, true
}

// execTerm executes the terminator cell cl at absolute address pc,
// producing exactly the StepResult and machine-state transition Step
// would have.
func (c *Code) execTerm(m *Machine, cl *cell, pc uint64) (StepResult, error) {
	res := StepResult{PC: pc, Inst: cl.inst}
	next := pc + isa.InstBytes
	x := &m.St.X
	switch cl.kind {
	case tJMP:
		next = cl.addr
	case tBR:
		if takeBranch(cl.inst.Op, x[cl.rs], x[cl.rt]) {
			next = cl.addr
			res.Taken = true
		}
	case tCALL:
		x[isa.RA] = pc + isa.InstBytes
		next = cl.addr
	case tJR:
		next = x[cl.rs]
	case tCALLR:
		target := x[cl.rs] // read before RA write in case rs == ra
		x[isa.RA] = pc + isa.InstBytes
		next = target
	case tRET:
		next = x[isa.RA]
	case tSYS:
		m.St.PC = pc // syscall traps report the syscall's own pc
		if err := m.syscall(); err != nil {
			return res, err
		}
	default: // tBAD
		return res, &Trap{PC: pc, Msg: fmt.Sprintf("unimplemented op %v", cl.inst.Op)}
	}
	m.Steps++
	m.St.PC = next
	res.NextPC = next
	return res, nil
}

// ExecBlock executes the n instructions of the dynamic block starting
// at module offset off — n-1 straight-line instructions followed by the
// terminator — and returns the terminator's StepResult. The caller
// (the DBI engine) guarantees the block shape via its discovery scan;
// Steps and PC are updated in batch, never observed mid-block.
func (c *Code) ExecBlock(m *Machine, off uint64, n int) (StepResult, error) {
	cells := c.cells
	s := int(off / isa.InstBytes)
	stop := s + n - 1
	for i := s; i < stop; {
		cl := &cells[i]
		cl.fn(m, cl)
		i += int(cl.width)
	}
	m.Steps += uint64(n - 1)
	return c.execTerm(m, &cells[stop], c.base+off+uint64(n-1)*isa.InstBytes)
}

// Fetch executes exactly the instruction at m.St.PC, with Step's
// architectural effect and traps, and leaves the next PC in m.St.PC. It
// reports the instruction's text slot (module offset / InstBytes), the
// effective address of a load, store or prefetch (computed before the
// instruction runs, so a load that overwrites its base register reports
// the address it read), and whether a conditional branch was taken. The
// head of a fused pair runs only its own instruction.
func (c *Code) Fetch(m *Machine) (slot int, addr uint64, taken bool, err error) {
	pc := m.St.PC
	if m.Exited {
		return 0, 0, false, &Trap{PC: pc, Msg: "step after exit"}
	}
	slot, ok := c.slotOf(pc)
	if !ok {
		return 0, 0, false, &Trap{PC: pc, Msg: "pc outside text segment"}
	}
	cl := &c.cells[slot]
	if cl.mem {
		addr = m.St.X[cl.rs] + uint64(cl.imm)
	}
	if cl.kind == tNone {
		cl.one(m, cl)
		m.Steps++
		m.St.PC = pc + isa.InstBytes
		return slot, addr, false, nil
	}
	res, err := c.execTerm(m, cl, pc)
	return slot, addr, res.Taken, err
}

// ColdStatus reports why RunCold returned.
type ColdStatus uint8

// RunCold stop reasons.
const (
	// ColdHot: control reached a hot slot; m.St.PC is its address.
	ColdHot ColdStatus = iota
	// ColdExit: the program exited.
	ColdExit
	// ColdBudget: StopSteps or MaxBlocks was reached; the caller should
	// run its periodic checks and resume.
	ColdBudget
)

// ColdRun configures one RunCold leg.
type ColdRun struct {
	// StopSteps, when non-zero, returns ColdBudget once m.Steps has
	// reached it (checked at block granularity, like the DBI engine's
	// own instruction-limit and window checks).
	StopSteps uint64
	// MaxBlocks bounds the number of blocks executed in one leg so the
	// caller's cancellation/fault cadence is preserved (0 = no bound).
	MaxBlocks uint64
	// OnCall/OnRet, when non-nil, observe call and return terminators
	// (module offset of the call instruction) so Algorithm 1 stack
	// profiling stays exact across uninstrumented code.
	OnCall func(callOff uint64)
	OnRet  func()
}

// RunCold executes uninstrumented (cold) code starting at m.St.PC until
// control reaches a hot slot, the program exits, or the leg budget runs
// out. Straight-line code runs through the fused threaded dispatch with
// no per-block bookkeeping at all. Hotness is checked wherever control
// can enter instrumented code: at the landing slot after every control
// transfer, and — so straight-line flow crossing a selection boundary
// never executes hot instructions uncounted — at each cell of the
// burst. The second return value is the number of blocks executed,
// which callers fold into their own periodic-check cadence.
func (c *Code) RunCold(m *Machine, r *ColdRun) (ColdStatus, uint64, error) {
	cells := c.cells
	var blocks uint64
	for {
		slot, ok := c.slotOf(m.St.PC)
		if !ok {
			return 0, blocks, &Trap{PC: m.St.PC, Msg: "pc outside text segment"}
		}
		if cells[slot].hot {
			return ColdHot, blocks, nil
		}
		pc := m.St.PC
		n := 0
		cl := &cells[slot]
		for cl.kind == tNone && !cl.hot {
			cl.fn(m, cl)
			w := int(cl.width)
			n += w
			slot += w
			cl = &cells[slot]
		}
		if cl.hot {
			// Fell through onto instrumented code mid-line: commit the
			// cold prefix and hand the rest to the instrumented path.
			m.Steps += uint64(n)
			m.St.PC = pc + uint64(n)*isa.InstBytes
			return ColdHot, blocks, nil
		}
		m.Steps += uint64(n)
		if _, err := c.execTerm(m, cl, pc+uint64(n)*isa.InstBytes); err != nil {
			return 0, blocks, err
		}
		blocks++
		switch cl.kind {
		case tCALL, tCALLR:
			if r.OnCall != nil {
				r.OnCall(pc + uint64(n)*isa.InstBytes - c.base)
			}
		case tRET:
			if r.OnRet != nil {
				r.OnRet()
			}
		}
		if m.Exited {
			return ColdExit, blocks, nil
		}
		if r.StopSteps != 0 && m.Steps >= r.StopSteps {
			return ColdBudget, blocks, nil
		}
		if r.MaxBlocks != 0 && blocks >= r.MaxBlocks {
			return ColdBudget, blocks, nil
		}
	}
}

// Run executes until exit or until limit instructions have retired,
// the direct-threaded equivalent of Machine.Run.
func (c *Code) Run(m *Machine, limit uint64) error {
	return c.RunContext(context.Background(), m, limit)
}

// RunContext is the direct-threaded equivalent of Machine.RunContext:
// identical exit, limit, cancellation, and fault-injection semantics
// (ErrLimit fires with exactly limit instructions retired; ctx and the
// interp.run fault site are polled about every cancelCheckSteps
// instructions, and before the first).
func (c *Code) RunContext(ctx context.Context, m *Machine, limit uint64) error {
	cells := c.cells
	done := ctx.Done()
	faulty := fault.Enabled()
	checks := done != nil || faulty
	budget := int64(1) // check before the first step: a dead ctx never runs
	for !m.Exited {
		if limit != 0 && m.Steps >= limit {
			return ErrLimit
		}
		if checks {
			budget--
			if budget <= 0 {
				budget = cancelCheckSteps
				if done != nil {
					select {
					case <-done:
						return fmt.Errorf("interp: run canceled after %d steps: %w",
							m.Steps, ctx.Err())
					default:
					}
				}
				if faulty {
					if err := fault.Err(fault.SiteInterpRun); err != nil {
						return fmt.Errorf("interp: run aborted after %d steps: %w",
							m.Steps, err)
					}
				}
			}
		}
		slot, ok := c.slotOf(m.St.PC)
		if !ok {
			return &Trap{PC: m.St.PC, Msg: "pc outside text segment"}
		}
		pc := m.St.PC
		n := 0
		cl := &cells[slot]
		burst := int64(1<<62 - 1)
		if limit != 0 {
			burst = int64(limit - m.Steps) // >= 1: checked above
		}
		for cl.kind == tNone {
			if int64(n)+int64(cl.width) > burst {
				// Hitting the instruction limit mid-block: finish with
				// single Fetches so ErrLimit retires exactly limit
				// instructions even across a fused pair.
				m.Steps += uint64(n)
				m.St.PC = pc + uint64(n)*isa.InstBytes
				for m.Steps < limit {
					if _, _, _, err := c.Fetch(m); err != nil {
						return err
					}
				}
				n = -1 // state already committed
				break
			}
			cl.fn(m, cl)
			w := int(cl.width)
			n += w
			slot += w
			cl = &cells[slot]
		}
		if n < 0 {
			continue
		}
		m.Steps += uint64(n)
		if limit != 0 && m.Steps >= limit {
			// The straight-line burst consumed the whole budget: commit
			// the PC and let the top-of-loop check raise ErrLimit before
			// the terminator executes, exactly like the per-step check.
			m.St.PC = pc + uint64(n)*isa.InstBytes
			continue
		}
		if _, err := c.execTerm(m, cl, pc+uint64(n)*isa.InstBytes); err != nil {
			return err
		}
		budget -= int64(n) // terminator counted by the loop decrement
	}
	return nil
}
