// Package interp implements the functional (architectural) OWISA
// interpreter.
//
// The interpreter is the architectural reference model: the out-of-order
// pipeline simulator must produce identical architectural results, and the
// DBI engine (internal/dbi) executes through the same single-step core while
// layering instrumentation on top. It is also the "native" baseline run for
// the overhead experiment (figure 7): its instruction count is the
// denominator of the instrumentation slowdown.
package interp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"optiwise/internal/fault"
	"optiwise/internal/isa"
	"optiwise/internal/mem"
	"optiwise/internal/program"
)

// Syscall numbers (A7). The set is deliberately tiny and fully
// deterministic so the two profiling runs see identical control flow
// (§IV-F best case).
const (
	SysExit  = 93   // exit(code)
	SysWrite = 64   // write(fd, buf, len) -> len
	SysBrk   = 214  // brk(addr) -> new break (addr==0 queries)
	SysRand  = 1000 // rand() -> next value of a seeded 64-bit LCG
)

// ErrLimit is returned when execution exceeds the configured step limit.
var ErrLimit = errors.New("interp: instruction limit exceeded")

// Trap describes a fatal execution error (bad PC, divide wildness, etc.).
type Trap struct {
	PC  uint64 // absolute PC of the faulting instruction
	Msg string
}

func (t *Trap) Error() string { return fmt.Sprintf("trap at pc 0x%x: %s", t.PC, t.Msg) }

// State is the architectural state of one OWISA hardware thread.
type State struct {
	X  [isa.NumRegs]uint64  // integer registers; X[0] reads as 0
	F  [isa.NumRegs]float64 // FP registers
	PC uint64               // absolute
	// Brk is the current heap break.
	Brk uint64
	// RandState is the LCG state backing SysRand.
	RandState uint64
}

// Machine executes a loaded image.
type Machine struct {
	Img *program.Image
	Mem *mem.Memory
	St  State

	// Output receives SysWrite bytes for fd 1 and 2.
	Output []byte
	// Exited and ExitCode report SysExit.
	Exited   bool
	ExitCode int64
	// Steps counts executed (retired) instructions.
	Steps uint64
}

// New prepares a machine over img with conventional initial state.
// randSeed seeds the deterministic SysRand generator.
func New(img *program.Image, randSeed uint64) *Machine {
	m := &Machine{Img: img, Mem: img.Mem}
	m.St.PC = img.EntryPC()
	m.St.X[isa.SP] = img.InitialSP
	m.St.X[isa.GP] = img.InitialGP
	m.St.Brk = program.HeapBase
	if randSeed == 0 {
		randSeed = 0x9e3779b97f4a7c15
	}
	m.St.RandState = randSeed
	return m
}

// StepResult reports the dynamic outcome of one instruction, consumed by
// the DBI engine and used to drive edge profiling.
type StepResult struct {
	// PC is the absolute address of the executed instruction.
	PC uint64
	// NextPC is the absolute address control transferred to.
	NextPC uint64
	// Taken is set for conditional branches that were taken.
	Taken bool
	// Addr is the effective address of memory operations (including
	// prefetch); zero otherwise. Code.Fetch reports the same address to
	// the pipeline simulator, which models cache behaviour with it.
	Addr uint64
	// Inst is the executed instruction.
	Inst isa.Instruction
}

// Step executes a single instruction. It returns the step outcome; after a
// SysExit the machine is marked Exited and further Steps are errors.
func (m *Machine) Step() (StepResult, error) {
	if m.Exited {
		return StepResult{}, &Trap{PC: m.St.PC, Msg: "step after exit"}
	}
	pc := m.St.PC
	inst, ok := m.Img.InstAtPC(pc)
	if !ok {
		return StepResult{}, &Trap{PC: pc, Msg: "pc outside text segment"}
	}
	res := StepResult{PC: pc, Inst: inst}
	next := pc + isa.InstBytes
	x := &m.St.X
	f := &m.St.F

	rd, rs, rt := inst.Rd, inst.Rs, inst.Rt
	setX := func(r isa.Reg, v uint64) {
		if r != isa.X0 {
			x[r] = v
		}
	}

	if inst.Op.IsMemAccess() || inst.Op.Kind() == isa.KindPrefetch {
		res.Addr = x[rs] + uint64(inst.Imm)
	}

	switch inst.Op {
	case isa.NOP, isa.PREFETCH:
		// no architectural effect

	case isa.ADD:
		setX(rd, x[rs]+x[rt])
	case isa.SUB:
		setX(rd, x[rs]-x[rt])
	case isa.MUL:
		setX(rd, x[rs]*x[rt])
	case isa.MULH:
		setX(rd, mulh(int64(x[rs]), int64(x[rt])))
	case isa.DIV:
		setX(rd, uint64(sdiv(int64(x[rs]), int64(x[rt]))))
	case isa.DIVU:
		setX(rd, udiv(x[rs], x[rt]))
	case isa.REM:
		setX(rd, uint64(srem(int64(x[rs]), int64(x[rt]))))
	case isa.REMU:
		setX(rd, urem(x[rs], x[rt]))
	case isa.AND:
		setX(rd, x[rs]&x[rt])
	case isa.OR:
		setX(rd, x[rs]|x[rt])
	case isa.XOR:
		setX(rd, x[rs]^x[rt])
	case isa.SLL:
		setX(rd, x[rs]<<(x[rt]&63))
	case isa.SRL:
		setX(rd, x[rs]>>(x[rt]&63))
	case isa.SRA:
		setX(rd, uint64(int64(x[rs])>>(x[rt]&63)))
	case isa.SLT:
		setX(rd, b2u(int64(x[rs]) < int64(x[rt])))
	case isa.SLTU:
		setX(rd, b2u(x[rs] < x[rt]))

	case isa.ADDI:
		setX(rd, x[rs]+uint64(inst.Imm))
	case isa.ANDI:
		setX(rd, x[rs]&uint64(inst.Imm))
	case isa.ORI:
		setX(rd, x[rs]|uint64(inst.Imm))
	case isa.XORI:
		setX(rd, x[rs]^uint64(inst.Imm))
	case isa.SLLI:
		setX(rd, x[rs]<<(uint64(inst.Imm)&63))
	case isa.SRLI:
		setX(rd, x[rs]>>(uint64(inst.Imm)&63))
	case isa.SRAI:
		setX(rd, uint64(int64(x[rs])>>(uint64(inst.Imm)&63)))
	case isa.SLTI:
		setX(rd, b2u(int64(x[rs]) < inst.Imm))
	case isa.SLTIU:
		setX(rd, b2u(x[rs] < uint64(inst.Imm)))
	case isa.LUI:
		setX(rd, uint64(inst.Imm))
	case isa.CMOVZ:
		if x[rt] == 0 {
			setX(rd, x[rs])
		}
	case isa.CMOVNZ:
		if x[rt] != 0 {
			setX(rd, x[rs])
		}

	case isa.LD:
		setX(rd, m.Mem.Read64(x[rs]+uint64(inst.Imm)))
	case isa.LW:
		setX(rd, uint64(int64(int32(m.Mem.Read32(x[rs]+uint64(inst.Imm))))))
	case isa.LBU:
		setX(rd, uint64(m.Mem.LoadByte(x[rs]+uint64(inst.Imm))))
	case isa.ST:
		m.Mem.Write64(x[rs]+uint64(inst.Imm), x[rt])
	case isa.SW:
		m.Mem.Write32(x[rs]+uint64(inst.Imm), uint32(x[rt]))
	case isa.SB:
		m.Mem.StoreByte(x[rs]+uint64(inst.Imm), byte(x[rt]))

	case isa.FADD:
		f[rd] = f[rs] + f[rt]
	case isa.FSUB:
		f[rd] = f[rs] - f[rt]
	case isa.FMUL:
		f[rd] = f[rs] * f[rt]
	case isa.FDIV:
		f[rd] = f[rs] / f[rt]
	case isa.FMIN:
		f[rd] = math.Min(f[rs], f[rt])
	case isa.FMAX:
		f[rd] = math.Max(f[rs], f[rt])
	case isa.FSQRT:
		f[rd] = math.Sqrt(f[rs])
	case isa.FNEG:
		f[rd] = -f[rs]
	case isa.FMOV:
		f[rd] = f[rs]
	case isa.FCVTDL:
		f[rd] = float64(int64(x[rs]))
	case isa.FCVTLD:
		setX(rd, uint64(f2i(f[rs])))
	case isa.FMVDX:
		f[rd] = math.Float64frombits(x[rs])
	case isa.FMVXD:
		setX(rd, math.Float64bits(f[rs]))
	case isa.FEQ:
		setX(rd, b2u(f[rs] == f[rt]))
	case isa.FLT:
		setX(rd, b2u(f[rs] < f[rt]))
	case isa.FLE:
		setX(rd, b2u(f[rs] <= f[rt]))
	case isa.FLD:
		f[rd] = math.Float64frombits(m.Mem.Read64(x[rs] + uint64(inst.Imm)))
	case isa.FST:
		m.Mem.Write64(x[rs]+uint64(inst.Imm), math.Float64bits(f[rt]))

	case isa.JMP:
		next = m.Img.OffToAbs(inst.Target)
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		if takeBranch(inst.Op, x[rs], x[rt]) {
			next = m.Img.OffToAbs(inst.Target)
			res.Taken = true
		}
	case isa.CALL:
		setX(isa.RA, pc+isa.InstBytes)
		next = m.Img.OffToAbs(inst.Target)
	case isa.JR:
		next = x[rs]
	case isa.CALLR:
		target := x[rs] // read before RA write in case rs == ra
		setX(isa.RA, pc+isa.InstBytes)
		next = target
	case isa.RET:
		next = x[isa.RA]
	case isa.SYSCALL:
		if err := m.syscall(); err != nil {
			return res, err
		}

	default:
		return res, &Trap{PC: pc, Msg: fmt.Sprintf("unimplemented op %v", inst.Op)}
	}

	m.Steps++
	m.St.PC = next
	res.NextPC = next
	return res, nil
}

// cancelCheckSteps is how many retired instructions elapse between the
// cooperative context-cancellation checks in RunContext; the check is a
// single non-blocking channel poll.
const cancelCheckSteps = 16384

// Run executes until exit or until limit instructions have retired
// (limit 0 means no limit).
func (m *Machine) Run(limit uint64) error {
	return m.RunContext(context.Background(), limit)
}

// RunContext is Run with cooperative cancellation: every
// cancelCheckSteps instructions (and before the first) the loop polls
// ctx and, if it is done, stops and returns an error wrapping ctx.Err().
func (m *Machine) RunContext(ctx context.Context, limit uint64) error {
	done := ctx.Done()
	// The fault-injection check rides the same countdown; faulty is one
	// atomic load per run, so the disabled path is unchanged.
	faulty := fault.Enabled()
	countdown := uint64(1) // check before the first step: a dead ctx never runs
	for !m.Exited {
		if limit != 0 && m.Steps >= limit {
			return ErrLimit
		}
		if done != nil || faulty {
			countdown--
			if countdown == 0 {
				countdown = cancelCheckSteps
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
		if _, err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// syscall dispatches the SYSCALL instruction. On return the PC advances
// past the syscall (sequential semantics, §IV-C "System call").
func (m *Machine) syscall() error {
	x := &m.St.X
	switch x[isa.A7] {
	case SysExit:
		m.Exited = true
		m.ExitCode = int64(x[isa.A0])
	case SysWrite:
		fd, addr, n := x[isa.A0], x[isa.A1], x[isa.A2]
		if n > 1<<20 {
			return &Trap{PC: m.St.PC, Msg: "write too large"}
		}
		buf := make([]byte, n)
		m.Mem.Read(addr, buf)
		if fd == 1 || fd == 2 {
			m.Output = append(m.Output, buf...)
		}
		x[isa.A0] = n
	case SysBrk:
		if req := x[isa.A0]; req != 0 {
			if req < program.HeapBase || req > program.HeapBase+(1<<40) {
				return &Trap{PC: m.St.PC, Msg: "brk out of range"}
			}
			m.St.Brk = req
		}
		x[isa.A0] = m.St.Brk
	case SysRand:
		// Deterministic 64-bit LCG (Knuth MMIX constants).
		m.St.RandState = m.St.RandState*6364136223846793005 + 1442695040888963407
		x[isa.A0] = m.St.RandState
	default:
		return &Trap{PC: m.St.PC, Msg: fmt.Sprintf("unknown syscall %d", x[isa.A7])}
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Integer division semantics follow RISC-V: divide by zero yields all-ones
// (or the dividend for rem); INT64_MIN/-1 yields INT64_MIN.
func sdiv(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == math.MinInt64 && b == -1:
		return math.MinInt64
	}
	return a / b
}

func udiv(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func srem(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == math.MinInt64 && b == -1:
		return 0
	}
	return a % b
}

func urem(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

func f2i(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

func mulh(a, b int64) uint64 {
	// 128-bit signed multiply, high half, via 32-bit limbs.
	neg := (a < 0) != (b < 0)
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = uint64(-a)
	}
	if b < 0 {
		ub = uint64(-b)
	}
	hi, lo := umul128(ua, ub)
	if neg {
		// two's complement negate the 128-bit product
		lo = ^lo + 1
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return hi
}

func umul128(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a0 * b0
	lo = t & mask
	c := t >> 32
	t = a1*b0 + c
	c = t >> 32
	m := t & mask
	t = a0*b1 + m
	lo |= (t & mask) << 32
	hi = a1*b1 + c + (t >> 32)
	return hi, lo
}

// takeBranch reports whether a conditional branch with the given operand
// values is taken.
func takeBranch(op isa.Op, a, b uint64) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return int64(a) < int64(b)
	case isa.BGE:
		return int64(a) >= int64(b)
	case isa.BLTU:
		return a < b
	case isa.BGEU:
		return a >= b
	}
	return false
}
