// Package program defines the loaded program image consumed by every other
// component: decoded text, initialized data, symbols, function boundaries,
// and a DWARF-like source line table.
//
// It is the repository's stand-in for an ELF binary plus the output of
// objdump (component 3 in the paper's figure 3). Like the paper, all profile
// data is keyed by module-relative offsets, never absolute addresses, so
// that runs under different (simulated-ASLR) load bases combine correctly
// (§IV-A).
package program

import (
	"fmt"
	"sort"

	"optiwise/internal/isa"
)

// Default link-time layout. The loader may rebase by an ASLR slide.
const (
	// DefaultTextBase is the module-relative offset 0's default absolute
	// address when loaded without ASLR.
	DefaultTextBase = 0x00400000
	// DataBase is the module-relative base offset of the data segment
	// within the module image.
	DataBase = 0x00200000
	// StackTop is the initial stack pointer handed to programs.
	StackTop = 0x7fff_ffff_0000
	// HeapBase is where the brk heap starts.
	HeapBase = 0x1000_0000_0000
)

// Symbol is a named module offset (data labels and function entries).
type Symbol struct {
	Name string
	// Offset is module-relative.
	Offset uint64
}

// Function describes a contiguous function body in the text segment.
// Offsets are module-relative; Hi is exclusive.
type Function struct {
	Name string
	Lo   uint64
	Hi   uint64
}

// Contains reports whether module offset off lies inside f.
func (f Function) Contains(off uint64) bool { return off >= f.Lo && off < f.Hi }

// LineEntry maps a text offset range [Lo, Hi) to a source location.
// This is the repository's DWARF .debug_line equivalent.
type LineEntry struct {
	Lo   uint64
	Hi   uint64
	File string
	Line int
}

// Program is a fully linked module image.
type Program struct {
	// Module is the module identifier used to key profile data, typically
	// the source file or benchmark name.
	Module string
	// Text holds the decoded instructions; the instruction at module
	// offset o is Text[o/isa.InstBytes].
	Text []isa.Instruction
	// Data holds the initialized data image, loaded at module offset
	// DataBase.
	Data []byte
	// Entry is the module offset of the first instruction to execute.
	Entry uint64

	Symbols   []Symbol    // sorted by offset
	Functions []Function  // sorted by Lo, non-overlapping
	Lines     []LineEntry // sorted by Lo
}

// TextSize returns the size of the text segment in bytes.
func (p *Program) TextSize() uint64 {
	return uint64(len(p.Text)) * isa.InstBytes
}

// InstAt returns the instruction at module offset off. It reports false if
// off is outside the text segment or misaligned.
func (p *Program) InstAt(off uint64) (isa.Instruction, bool) {
	if off%isa.InstBytes != 0 {
		return isa.Instruction{}, false
	}
	i := off / isa.InstBytes
	if i >= uint64(len(p.Text)) {
		return isa.Instruction{}, false
	}
	return p.Text[i], true
}

// FuncAt returns the function containing module offset off.
func (p *Program) FuncAt(off uint64) (Function, bool) {
	i := sort.Search(len(p.Functions), func(i int) bool {
		return p.Functions[i].Hi > off
	})
	if i < len(p.Functions) && p.Functions[i].Contains(off) {
		return p.Functions[i], true
	}
	return Function{}, false
}

// FuncByName returns the named function.
func (p *Program) FuncByName(name string) (Function, bool) {
	for _, f := range p.Functions {
		if f.Name == name {
			return f, true
		}
	}
	return Function{}, false
}

// SymbolByName returns the offset of a named symbol.
func (p *Program) SymbolByName(name string) (uint64, bool) {
	for _, s := range p.Symbols {
		if s.Name == name {
			return s.Offset, true
		}
	}
	return 0, false
}

// LineAt returns the source location covering module offset off.
func (p *Program) LineAt(off uint64) (LineEntry, bool) {
	i := sort.Search(len(p.Lines), func(i int) bool {
		return p.Lines[i].Hi > off
	})
	if i < len(p.Lines) && off >= p.Lines[i].Lo && off < p.Lines[i].Hi {
		return p.Lines[i], true
	}
	return LineEntry{}, false
}

// AppendTarget appends a module offset to b as "name+0x..." when a
// function covers it, else as a bare hex offset. Report annotation calls
// it once per direct control transfer.
func (p *Program) AppendTarget(b []byte, off uint64) []byte {
	if f, ok := p.FuncAt(off); ok {
		b = append(b, f.Name...)
		if off == f.Lo {
			return b
		}
		off -= f.Lo
		b = append(b, '+')
	}
	return isa.AppendHex(b, off)
}

// Validate checks internal consistency: direct control-transfer targets in
// range and aligned, functions sorted and non-overlapping, entry valid.
// The assembler calls this after every successful assembly.
func (p *Program) Validate() error {
	if p.Entry%isa.InstBytes != 0 || p.Entry >= p.TextSize() {
		return fmt.Errorf("program %s: entry 0x%x outside text", p.Module, p.Entry)
	}
	for i, inst := range p.Text {
		switch inst.Op.Kind() {
		case isa.KindBranch, isa.KindJump, isa.KindCall:
			if inst.Target%isa.InstBytes != 0 {
				return fmt.Errorf("inst %d (%s): misaligned target 0x%x",
					i, inst.Op, inst.Target)
			}
			if inst.Target >= p.TextSize() {
				return fmt.Errorf("inst %d (%s): target 0x%x outside text",
					i, inst.Op, inst.Target)
			}
		}
	}
	for i := 1; i < len(p.Functions); i++ {
		prev, cur := p.Functions[i-1], p.Functions[i]
		if cur.Lo < prev.Hi {
			return fmt.Errorf("functions %s and %s overlap", prev.Name, cur.Name)
		}
	}
	return nil
}
