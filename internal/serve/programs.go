package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"unsafe"

	"optiwise"
	"optiwise/internal/isa"
	"optiwise/internal/program"
)

// programMemoBytes bounds each server's program memo, counted by
// programBytes. The budget holds a few hundred of the benchmark's
// 10–30 KB programs; a program larger than the whole budget is never
// memoized.
const programMemoBytes = 8 << 20

// programMemo maps the digest of a submitted program input — module
// name and source, or the bytes of an OWX image — to the program it
// assembled or loaded, so a repeat submission costs a lookup instead of
// an assembler run. The memoized Program is shared by every submission
// of that input, and with it the OWX encoding it caches, which jobKey
// hashes and persistSubmission stores: job keys are computed from the
// same bytes as before. Failed assemblies and loads are never stored.
type programMemo struct {
	*lru[*optiwise.Program]
}

func newProgramMemo() programMemo {
	return programMemo{newLRU[*optiwise.Program](programMemoBytes, nil, nil)}
}

// source returns the program module and source assemble to.
func (m programMemo) source(module, source string) (*optiwise.Program, error) {
	return m.load(inputDigest('s', module, []byte(source)), func() (*optiwise.Program, error) {
		prog, err := optiwise.Assemble(module, source)
		if err != nil {
			return nil, fmt.Errorf("assemble: %w", err)
		}
		return prog, nil
	})
}

// binary returns the program an OWX image holds.
func (m programMemo) binary(image []byte) (*optiwise.Program, error) {
	return m.load(inputDigest('b', "", image), func() (*optiwise.Program, error) {
		prog, err := optiwise.ReadBinary(bytes.NewReader(image))
		if err != nil {
			return nil, fmt.Errorf("load binary: %w", err)
		}
		return prog, nil
	})
}

func (m programMemo) load(digest string, build func() (*optiwise.Program, error)) (*optiwise.Program, error) {
	if prog, ok := m.get(digest); ok {
		return prog, nil
	}
	prog, err := build()
	if err != nil {
		return nil, err
	}
	if size, ok := programBytes(prog); ok {
		m.put(digest, prog, size)
	}
	return prog, nil
}

// inputDigest names one program input: a kind byte, the module name
// behind its length, then the body, so no two inputs share a digest.
func inputDigest(kind byte, module string, body []byte) string {
	h := sha256.New()
	var head [9]byte
	head[0] = kind
	binary.LittleEndian.PutUint64(head[1:], uint64(len(module)))
	h.Write(head[:])
	h.Write([]byte(module))
	h.Write(body)
	return string(h.Sum(nil))
}

// programBytes is a memo entry's size: the OWX image the program caches
// plus the capacity of its decoded tables, which together are most of
// what it holds live. It reports false when the program cannot be
// encoded, which keeps the program out of the memo (and the encoding
// error for jobKey to report).
func programBytes(prog *optiwise.Program) (int64, bool) {
	owx, err := prog.Binary()
	if err != nil {
		return 0, false
	}
	raw := prog.Raw()
	return int64(len(owx)) +
		int64(cap(raw.Text))*int64(unsafe.Sizeof(isa.Instruction{})) +
		int64(cap(raw.Data)) +
		int64(cap(raw.Symbols))*int64(unsafe.Sizeof(program.Symbol{})) +
		int64(cap(raw.Functions))*int64(unsafe.Sizeof(program.Function{})) +
		int64(cap(raw.Lines))*int64(unsafe.Sizeof(program.LineEntry{})), true
}
