package program

import (
	"encoding/gob"
	"fmt"
	"io"
)

// The OWX container is this repository's ELF stand-in: a serialized
// Program image (decoded text, data, symbols, functions, line table) that
// the optiwise CLI can profile without re-assembling — matching the
// paper's workflow, where the tool consumes an arbitrary binary
// executable produced by an independent compiler (§IV-A).

// owxMagic identifies OWX files; owxVersion gates format changes.
const (
	owxMagic   = "OWX\x01"
	owxVersion = 1
)

// owxFile is the serialized form.
type owxFile struct {
	Version int
	Prog    Program
}

// Gob numbers types process-wide, in the order it first meets them,
// and an image carries those numbers — so without this, an image's
// bytes (which job keys hash) would depend on what the process
// gob-encoded before its first WriteOWX. Encoding owxFile here, before
// any caller can, gives its types the numbers a fresh process gives
// them.
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(owxFile{}); err != nil {
		panic(fmt.Sprintf("program: register owx types: %v", err))
	}
}

// WriteOWX serializes p as an OWX binary image.
func (p *Program) WriteOWX(w io.Writer) error {
	if _, err := io.WriteString(w, owxMagic); err != nil {
		return err
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(owxFile{Version: owxVersion, Prog: *p}); err != nil {
		return fmt.Errorf("program: encode owx: %w", err)
	}
	return nil
}

// ReadOWX deserializes an OWX image written by WriteOWX.
func ReadOWX(r io.Reader) (*Program, error) {
	magic := make([]byte, len(owxMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("program: read owx magic: %w", err)
	}
	if string(magic) != owxMagic {
		return nil, fmt.Errorf("program: not an OWX image (bad magic %q)", magic)
	}
	var f owxFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("program: decode owx: %w", err)
	}
	if f.Version != owxVersion {
		return nil, fmt.Errorf("program: unsupported OWX version %d", f.Version)
	}
	p := f.Prog
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("program: corrupt OWX image: %w", err)
	}
	return &p, nil
}
