package program

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"testing/quick"

	"optiwise/internal/isa"
)

func sampleProgram() *Program {
	return &Program{
		Module: "m",
		Text: []isa.Instruction{
			{Op: isa.NOP},              // 0x0  f
			{Op: isa.ADD},              // 0x4  f
			{Op: isa.RET},              // 0x8  f
			{Op: isa.NOP},              // 0xc  g
			{Op: isa.JMP, Target: 0xc}, // 0x10 g
			{Op: isa.SYSCALL},          // 0x14 g
		},
		Entry: 0,
		Symbols: []Symbol{
			{Name: "f", Offset: 0},
			{Name: "g", Offset: 0xc},
			{Name: "datum", Offset: DataBase + 8},
		},
		Functions: []Function{
			{Name: "f", Lo: 0, Hi: 0xc},
			{Name: "g", Lo: 0xc, Hi: 0x18},
		},
		Lines: []LineEntry{
			{Lo: 0, Hi: 0x8, File: "a.c", Line: 1},
			{Lo: 0x8, Hi: 0xc, File: "a.c", Line: 2},
			{Lo: 0xc, Hi: 0x18, File: "b.c", Line: 7},
		},
	}
}

func TestInstAt(t *testing.T) {
	p := sampleProgram()
	if inst, ok := p.InstAt(4); !ok || inst.Op != isa.ADD {
		t.Error("InstAt(4) wrong")
	}
	if _, ok := p.InstAt(5); ok {
		t.Error("misaligned InstAt should fail")
	}
	if _, ok := p.InstAt(0x18); ok {
		t.Error("out-of-range InstAt should fail")
	}
}

func TestFuncAt(t *testing.T) {
	p := sampleProgram()
	cases := []struct {
		off  uint64
		want string
		ok   bool
	}{
		{0, "f", true}, {0x8, "f", true}, {0xb, "f", true},
		{0xc, "g", true}, {0x17, "g", true},
		{0x18, "", false},
	}
	for _, c := range cases {
		f, ok := p.FuncAt(c.off)
		if ok != c.ok || (ok && f.Name != c.want) {
			t.Errorf("FuncAt(%#x) = %v,%v want %q,%v", c.off, f.Name, ok, c.want, c.ok)
		}
	}
}

func TestFuncAtGap(t *testing.T) {
	p := sampleProgram()
	p.Functions = []Function{
		{Name: "f", Lo: 0, Hi: 0x8},
		{Name: "g", Lo: 0x10, Hi: 0x18},
	}
	if _, ok := p.FuncAt(0xc); ok {
		t.Error("FuncAt in the gap should fail")
	}
	if f, ok := p.FuncAt(0x10); !ok || f.Name != "g" {
		t.Error("FuncAt after gap wrong")
	}
}

func TestLineAt(t *testing.T) {
	p := sampleProgram()
	if le, ok := p.LineAt(4); !ok || le.Line != 1 {
		t.Errorf("LineAt(4) = %+v, %v", le, ok)
	}
	if le, ok := p.LineAt(8); !ok || le.Line != 2 {
		t.Errorf("LineAt(8) = %+v, %v", le, ok)
	}
	if _, ok := p.LineAt(0x20); ok {
		t.Error("LineAt out of range should fail")
	}
}

func TestSymbolizeTarget(t *testing.T) {
	p := sampleProgram()
	if s := string(p.AppendTarget(nil, 0)); s != "f" {
		t.Errorf("got %q", s)
	}
	if s := string(p.AppendTarget(nil, 0x10)); s != "g+0x4" {
		t.Errorf("got %q", s)
	}
	if s := string(p.AppendTarget(nil, 0x100)); s != "0x100" {
		t.Errorf("got %q", s)
	}
}

func TestValidate(t *testing.T) {
	p := sampleProgram()
	if err := p.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	bad := sampleProgram()
	bad.Text[4].Target = 0x1000
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "outside text") {
		t.Errorf("out-of-range target not caught: %v", err)
	}
	bad = sampleProgram()
	bad.Text[4].Target = 2
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Errorf("misaligned target not caught: %v", err)
	}
	bad = sampleProgram()
	bad.Functions[1].Lo = 0x8
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlap not caught: %v", err)
	}
	bad = sampleProgram()
	bad.Entry = 0x100
	if err := bad.Validate(); err == nil {
		t.Error("bad entry not caught")
	}
}

func TestLoadAndAddressTranslation(t *testing.T) {
	p := sampleProgram()
	p.Data = []byte{1, 2, 3, 4}
	img := Load(p, LoadOptions{})
	if img.TextBase != DefaultTextBase {
		t.Errorf("TextBase = %#x", img.TextBase)
	}
	if img.Mem.LoadByte(img.InitialGP) != 1 {
		t.Error("data not loaded at GP")
	}
	if img.EntryPC() != img.TextBase {
		t.Error("entry PC wrong")
	}
	off, ok := img.AbsToOff(img.TextBase + 8)
	if !ok || off != 8 {
		t.Error("AbsToOff wrong")
	}
	if _, ok := img.AbsToOff(img.TextBase - 4); ok {
		t.Error("below-base AbsToOff should fail")
	}
	if _, ok := img.AbsToOff(img.TextBase + p.TextSize()); ok {
		t.Error("above-text AbsToOff should fail")
	}
}

func TestASLRSlide(t *testing.T) {
	p := sampleProgram()
	img1 := Load(p, LoadOptions{ASLRSeed: 1})
	img2 := Load(p, LoadOptions{ASLRSeed: 2})
	img1b := Load(p, LoadOptions{ASLRSeed: 1})
	if img1.TextBase == img2.TextBase {
		t.Error("different seeds should (almost surely) slide differently")
	}
	if img1.TextBase != img1b.TextBase {
		t.Error("same seed must slide identically")
	}
	if img1.TextBase%4096 != 0 {
		t.Error("slide must be page aligned")
	}
}

func TestQuickOffAbsRoundTrip(t *testing.T) {
	p := sampleProgram()
	img := Load(p, LoadOptions{ASLRSeed: 42})
	f := func(raw uint16) bool {
		off := uint64(raw) % p.TextSize()
		got, ok := img.AbsToOff(img.OffToAbs(off))
		return ok && got == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOWXRoundTrip(t *testing.T) {
	p := sampleProgram()
	p.Data = []byte{9, 8, 7}
	var buf bytes.Buffer
	if err := p.WriteOWX(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadOWX(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Module != p.Module || len(got.Text) != len(p.Text) ||
		len(got.Data) != len(p.Data) || len(got.Symbols) != len(p.Symbols) ||
		len(got.Functions) != len(p.Functions) || len(got.Lines) != len(p.Lines) {
		t.Error("owx round trip lost structure")
	}
	for i := range p.Text {
		if got.Text[i] != p.Text[i] {
			t.Fatalf("instruction %d mismatch", i)
		}
	}
}

// owxDigest is the hex SHA-256 of sampleProgram's OWX image.
func owxDigest(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sampleProgram().WriteOWX(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// gobHistory is a type unrelated to OWX that the child process below
// gob-encodes before its first image.
type gobHistory struct {
	Name   string
	Counts map[string][]float64
}

// TestOWXIndependentOfGobHistory: an image's bytes, which job keys
// hash, must not depend on what the process gob-encoded first. A child
// run of this test binary encodes an unrelated type, then writes the
// same program; its image must hash like this process's.
func TestOWXIndependentOfGobHistory(t *testing.T) {
	const marker = "owx-sha256="
	if os.Getenv("OPTIWISE_OWX_GOB_CHILD") == "1" {
		h := gobHistory{Name: "x", Counts: map[string][]float64{"a": {1}}}
		if err := gob.NewEncoder(io.Discard).Encode(h); err != nil {
			t.Fatal(err)
		}
		os.Stdout.WriteString(marker + owxDigest(t) + "\n") //nolint:errcheck // read by the parent
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestOWXIndependentOfGobHistory$")
	cmd.Env = append(os.Environ(), "OPTIWISE_OWX_GOB_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	_, child, ok := strings.Cut(string(out), marker)
	if !ok {
		t.Fatalf("child printed no digest:\n%s", out)
	}
	child, _, _ = strings.Cut(child, "\n")
	if want := owxDigest(t); child != want {
		t.Errorf("image after an unrelated gob encode hashes %.12s, want %.12s", child, want)
	}
}

func TestOWXRejectsGarbage(t *testing.T) {
	if _, err := ReadOWX(bytes.NewBufferString("ELF\x7f garbage")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadOWX(bytes.NewBufferString("OWX\x01 then junk")); err == nil {
		t.Error("corrupt body accepted")
	}
	if _, err := ReadOWX(bytes.NewBufferString("")); err == nil {
		t.Error("empty input accepted")
	}
}
