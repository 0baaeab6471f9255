// Package jsonenc appends JSON into one byte slice, byte for byte as
// encoding/json's Encoder writes it (HTML escaping on), without
// reflection: AppendString and AppendFloat are its two value encodings,
// Key, Elem and End its punctuation, compact or indented by two spaces
// as Encoder.SetIndent("", "  ") indents. A Doc sizes a document before
// it is written, so a renderer allocates it once.
package jsonenc

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// Doc is a renderer's state across the two passes over one document.
// The first pass appends into a small scratch buffer, calling Flush at
// record boundaries, and ends with Sized; the second appends the same
// document into a buffer of that size, exact but for each float's
// bound (see Float). Floats go through Float, so that a NaN or
// infinity fails the first pass.
type Doc struct {
	writing bool
	n       int
	err     error
}

// Flush ends a stretch of the document. In the sizing pass it counts b
// and returns it emptied, to be filled again; in the writing pass it
// returns b unchanged.
func (d *Doc) Flush(b []byte) []byte {
	if d.writing {
		return b
	}
	d.n += len(b)
	return b[:0]
}

// Sized ends the sizing pass with its last stretch b, and returns the
// document's length, or the error of the first float JSON cannot
// encode. Appends after it are the writing pass.
func (d *Doc) Sized(b []byte) (int, error) {
	d.writing = true
	return d.n + len(b), d.err
}

// Grow returns b with room for n more bytes, in at most one
// allocation. (slices.Grow takes two under the race detector, which
// turns off the compiler's append-of-make rewrite.)
func Grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	return append(make([]byte, 0, len(b)+n), b...)
}

// Float appends f as AppendFloat does, remembering its error. The
// sizing pass appends floatMaxLen(f) placeholder bytes instead, which
// spares it a shortest-digits search per float and leaves the buffer at
// most that bound's excess above the document.
func (d *Doc) Float(b []byte, f float64) []byte {
	if d.writing {
		b, _ = AppendFloat(b, f) // finite: the sizing pass refused the rest
		return b
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if d.err == nil {
			_, d.err = AppendFloat(b, f)
		}
		return b
	}
	return append(b, spaces[:floatMaxLen(f)]...)
}

// pow10 holds 10⁰…10²¹, each exact in a float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21}

// floatMaxLen bounds the length AppendFloat appends for a finite f
// without formatting it: exactly for 0 and integral values below 1e21,
// and otherwise as the length of 17 significant digits, the most a
// shortest representation takes, laid out as the format lays them out.
func floatMaxLen(f float64) int {
	n := 0
	if math.Signbit(f) {
		n, f = 1, -f
	}
	switch {
	case f == 0:
		return n + 1
	case f < 1e-6 || f >= 1e21:
		return n + len("1.2345678901234567e-308")
	case f >= 1:
		if f != math.Trunc(f) {
			return n + len("1234567890123456.7") // d integer digits, '.', 17-d more
		}
		d := 1
		for d < len(pow10) && f >= pow10[d] {
			d++
		}
		return n + d
	}
	// 0.0…0ddddddddddddddddd, with z zeros before the first significant
	// digit.
	z := 0
	for f < 1/pow10[z+1] {
		z++
	}
	return n + len("0.") + z + 17
}

const spaces = "                                                                "

// newline starts a line indented depth levels.
func newline(b []byte, depth int) []byte {
	b = append(b, '\n')
	n := 2 * depth
	for ; n > len(spaces); n -= len(spaces) {
		b = append(b, spaces...)
	}
	return append(b, spaces[:n]...)
}

// Key starts an object member named k, which needs no escaping, at
// depth: a comma unless first, the line break and indentation of an
// indented document (depth > 0), and the quoted name with its colon.
func Key(b []byte, depth int, first bool, k string) []byte {
	if !first {
		b = append(b, ',')
	}
	if depth == 0 {
		b = append(b, '"')
		b = append(b, k...)
		return append(b, '"', ':')
	}
	b = append(newline(b, depth), '"')
	b = append(b, k...)
	return append(b, '"', ':', ' ')
}

// Elem starts element i of an array at depth.
func Elem(b []byte, depth, i int) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	if depth == 0 {
		return b
	}
	return newline(b, depth)
}

// End closes with c ('}' or ']') an object or array whose members or
// elements sit at depth. An empty one stays on its line, as {} or [].
func End(b []byte, depth int, empty bool, c byte) []byte {
	if !empty && depth > 0 {
		b = newline(b, depth-1)
	}
	return append(b, c)
}

// Inner returns the depth of the members of a value whose own members
// sit at depth: one deeper when indented, 0 when compact.
func Inner(depth int) int {
	if depth == 0 {
		return 0
	}
	return depth + 1
}

const hex = "0123456789abcdef"

// safe reports the ASCII bytes a string holds as themselves: all but
// the control characters, '"', '\\' and the HTML-significant '<', '>'
// and '&'.
var safe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendString appends s as encoding/json encodes a string: quoted,
// with '"', '\\' and the control characters escaped, '<', '>', '&',
// U+2028 and U+2029 escaped as \u sequences, and each byte of invalid
// UTF-8 replaced by U+FFFD.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if safe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f as encoding/json encodes a float64: the
// shortest representation that reads back as f, in 'f' format, or in
// 'e' format below 1e-6 and from 1e21 in magnitude, with a one-digit
// negative exponent unpadded (1e-7, not 1e-07). NaN and ±Inf have no
// JSON form: for them it appends nothing and returns the error
// encoding/json returns.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
