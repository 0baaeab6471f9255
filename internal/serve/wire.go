package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"strings"

	"optiwise"
	"optiwise/internal/cfg"
	"optiwise/internal/core"
)

// WireResult is the result store's one payload, shared by its disk
// segments, ring transfers, replica ingest and journal replay: the
// profile's analysis tables plus its flattened CFG. The program image
// never travels or persists here — the node asking about (or replaying)
// a key necessarily holds the image, because the key is derived from
// it. Reports render from the decoded Result; JSON stays the report
// and journal format, never the payload's.
type WireResult struct {
	Export *core.Export
	Graph  *cfg.FlatGraph
}

// The payload encoding walks WireResult's fields in declaration order,
// recursively:
//
//	bool      one byte, 0 or 1
//	intN      zigzag varint
//	uintN     varint
//	float64   8 bytes, little-endian IEEE-754 bits; NaN and ±Inf are
//	          refused, as json.Marshal refuses them
//	string    varint length, then the bytes
//	slice     varint length+1 (0 is nil, so a report keeps null vs []),
//	          then the elements
//	*T        one byte, 0 for nil or 1, then the T
//	struct    its fields in declaration order
//
// A payload is wireMagic, the 8-byte schema fingerprint, then the
// WireResult. The fingerprint hashes the walked types' names, kinds and
// field names, so a build whose record structs differ reads a payload
// as foreign instead of misreading it; a new record field is encoded
// with no per-field code. The bytes are a function of the value alone
// (no process state such as gob's type ids), so one Result has one
// payload and one checksum on every node. Decoding is strict: every
// length is checked against the bytes left before anything is
// allocated, varints must be minimal, and truncation or trailing bytes
// are errors — so a payload that decodes re-encodes to itself.
const wireMagic = "OWR\x01"

// wireHeader is wireMagic plus the schema fingerprint; wireRoot is the
// compiled codec of WireResult. Any field kind the walk cannot encode
// (map, interface, array, unexported field, …) panics here, at init.
var wireRoot, wireHeader = mustCompileWire(reflect.TypeOf(WireResult{}))

// wireCodec encodes and decodes one type. min is the fewest bytes a
// value of the type encodes to (at least 1), which bounds how many
// slice elements the remaining bytes can possibly hold.
type wireCodec struct {
	min int
	enc func(e *wireEncoder, v reflect.Value)
	dec func(d *wireDecoder, v reflect.Value)
}

// wireEncoder appends a payload to buf. A sizing encoder appends
// nothing and only counts in n the bytes it would append, so
// MarshalBinary allocates the payload once, at its exact length.
type wireEncoder struct {
	buf    []byte
	sizing bool
	n      int
	err    error
}

func (e *wireEncoder) u8(b byte) {
	if e.sizing {
		e.n++
		return
	}
	e.buf = append(e.buf, b)
}

func (e *wireEncoder) uvarint(x uint64) {
	if e.sizing {
		e.n += (bits.Len64(x|1) + 6) / 7
		return
	}
	e.buf = binary.AppendUvarint(e.buf, x)
}

// varint writes x zigzag-encoded, as binary.AppendVarint does.
func (e *wireEncoder) varint(x int64) {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	e.uvarint(ux)
}

func (e *wireEncoder) fixed64(x uint64) {
	if e.sizing {
		e.n += 8
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, x)
}

func (e *wireEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.sizing {
		e.n += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

// wireDecoder reads buf from off. The first failure is sticky: it
// records err and exhausts the input, so every later read fails
// without allocating.
type wireDecoder struct {
	buf []byte
	off int
	err error
}

func (d *wireDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at byte %d", fmt.Sprintf(format, args...), d.off)
	}
	d.off = len(d.buf)
}

func (d *wireDecoder) left() int { return len(d.buf) - d.off }

// next reads one byte.
func (d *wireDecoder) next() byte {
	if d.off >= len(d.buf) {
		d.fail("truncated")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// uvarint reads a minimally encoded varint: a longer encoding of the
// same value would not re-encode to the same bytes.
func (d *wireDecoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return x
}

// wireCompiler builds codecs and feeds the fingerprint a description
// of every type it walks.
type wireCompiler struct {
	codecs map[reflect.Type]*wireCodec
	sig    strings.Builder
}

func mustCompileWire(t reflect.Type) (*wireCodec, string) {
	c, header, err := compileWire(t)
	if err != nil {
		panic(err)
	}
	return c, header
}

// compileWire returns t's codec and the payload header for its schema.
func compileWire(t reflect.Type) (*wireCodec, string, error) {
	wc := &wireCompiler{codecs: make(map[reflect.Type]*wireCodec)}
	c, err := wc.compile(t)
	if err != nil {
		return nil, "", fmt.Errorf("serve: wire codec: %w", err)
	}
	sum := sha256.Sum256([]byte(wc.sig.String()))
	return c, wireMagic + string(sum[:8]), nil
}

func (wc *wireCompiler) compile(t reflect.Type) (*wireCodec, error) {
	fmt.Fprintf(&wc.sig, "%s:%s", t, t.Kind())
	if c, ok := wc.codecs[t]; ok {
		if c.enc == nil {
			return nil, fmt.Errorf("recursive type %s", t)
		}
		wc.sig.WriteString(";")
		return c, nil
	}
	c := &wireCodec{min: 1}
	wc.codecs[t] = c
	switch t.Kind() {
	case reflect.Bool:
		c.enc = func(e *wireEncoder, v reflect.Value) {
			b := byte(0)
			if v.Bool() {
				b = 1
			}
			e.u8(b)
		}
		c.dec = func(d *wireDecoder, v reflect.Value) {
			switch d.next() {
			case 0:
			case 1:
				v.SetBool(true)
			default:
				d.fail("bad bool")
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		shift := 64 - t.Bits()
		c.enc = func(e *wireEncoder, v reflect.Value) { e.varint(v.Int()) }
		c.dec = func(d *wireDecoder, v reflect.Value) {
			ux := d.uvarint()
			x := int64(ux >> 1)
			if ux&1 != 0 {
				x = ^x
			}
			if (x<<shift)>>shift != x {
				d.fail("%s overflows", t)
				return
			}
			v.SetInt(x)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		shift := 64 - t.Bits()
		c.enc = func(e *wireEncoder, v reflect.Value) { e.uvarint(v.Uint()) }
		c.dec = func(d *wireDecoder, v reflect.Value) {
			x := d.uvarint()
			if (x<<shift)>>shift != x {
				d.fail("%s overflows", t)
				return
			}
			v.SetUint(x)
		}
	case reflect.Float64:
		c.min = 8
		c.enc = func(e *wireEncoder, v reflect.Value) {
			f := v.Float()
			if math.IsNaN(f) || math.IsInf(f, 0) {
				if e.err == nil {
					e.err = fmt.Errorf("unsupported value %v", f)
				}
				return
			}
			e.fixed64(math.Float64bits(f))
		}
		c.dec = func(d *wireDecoder, v reflect.Value) {
			if d.left() < 8 {
				d.fail("truncated")
				return
			}
			f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
			if math.IsNaN(f) || math.IsInf(f, 0) {
				d.fail("unsupported value %v", f)
				return
			}
			d.off += 8
			v.SetFloat(f)
		}
	case reflect.String:
		c.enc = func(e *wireEncoder, v reflect.Value) { e.str(v.String()) }
		c.dec = func(d *wireDecoder, v reflect.Value) {
			n := d.uvarint()
			if n > uint64(d.left()) {
				d.fail("string of %d bytes overruns the payload", n)
				return
			}
			v.SetString(string(d.buf[d.off : d.off+int(n)]))
			d.off += int(n)
		}
	case reflect.Slice:
		wc.sig.WriteString("[")
		elem, err := wc.compile(t.Elem())
		if err != nil {
			return nil, err
		}
		wc.sig.WriteString("]")
		c.enc = func(e *wireEncoder, v reflect.Value) {
			if v.IsNil() {
				e.u8(0)
				return
			}
			n := v.Len()
			e.uvarint(uint64(n) + 1)
			for i := 0; i < n; i++ {
				elem.enc(e, v.Index(i))
			}
		}
		c.dec = func(d *wireDecoder, v reflect.Value) {
			n := d.uvarint()
			if n == 0 {
				return
			}
			if n-1 > uint64(d.left()/elem.min) {
				d.fail("%d-element %s overruns the payload", n-1, t)
				return
			}
			s := reflect.MakeSlice(t, int(n-1), int(n-1))
			for i := 0; i < int(n-1) && d.err == nil; i++ {
				elem.dec(d, s.Index(i))
			}
			v.Set(s)
		}
	case reflect.Pointer:
		wc.sig.WriteString("(")
		elem, err := wc.compile(t.Elem())
		if err != nil {
			return nil, err
		}
		wc.sig.WriteString(")")
		c.enc = func(e *wireEncoder, v reflect.Value) {
			if v.IsNil() {
				e.u8(0)
				return
			}
			e.u8(1)
			elem.enc(e, v.Elem())
		}
		c.dec = func(d *wireDecoder, v reflect.Value) {
			switch d.next() {
			case 0:
			case 1:
				p := reflect.New(t.Elem())
				elem.dec(d, p.Elem())
				v.Set(p)
			default:
				d.fail("bad pointer flag")
			}
		}
	case reflect.Struct:
		if t.NumField() == 0 {
			return nil, fmt.Errorf("struct %s has no fields", t)
		}
		fields := make([]*wireCodec, t.NumField())
		c.min = 0
		wc.sig.WriteString("{")
		for i := range fields {
			f := t.Field(i)
			if !f.IsExported() {
				return nil, fmt.Errorf("%s.%s is unexported", t, f.Name)
			}
			wc.sig.WriteString(f.Name + " ")
			fc, err := wc.compile(f.Type)
			if err != nil {
				return nil, err
			}
			wc.sig.WriteString(";")
			fields[i] = fc
			c.min += fc.min
		}
		wc.sig.WriteString("}")
		c.enc = func(e *wireEncoder, v reflect.Value) {
			for i, fc := range fields {
				fc.enc(e, v.Field(i))
			}
		}
		c.dec = func(d *wireDecoder, v reflect.Value) {
			for i, fc := range fields {
				if d.err != nil {
					return
				}
				fc.dec(d, v.Field(i))
			}
		}
	default:
		return nil, fmt.Errorf("%s has unsupported kind %s", t, t.Kind())
	}
	return c, nil
}

// MarshalBinary returns w's payload. A NaN or infinite float is an
// error, as it is for json.Marshal. A sizing pass over w comes first,
// so the payload is allocated once.
func (w *WireResult) MarshalBinary() ([]byte, error) {
	v := reflect.ValueOf(w).Elem()
	size := wireEncoder{sizing: true}
	wireRoot.enc(&size, v)
	if size.err != nil {
		return nil, fmt.Errorf("serve: encode result: %w", size.err)
	}
	e := wireEncoder{buf: append(make([]byte, 0, len(wireHeader)+size.n), wireHeader...)}
	wireRoot.enc(&e, v)
	return e.buf, nil
}

// UnmarshalBinary decodes a payload made by MarshalBinary, which must
// carry export tables. Any other input — a JSON-era segment, another
// schema's payload, a damaged one — is an error, never a panic.
func (w *WireResult) UnmarshalBinary(payload []byte) error {
	if len(payload) < len(wireHeader) || string(payload[:len(wireMagic)]) != wireMagic {
		return errors.New("serve: decode result payload: not a result payload (bad magic)")
	}
	if string(payload[len(wireMagic):len(wireHeader)]) != wireHeader[len(wireMagic):] {
		return errors.New("serve: decode result payload: written under another record schema")
	}
	d := wireDecoder{buf: payload, off: len(wireHeader)}
	var out WireResult
	wireRoot.dec(&d, reflect.ValueOf(&out).Elem())
	if d.err == nil && d.off != len(payload) {
		d.fail("%d trailing bytes", len(payload)-d.off)
	}
	if d.err != nil {
		return fmt.Errorf("serve: decode result payload: %w", d.err)
	}
	if out.Export == nil {
		return fmt.Errorf("serve: result payload missing export tables")
	}
	*w = out
	return nil
}

// EncodeWireResult encodes res as a WireResult payload and returns it
// with its hex SHA-256 — the digest ring transfers carry in
// X-Optiwise-Checksum and the anti-entropy pass compares between
// owners.
func EncodeWireResult(res *optiwise.Result) ([]byte, string, error) {
	payload, err := (&WireResult{Export: res.Export(), Graph: res.Graph.Flatten()}).MarshalBinary()
	if err != nil {
		return nil, "", err
	}
	return payload, WireChecksum(payload), nil
}

// WireChecksum returns the hex SHA-256 of a wire payload.
func WireChecksum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// DecodeWireResult rebuilds a full Result from a wire payload against
// the local program image. Callers verify the payload's checksum (or
// its segment frame) first.
func DecodeWireResult(payload []byte, prog *optiwise.Program) (*optiwise.Result, error) {
	var w WireResult
	if err := w.UnmarshalBinary(payload); err != nil {
		return nil, err
	}
	g, err := w.Graph.Unflatten()
	if err != nil {
		return nil, err
	}
	return core.FromExport(w.Export, prog.Raw(), g), nil
}
