package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// FuzzAppendString checks AppendString against json.Marshal, on a
// buffer that already holds a prefix.
func FuzzAppendString(f *testing.F) {
	for _, s := range []string{
		"", "main", "<>&", "<a href=\"x\">&amp;</a>", "\u2028", "\u2029", "a\u2028b\u2029c",
		"\xff", "\xff\xfe", "a\xc3(b", "\xe2\x80", "\x00\x01\x1f\x7f", "\"\\/", "\b\f\n\r\t",
		"日本語", "функция", "\U0001F600",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		const prefix = "§ "
		got := AppendString([]byte(prefix), s)
		if string(got) != prefix+string(want) {
			t.Fatalf("AppendString(%q) = %q, json.Marshal gives %q", s, got[len(prefix):], want)
		}
	})
}

// FuzzAppendFloat checks AppendFloat against json.Marshal: the same
// bytes for a finite float, the same error and nothing appended for NaN
// and ±Inf. floatMaxLen bounds every finite float's length, exactly for
// integral ones.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 123456789, 1e20, 1e21, 999999999999999900000,
		1e-6, 9.999999999999999e-7, 1e-7, 1.5e-10, 1e-100, 1e300, -1e300, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want, wantErr := json.Marshal(v)
		const prefix = "§ "
		got, err := AppendFloat([]byte(prefix), v)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("AppendFloat(%v): error %v, json.Marshal error %v", v, err, wantErr)
		case err != nil:
			if string(got) != prefix {
				t.Fatalf("AppendFloat(%v) failed but appended %q", v, got[len(prefix):])
			}
			if err.Error() != wantErr.Error() {
				t.Fatalf("AppendFloat(%v): error %q, json.Marshal error %q", v, err, wantErr)
			}
		case string(got) != prefix+string(want):
			t.Fatalf("AppendFloat(%v) = %q, json.Marshal gives %q", v, got[len(prefix):], want)
		case floatMaxLen(v) < len(want):
			t.Fatalf("floatMaxLen(%v) = %d, below the %d bytes of %s", v, floatMaxLen(v), len(want), want)
		case v == math.Trunc(v) && math.Abs(v) < 1e21 && floatMaxLen(v) != len(want):
			t.Fatalf("floatMaxLen(%v) = %d for integral %s", v, floatMaxLen(v), want)
		}
	})
}

type doc struct {
	Name   string   `json:"name"`
	Count  uint64   `json:"count"`
	Ratio  float64  `json:"ratio"`
	Starts []uint64 `json:"starts"`
	Empty  []uint64 `json:"empty"`
	Kids   []doc    `json:"kids"`
}

// appendJSON appends d with its members at depth, flushing after each.
func (d *doc) appendJSON(b []byte, depth int, x *Doc) []byte {
	b = AppendString(Key(append(b, '{'), depth, true, "name"), d.Name)
	b = strconv.AppendUint(Key(b, depth, false, "count"), d.Count, 10)
	b = x.Flush(x.Float(Key(b, depth, false, "ratio"), d.Ratio))
	in := Inner(depth)
	for _, list := range []struct {
		k  string
		vs []uint64
	}{{"starts", d.Starts}, {"empty", d.Empty}} {
		b = Key(b, depth, false, list.k)
		if list.vs == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for i, v := range list.vs {
			b = strconv.AppendUint(Elem(b, in, i), v, 10)
		}
		b = End(b, in, len(list.vs) == 0, ']')
	}
	b = append(Key(b, depth, false, "kids"), '[')
	for i := range d.Kids {
		b = d.Kids[i].appendJSON(Elem(b, in, i), Inner(in), x)
	}
	return x.Flush(End(End(b, in, len(d.Kids) == 0, ']'), depth, false, '}'))
}

// render writes d in two passes, as the package's renderers do.
func (d *doc) render(depth int) ([]byte, error) {
	var x Doc
	var scratch [64]byte
	size, err := x.Sized(d.appendJSON(scratch[:0], depth, &x))
	if err != nil {
		return nil, err
	}
	return d.appendJSON(make([]byte, 0, size), depth, &x), nil
}

// TestDocMatchesEncoder: a document of every kind of member, nested,
// appends as encoding/json's Encoder writes it, compact (depth 0) and
// indented (depth 1), into a buffer the sizing pass sized exactly but
// for the floats' bounds; a non-finite float fails the sizing pass.
func TestDocMatchesEncoder(t *testing.T) {
	d := doc{
		Name: "<main>", Count: math.MaxUint64, Ratio: 1e-7, Starts: []uint64{0, 10}, Empty: []uint64{},
		Kids: []doc{{Name: "a", Ratio: 2.5, Kids: []doc{{Name: "b\u2028", Kids: []doc{}}}}},
	}
	for _, depth := range []int{0, 1} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		if depth > 0 {
			enc.SetIndent("", "  ")
		}
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
		got, err := d.render(depth)
		if err != nil {
			t.Fatal(err)
		}
		// Only the floats, which the sizing pass bounds, leave room.
		slack := 0
		for _, f := range []float64{d.Ratio, d.Kids[0].Ratio, 0, 0} {
			b, _ := AppendFloat(nil, f)
			slack += floatMaxLen(f) - len(b)
		}
		if cap(got) != len(got)+slack {
			t.Errorf("depth %d: the sizing pass counted %d bytes for %d", depth, cap(got), len(got))
		}
		if got = append(got, '\n'); !bytes.Equal(got, want.Bytes()) { // Encode ends with a newline
			t.Errorf("depth %d:\n got: %s\nwant: %s", depth, got, want.Bytes())
		}
	}
	d.Kids[0].Kids[0].Ratio = math.Inf(-1)
	if got, err := d.render(1); err == nil || err.Error() != "json: unsupported value: -Inf" {
		t.Errorf("an infinite float rendered %q, error %v", got, err)
	}
}
