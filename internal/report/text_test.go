package report

import (
	"fmt"
	"math"
	"testing"

	"optiwise/internal/isa"
)

// FuzzTextFormat checks the append helpers against the fmt verbs they
// replace, at every width either side of zero, on a buffer that already
// holds a non-ASCII prefix (padding counts only the field's runes).
func FuzzTextFormat(f *testing.F) {
	for _, v := range []float64{0, 1.25, -2.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 1e300, -1e-300, 0.005, 99.95} {
		f.Add("main", int8(-24), v, uint8(2), int64(-3), uint64(7))
	}
	f.Add("функция", int8(-24), 100.0, uint8(1), int64(math.MinInt64), uint64(math.MaxUint64))
	f.Add("日本語のファンクション名前が長すぎる", int8(12), 0.5, uint8(4), int64(42), uint64(0))
	f.Add("\xff\xfe", int8(3), 1.0, uint8(0), int64(0), uint64(1))
	f.Fuzz(func(t *testing.T, s string, width int8, v float64, prec uint8, i int64, u uint64) {
		w, p := int(width), int(prec%10)
		const prefix = "§ "
		check := func(verb string, got []byte, want string) {
			t.Helper()
			if string(got) != prefix+want {
				t.Fatalf("%s: got %q, fmt gives %q", verb, got[len(prefix):], want)
			}
		}
		buf := func() []byte { return []byte(prefix) }
		check("%*s", appendStr(buf(), s, w), fmt.Sprintf("%*s", w, s))
		check("%*d uint", appendUint(buf(), u, w), fmt.Sprintf("%*d", w, u))
		check("%*d int", appendInt(buf(), i, w), fmt.Sprintf("%*d", w, i))
		check("%*.*f", appendFloat(buf(), v, p, w), fmt.Sprintf("%*.*f", w, p, v))
		check("0x%x", isa.AppendHex(buf(), u), fmt.Sprintf("0x%x", u))
		check("%*s exact count", appendCount(buf(), u, false, w), fmt.Sprintf("%*s", w, fmt.Sprintf("%d", u)))
		check("%*s estimated count", appendCount(buf(), u, true, w), fmt.Sprintf("%*s", w, fmt.Sprintf("~%d", u)))
	})
}

func TestHeader(t *testing.T) {
	got := header([]int{-24, 7, 0}, "FUNCTION", "TIME%", "SOURCE")
	if want := fmt.Sprintf("%-24s %7s %s\n", "FUNCTION", "TIME%", "SOURCE"); got != want {
		t.Errorf("header = %q, want %q", got, want)
	}
}
