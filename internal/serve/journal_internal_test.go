package serve

import (
	"reflect"
	"testing"
	"time"

	"optiwise"
)

// TestJournalSubmitRoundTrip pins that a journaled submission replays
// under the options it was accepted with. Every exported Options field
// that Canonical keeps is set to a non-zero value by reflection, so a
// field added to Options but left out of journalSubmit fails here: its
// replayed job would get a different key, and the original key's submit
// record would be re-enqueued on every restart.
func TestJournalSubmitRoundTrip(t *testing.T) {
	// Canonical clears these (observation channels and fault injection),
	// so they never reach the key and are not journaled.
	skip := map[string]bool{"OnIncrement": true, "StreamWindow": true, "FaultSpec": true}

	var opts optiwise.Options
	v := reflect.ValueOf(&opts).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if !sf.IsExported() || skip[sf.Name] {
			continue
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(i + 1)) // distinct per field, so swaps show too
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(1000 + i))
		case reflect.Float32, reflect.Float64:
			f.SetFloat(0.25)
		default:
			if f.Type() != reflect.TypeOf(optiwise.Machine{}) {
				t.Fatalf("Options.%s (%s): give it a non-zero test value", sf.Name, f.Type())
			}
			f.Set(reflect.ValueOf(optiwise.NeoverseN1())) // not the default machine
		}
	}

	prog, err := optiwise.Assemble("rt", `
.func main
main:
    li a0, 0
    li a7, 93
    syscall
.endfunc
`)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	canon := s.canonicalize(opts)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; !skip[name] && reflect.ValueOf(canon).Field(i).IsZero() {
			t.Fatalf("Options.%s is zero after canonicalize: the test value is wrong", name)
		}
	}
	want, err := jobKey(prog, canon)
	if err != nil {
		t.Fatal(err)
	}

	js := newJournalSubmit(prog.Module(), canon, Submission{}, 0, time.Second)
	replayed := s.canonicalize(js.toOptions())
	if !reflect.DeepEqual(replayed, canon) {
		t.Errorf("journal round trip changed the options:\n got %+v\nwant %+v", replayed, canon)
	}
	got, err := jobKey(prog, replayed)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("replayed job key %s, want the original %s", got, want)
	}
}
