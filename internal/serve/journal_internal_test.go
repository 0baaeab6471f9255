package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"optiwise"
	"optiwise/internal/durable"
)

// TestJournalSubmitRoundTrip pins that a journaled submission replays
// the program image and the options it was accepted with. Every exported Options field
// that Canonical keeps is set to a non-zero value by reflection, so a
// field added to Options but left out of journalSubmit fails here: its
// replayed job would get a different key, and the original key's submit
// record would be re-enqueued on every restart.
func TestJournalSubmitRoundTrip(t *testing.T) {
	// Canonical clears the observation hook, so it never reaches the
	// key and is not journaled.
	skip := map[string]bool{"OnIncrement": true}

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

	image, err := prog.Binary()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(newJournalSubmit(prog.Module(), image, canon, Submission{}, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// The window is journaled once, under the name replay has always
	// read it by.
	if n := strings.Count(string(data), `"telemetry_window":`); n != 1 || strings.Contains(string(data), "stream_window") {
		t.Errorf("journal record carries the window %d times: %s", n, data)
	}
	var js journalSubmit
	if err := json.Unmarshal(data, &js); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js.Image, image) {
		t.Error("journal round trip changed the program image")
	}
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

// TestJournalSubmitOldStreamWindow: a submit record written when the
// streamed window rode beside the options (as stream_window) replays
// without a window, under the key that record was journaled with.
func TestJournalSubmitOldStreamWindow(t *testing.T) {
	var js journalSubmit
	if err := json.Unmarshal([]byte(`{"module":"m","timeout_ms":1000,"stream_window":4096,"sample_period":300}`), &js); err != nil {
		t.Fatal(err)
	}
	if opts := js.toOptions(); opts.Window != 0 || opts.SamplePeriod != 300 {
		t.Errorf("replayed options %+v, want period 300 and no window", opts)
	}
}

// TestReplayPending pins which keys replay re-enqueues, and from what.
// A key whose last record is submit or retry, or the start record
// earlier versions wrote, is in flight; a key that failed, or that ever
// completed (a submit trailing its complete is a straggler), is not. An
// in-flight key whose submit record carries no image, as records did
// when images lived in a programs/ directory, is dropped at re-enqueue.
func TestReplayPending(t *testing.T) {
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
	image, err := prog.Binary()
	if err != nil {
		t.Fatal(err)
	}
	withImage, err := json.Marshal(journalSubmit{Module: "rt", Image: image, TimeoutMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	noImage := []byte(`{"module":"rt","timeout_ms":1000}`)
	rec := func(typ, key string, data []byte) durable.Record {
		return durable.Record{Type: typ, Key: key, Data: data}
	}
	sum := &durable.ReplaySummary{Records: []durable.Record{
		rec(durable.RecSubmit, "done", withImage),
		rec(durable.RecComplete, "done", nil),
		rec(durable.RecSubmit, "done", withImage),
		rec(durable.RecSubmit, "failed", withImage),
		rec(durable.RecFail, "failed", nil),
		rec(durable.RecSubmit, "retried", withImage),
		rec(durable.RecRetry, "retried", nil),
		rec(durable.RecSubmit, "old", noImage),
		rec("start", "old", nil),
	}}
	s := New(Config{})
	s.replayJournal(sum)
	var keys []string
	for _, p := range s.pending {
		keys = append(keys, p.key)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"old", "retried"}) {
		t.Fatalf("replay left %v in flight, want [old retried]", keys)
	}
	s.resubmitPending()
	if jobs := s.Stats().Jobs; jobs != 1 {
		t.Errorf("re-enqueued %d jobs, want 1: the imageless submit is dropped", jobs)
	}
}
