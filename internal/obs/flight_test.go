package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRingWrap(t *testing.T) {
	fr := NewFlightRecorder(64)
	if len(fr.slots) != 64 {
		t.Fatalf("cap = %d, want 64", len(fr.slots))
	}
	for i := 0; i < 200; i++ {
		fr.Record("mark", fmt.Sprintf("ev%d", i), "")
	}
	recs := fr.Snapshot()
	if len(recs) != 64 {
		t.Fatalf("snapshot length = %d, want ring capacity 64", len(recs))
	}
	// The survivors are exactly the newest 64, in sequence order.
	for i, r := range recs {
		wantSeq := uint64(200 - 64 + i)
		if r.Seq != wantSeq {
			t.Fatalf("record %d: seq = %d, want %d", i, r.Seq, wantSeq)
		}
		if r.Name != fmt.Sprintf("ev%d", wantSeq) {
			t.Fatalf("record %d: name = %q, want ev%d", i, r.Name, wantSeq)
		}
	}
	d := fr.Dump("test", "")
	if d.Dropped != 200-64 {
		t.Errorf("dropped = %d, want %d", d.Dropped, 200-64)
	}
	if d.Seq != 200 {
		t.Errorf("next_seq = %d, want 200", d.Seq)
	}
}

func TestFlightRecorderSizing(t *testing.T) {
	for _, tt := range []struct{ in, want int }{
		{0, DefaultFlightRecorderSize}, {-5, DefaultFlightRecorderSize},
		{1, 64}, {64, 64}, {65, 128}, {100, 128}, {4096, 4096},
	} {
		if got := len(NewFlightRecorder(tt.in).slots); got != tt.want {
			t.Errorf("NewFlightRecorder(%d) capacity = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestFlightRecorderRedaction(t *testing.T) {
	fr := NewFlightRecorder(64)
	fr.Record("log", "submit", "abc",
		F("source", "loop:\n  addi x1, x1, 1\n  jal loop"),
		F("binary", "OWX\x01..."),
		F("payload", []byte{1, 2, 3, 4}),
		F("module", "demo"))
	recs := fr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("want 1 record, got %d", len(recs))
	}
	got := map[string]any{}
	for _, a := range recs[0].Attrs {
		got[a.Key] = a.Value
	}
	if got["source"] != "(redacted)" || got["binary"] != "(redacted)" {
		t.Errorf("program content not redacted: %v", got)
	}
	if got["payload"] != "(redacted 4 bytes)" {
		t.Errorf("byte slice not redacted: %v", got["payload"])
	}
	if got["module"] != "demo" {
		t.Errorf("benign attr damaged: %v", got["module"])
	}
	// The dump JSON itself must not contain the program text either.
	var buf bytes.Buffer
	if err := fr.Dump("test", "").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "addi x1") {
		t.Error("dump JSON leaks program source")
	}
}

func TestFlightDumpJSONShape(t *testing.T) {
	fr := NewFlightRecorder(64)
	fr.now = func() time.Time { return time.Unix(1700000000, 42) }
	fr.Record("span", "combine", "feedfacefeedfacefeedfacefeedface", F("dur_us", 12))
	d := fr.Dump("worker_panic", "feedfacefeedfacefeedfacefeedface")
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Reason  string `json:"reason"`
		Trace   string `json:"trace_id"`
		TakenAt string `json:"taken_at"`
		Records []struct {
			Seq   uint64         `json:"seq"`
			TS    int64          `json:"ts_unix_nano"`
			Kind  string         `json:"kind"`
			Name  string         `json:"name"`
			Trace string         `json:"trace_id"`
			Attrs map[string]any `json:"attrs"`
		} `json:"records"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("dump not valid JSON: %v", err)
	}
	if back.Reason != "worker_panic" || back.Trace != "feedfacefeedfacefeedfacefeedface" {
		t.Errorf("dump header mismatch: %+v", back)
	}
	if len(back.Records) != 1 || back.Records[0].Kind != "span" ||
		back.Records[0].Name != "combine" || back.Records[0].Attrs["dur_us"] != 12.0 {
		t.Errorf("dump records mismatch: %+v", back.Records)
	}
}

func TestFlightRecorderMetricDeltas(t *testing.T) {
	fr := NewFlightRecorder(64)
	r := NewRegistry()
	r.Counter(MSamplesTaken).Add(10)
	first := r.FullSnapshot().Counters
	fr.RecordMetricDeltas(nil, first)
	r.Counter(MSamplesTaken).Add(5)
	r.Counter(MDBICleanCalls).Add(1)
	second := r.FullSnapshot().Counters
	fr.RecordMetricDeltas(first, second)
	fr.RecordMetricDeltas(second, r.FullSnapshot().Counters) // nothing moved: no new records

	var deltas []FlightRecord
	for _, rec := range fr.Snapshot() {
		if rec.Kind == "metric" {
			deltas = append(deltas, rec)
		}
	}
	if len(deltas) != 3 {
		t.Fatalf("want 3 metric-delta records, got %d: %+v", len(deltas), deltas)
	}
	find := func(name string, wantDelta, wantTotal uint64, from []FlightRecord) {
		t.Helper()
		for _, rec := range from {
			if rec.Name != name {
				continue
			}
			got := map[string]any{}
			for _, a := range rec.Attrs {
				got[a.Key] = a.Value
			}
			if got["delta"] != wantDelta || got["total"] != wantTotal {
				t.Errorf("%s: delta/total = %v/%v, want %d/%d", name, got["delta"], got["total"], wantDelta, wantTotal)
			}
			return
		}
		t.Errorf("no metric record for %s", name)
	}
	find(MSamplesTaken, 10, 10, deltas[:1])
	find(MSamplesTaken, 5, 15, deltas[1:])
	find(MDBICleanCalls, 1, 1, deltas[1:])
}

// TestFlightRecorderConcurrent hammers the ring from many goroutines
// while snapshotting; run under -race this is the lock-free publication
// proof.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				fr.Record("mark", "ev", "", F("g", g), F("i", i))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			recs := fr.Snapshot()
			for j := 1; j < len(recs); j++ {
				if recs[j].Seq <= recs[j-1].Seq {
					t.Errorf("snapshot out of order: %d then %d", recs[j-1].Seq, recs[j].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := fr.seq.Load(); got != 8*500 {
		t.Errorf("sequence = %d, want %d", got, 8*500)
	}
}

func TestFlightGlobalNilSafe(t *testing.T) {
	prev := SetFlightRecorder(nil)
	defer SetFlightRecorder(prev)
	// Disabled: one atomic load, no panic, no effect.
	Flight("mark", "nothing", "")
	if ActiveFlight() != nil {
		t.Fatal("recorder should be nil")
	}
	var nilFR *FlightRecorder
	nilFR.Record("mark", "x", "")
	if nilFR.Snapshot() != nil {
		t.Error("nil recorder should be inert")
	}
	d := nilFR.Dump("reason", "trace")
	if d.Reason != "reason" || d.Trace != "trace" || len(d.Records) != 0 {
		t.Errorf("nil dump should be empty with reason preserved: %+v", d)
	}

	// EnsureFlightRecorder: first call installs, second returns the same.
	fr1 := EnsureFlightRecorder(64)
	fr2 := EnsureFlightRecorder(1 << 20)
	if fr1 == nil || fr1 != fr2 {
		t.Error("EnsureFlightRecorder should install once and be idempotent")
	}
	Flight("mark", "seen", "")
	if n := len(fr1.Snapshot()); n != 1 {
		t.Errorf("global Flight did not reach installed recorder: %d records", n)
	}
	SetFlightRecorder(nil)
}

// TestSpanEndMirrorsToFlight: finished spans land in the flight ring
// with their trace identity, which is how a post-panic dump can show
// which pipeline stages ran.
func TestSpanEndMirrorsToFlight(t *testing.T) {
	fr := NewFlightRecorder(64)
	prev := SetFlightRecorder(fr)
	defer SetFlightRecorder(prev)

	tr := fakeTracer()
	tr.SetTraceID("cafef00dcafef00dcafef00dcafef00d")
	tr.Start("sample").End()

	recs := fr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("want 1 flight record, got %d", len(recs))
	}
	if recs[0].Kind != "span" || recs[0].Name != "sample" {
		t.Errorf("unexpected record: %+v", recs[0])
	}
	if recs[0].Trace != "cafef00dcafef00dcafef00dcafef00d" {
		t.Errorf("span record lost trace ID: %q", recs[0].Trace)
	}
}
