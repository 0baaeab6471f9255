package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Flight recorder: a fixed-size, lock-light ring buffer that
// continuously records the most recent spans, log records, metric
// deltas, and fault-site activations. When something goes wrong — a
// worker panic, a fault activation, a degraded result, SIGQUIT — the
// ring is snapshotted into a self-contained JSON dump, turning a bare
// stack trace into a replayable narrative of what the process was doing
// in the seconds before.
//
// Discipline matches the rest of the package: always compiled in, one
// atomic pointer load when disabled. The enabled record path is
// allocation-bounded (one record struct) and lock-free: a monotonically
// increasing sequence counter picks a slot, and the fully-built record
// is published with a single atomic pointer store. Readers (Snapshot)
// tolerate concurrent writers; a slot overwritten mid-snapshot simply
// surfaces as the newer record.

// FlightRecord is one event in the ring.
type FlightRecord struct {
	Seq   uint64 `json:"seq"`
	TS    int64  `json:"ts_unix_nano"`
	Kind  string `json:"kind"` // "span" | "log" | "metric" | "fault" | "mark"
	Name  string `json:"name"`
	Trace string `json:"trace_id,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// MarshalJSON flattens Attrs into a deterministic key-sorted object so
// dumps are diffable.
func (r FlightRecord) MarshalJSON() ([]byte, error) {
	type wire struct {
		Seq   uint64         `json:"seq"`
		TS    int64          `json:"ts_unix_nano"`
		Kind  string         `json:"kind"`
		Name  string         `json:"name"`
		Trace string         `json:"trace_id,omitempty"`
		Attrs map[string]any `json:"attrs,omitempty"`
	}
	w := wire{Seq: r.Seq, TS: r.TS, Kind: r.Kind, Name: r.Name, Trace: r.Trace}
	if len(r.Attrs) > 0 {
		w.Attrs = make(map[string]any, len(r.Attrs))
		for _, a := range r.Attrs {
			w.Attrs[a.Key] = a.Value
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON is the inverse of MarshalJSON, so dump files round-trip
// back into FlightDump for tooling and tests. Attrs come back key-sorted.
func (r *FlightRecord) UnmarshalJSON(data []byte) error {
	var w struct {
		Seq   uint64         `json:"seq"`
		TS    int64          `json:"ts_unix_nano"`
		Kind  string         `json:"kind"`
		Name  string         `json:"name"`
		Trace string         `json:"trace_id"`
		Attrs map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = FlightRecord{Seq: w.Seq, TS: w.TS, Kind: w.Kind, Name: w.Name, Trace: w.Trace}
	if len(w.Attrs) > 0 {
		keys := make([]string, 0, len(w.Attrs))
		for k := range w.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		r.Attrs = make([]Attr, len(keys))
		for i, k := range keys {
			r.Attrs[i] = Attr{Key: k, Value: w.Attrs[k]}
		}
	}
	return nil
}

// FlightRecorder is the ring. Safe for concurrent use.
type FlightRecorder struct {
	slots []atomic.Pointer[FlightRecord]
	mask  uint64
	seq   atomic.Uint64
	now   func() time.Time // test seam
}

// DefaultFlightRecorderSize is the ring capacity when none is given.
const DefaultFlightRecorderSize = 4096

// NewFlightRecorder returns a recorder with capacity rounded up to the
// next power of two (minimum 64).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightRecorderSize
	}
	if size < 64 {
		size = 64
	}
	if size&(size-1) != 0 {
		size = 1 << bits.Len(uint(size))
	}
	return &FlightRecorder{
		slots: make([]atomic.Pointer[FlightRecord], size),
		mask:  uint64(size - 1),
		now:   time.Now,
	}
}

// redactAttrs replaces program content with placeholders. Dumps are
// meant to be attached to bug reports and CI artifacts; the profiled
// program's bytes (proprietary source, binaries) must never ride along.
func redactAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]Attr, len(attrs))
	for i, a := range attrs {
		switch a.Key {
		case "source", "binary", "program", "text", "image", "body":
			out[i] = Attr{Key: a.Key, Value: "(redacted)"}
			continue
		}
		if b, ok := a.Value.([]byte); ok {
			out[i] = Attr{Key: a.Key, Value: fmt.Sprintf("(redacted %d bytes)", len(b))}
			continue
		}
		out[i] = a
	}
	return out
}

// Record appends one event to the ring. Lock-free: claim a sequence
// number, build the record fully, publish with one atomic store.
// Nil-safe.
func (fr *FlightRecorder) Record(kind, name, trace string, attrs ...Attr) {
	if fr == nil {
		return
	}
	seq := fr.seq.Add(1) - 1
	rec := &FlightRecord{
		Seq:   seq,
		TS:    fr.now().UnixNano(),
		Kind:  kind,
		Name:  name,
		Trace: trace,
		Attrs: redactAttrs(attrs),
	}
	fr.slots[seq&fr.mask].Store(rec)
}

// Snapshot returns the ring contents ordered by sequence number. It is
// best-effort under concurrent writes: each slot is read with one
// atomic load, and a record overwritten mid-snapshot appears in its
// newer form.
func (fr *FlightRecorder) Snapshot() []FlightRecord {
	if fr == nil {
		return nil
	}
	out := make([]FlightRecord, 0, len(fr.slots))
	for i := range fr.slots {
		if p := fr.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// RecordMetricDeltas records one "metric" event per counter of cur (a
// snapshot's Counters) that moved since prev, the source's counters at
// its previous call: each source keeps its own, so two servers sharing
// the recorder never diff against each other. Intended for dump time
// and periodic cold-path flushes, not per-event hot paths.
func (fr *FlightRecorder) RecordMetricDeltas(prev, cur map[string]uint64) {
	if fr == nil {
		return
	}
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := cur[name]
		if d := v - prev[name]; d != 0 {
			fr.Record("metric", name, "", F("delta", d), F("total", v))
		}
	}
}

// FlightDump is a self-contained snapshot of the ring plus the reason
// it was taken, serializable as one JSON document.
type FlightDump struct {
	Reason  string         `json:"reason"`
	Trace   string         `json:"trace_id,omitempty"`
	TakenAt time.Time      `json:"taken_at"`
	Seq     uint64         `json:"next_seq"`
	Dropped uint64         `json:"dropped"` // events overwritten before this dump
	Records []FlightRecord `json:"records"`
}

// Dump snapshots the ring. Nil-safe: a nil recorder yields an empty
// dump with the reason preserved.
func (fr *FlightRecorder) Dump(reason, trace string) FlightDump {
	d := FlightDump{Reason: reason, Trace: trace, TakenAt: time.Now().UTC(), Records: []FlightRecord{}}
	if fr == nil {
		return d
	}
	d.TakenAt = fr.now().UTC()
	d.Records = fr.Snapshot()
	d.Seq = fr.seq.Load()
	if n := uint64(len(d.Records)); d.Seq > n {
		d.Dropped = d.Seq - n
	}
	return d
}

// WriteJSON writes the dump as indented JSON.
func (d FlightDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// The process-global flight recorder; nil means disabled (the default).
var activeFlight atomic.Pointer[FlightRecorder]

// SetFlightRecorder installs fr as the process-global flight recorder
// (nil disables). Returns the previous recorder.
func SetFlightRecorder(fr *FlightRecorder) *FlightRecorder { return activeFlight.Swap(fr) }

// ActiveFlight returns the installed flight recorder, or nil.
func ActiveFlight() *FlightRecorder { return activeFlight.Load() }

// EnsureFlightRecorder installs a new recorder of the given size if
// none is installed, and returns the active one. Safe under races: the
// first CAS wins.
func EnsureFlightRecorder(size int) *FlightRecorder {
	if fr := activeFlight.Load(); fr != nil {
		return fr
	}
	fr := NewFlightRecorder(size)
	if activeFlight.CompareAndSwap(nil, fr) {
		return fr
	}
	return activeFlight.Load()
}

// Flight records one event on the global flight recorder. One atomic
// load when disabled; call sites never guard.
func Flight(kind, name, trace string, attrs ...Attr) {
	fr := activeFlight.Load()
	if fr == nil {
		return
	}
	fr.Record(kind, name, trace, attrs...)
}
