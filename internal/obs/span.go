package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value attribute attached to a span or log event.
type Attr struct {
	Key   string
	Value any
}

// F builds an Attr ("field").
func F(key string, value any) Attr { return Attr{Key: key, Value: value} }

// SpanData is one completed span, ready for export. Times are offsets
// from the tracer's start on the monotonic clock.
type SpanData struct {
	Name     string
	Start    time.Duration
	Duration time.Duration
	// Parent is the index (into the tracer's finished-span log order of
	// *opened* spans) of the enclosing span, or -1 for roots.
	Parent int
	// ID is the span's open-order index; stable across export formats.
	ID    int
	Attrs []Attr
}

// Tracer records hierarchical spans. It is safe for concurrent use; the
// OptiWISE pipeline itself is sequential, so nesting is tracked with an
// explicit open-span stack rather than goroutine-local storage (the API
// stays context-free, per the repository's plumbing-averse style).
type Tracer struct {
	epoch time.Time
	// clock returns the elapsed monotonic time since epoch; tests
	// substitute a fake.
	clock func() time.Duration

	mu       sync.Mutex
	next     int
	open     []*Span
	spans    []SpanData
	traceID  string
	counters []CounterSample
}

// CounterSample is one point on a named counter track, exported as a
// Chrome trace "C" event (a stacked counter chart row in Perfetto). The
// interval-telemetry stream from the simulated core lands here.
type CounterSample struct {
	Track  string
	TSUS   float64 // microseconds since tracer epoch
	Values map[string]float64
}

// SetTraceID stamps the tracer with a trace identity; every exported
// span and the Chrome trace metadata carry it. Nil-safe.
func (t *Tracer) SetTraceID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

// TraceID returns the tracer's trace identity, or "". Nil-safe.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// AddCounter appends one sample to a named counter track. Nil-safe.
func (t *Tracer) AddCounter(track string, tsMicros float64, values map[string]float64) {
	if t == nil || len(values) == 0 {
		return
	}
	cp := make(map[string]float64, len(values))
	for k, v := range values {
		cp[k] = v
	}
	t.mu.Lock()
	t.counters = append(t.counters, CounterSample{Track: track, TSUS: tsMicros, Values: cp})
	t.mu.Unlock()
}

// Counters returns a snapshot of the counter-track samples.
func (t *Tracer) Counters() []CounterSample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]CounterSample, len(t.counters))
	copy(out, t.counters)
	return out
}

// NewTracer returns a tracer whose clock starts now (monotonic).
func NewTracer() *Tracer {
	epoch := time.Now()
	return &Tracer{
		epoch: epoch,
		clock: func() time.Duration { return time.Since(epoch) },
	}
}

// Span is one open span. The zero/nil span is a valid no-op.
type Span struct {
	tracer *Tracer
	name   string
	id     int
	parent int
	start  time.Duration
	attrs  []Attr
	ended  bool
}

// Start opens a span named name, nested under the innermost span still
// open on this tracer. Nil-safe.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	now := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].id
	}
	s := &Span{tracer: t, name: name, id: t.next, parent: parent, start: now}
	t.next++
	t.open = append(t.open, s)
	return s
}

// StartChild opens a span explicitly parented under s, bypassing the
// open-span stack. The ambient stack assumes one active lineage; spans
// for sibling work running on concurrent goroutines (the overlapped
// profiling passes) must name their parent explicitly or they would
// nest under whichever sibling opened last. A child opened this way is
// not pushed onto the stack, so it cannot capture unrelated spans
// opened elsewhere while it is running. Nil-safe.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	now := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Span{tracer: t, name: name, id: t.next, parent: s.id, start: now}
	t.next++
	return c
}

// Tracer returns the tracer the span belongs to, or nil. Nil-safe.
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// SetAttr attaches an attribute to the span. Nil-safe.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tracer.mu.Unlock()
	return s
}

// End closes the span and commits it to the tracer. Ending twice is a
// no-op; ending out of order closes the span without disturbing its
// siblings. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	now := t.clock()
	t.mu.Lock()
	if s.ended {
		t.mu.Unlock()
		return
	}
	s.ended = true
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == s {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	t.spans = append(t.spans, SpanData{
		Name:     s.name,
		Start:    s.start,
		Duration: now - s.start,
		Parent:   s.parent,
		ID:       s.id,
		Attrs:    s.attrs,
	})
	trace := t.traceID
	t.mu.Unlock()
	// Mirror the completed span into the flight recorder (one atomic
	// load when no recorder is installed), outside the tracer lock so
	// the recorder can never block the tracer.
	if fr := activeFlight.Load(); fr != nil {
		fr.Record("span", s.name, trace,
			F("us", float64((now-s.start).Nanoseconds())/1e3),
			F("id", s.id))
	}
}

// Spans returns a snapshot of the completed spans, in open order.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// chromeEvent is one Chrome trace-event object ("X" complete events:
// explicit timestamp + duration, nesting inferred by containment).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object trace container Perfetto and
// chrome://tracing both accept.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the completed spans as Chrome trace-event
// JSON, loadable in chrome://tracing and ui.perfetto.dev. selfNode,
// when non-empty, names the local process (pid 1) and tags its spans
// with a node arg. segs are cross-node trace segments grafted into the
// same timeline: each distinct segment node becomes its own process
// (pid 10+) named "node <addr>", with segment wall-clock starts
// converted to tracer-relative microseconds via the tracer's epoch.
// Counter-track samples (interval telemetry from the simulated core)
// export as "C" events on pid 2 so Perfetto renders them as stacked
// counter rows under a separate "telemetry" process.
func (t *Tracer) WriteChromeTrace(w io.Writer, selfNode string, segs []TraceSegment) error {
	if t == nil {
		return fmt.Errorf("obs: no tracer installed")
	}
	spans := t.Spans()
	traceID := t.TraceID()
	counters := t.Counters()
	epochNS := t.epoch.UnixNano()
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if selfNode != "" {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
			Args: map[string]any{"name": "node " + selfNode},
		})
	}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Duration.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  1,
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		if traceID != "" {
			if ev.Args == nil {
				ev.Args = make(map[string]any, 1)
			}
			if _, ok := ev.Args["trace_id"]; !ok {
				ev.Args["trace_id"] = traceID
			}
		}
		if selfNode != "" {
			if ev.Args == nil {
				ev.Args = make(map[string]any, 1)
			}
			if _, ok := ev.Args["node"]; !ok {
				ev.Args["node"] = selfNode
			}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}

	// One process per segment node, sorted for deterministic output.
	byNode := make(map[string][]TraceSegment)
	for _, sg := range segs {
		byNode[sg.Node] = append(byNode[sg.Node], sg)
	}
	nodeNames := make([]string, 0, len(byNode))
	for n := range byNode {
		nodeNames = append(nodeNames, n)
	}
	sort.Strings(nodeNames)
	for i, n := range nodeNames {
		pid := 10 + i
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": "node " + n},
		})
		ns := byNode[n]
		sort.Slice(ns, func(a, b int) bool { return ns[a].StartUnixNano < ns[b].StartUnixNano })
		for _, sg := range ns {
			args := map[string]any{"node": sg.Node}
			if sg.TraceID != "" {
				args["trace_id"] = sg.TraceID
			}
			for k, v := range sg.Attrs {
				args[k] = v
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: sg.Name,
				Ph:   "X",
				Ts:   float64(sg.StartUnixNano-epochNS) / 1e3,
				Dur:  sg.DurationUS,
				Pid:  pid,
				Tid:  1,
				Args: args,
			})
		}
	}

	if len(counters) > 0 {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: 2, Tid: 0,
			Args: map[string]any{"name": "telemetry"},
		})
		for _, c := range counters {
			vals := make(map[string]any, len(c.Values))
			for k, v := range c.Values {
				vals[k] = v
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: c.Track, Ph: "C", Ts: c.TSUS, Pid: 2, Tid: 0, Args: vals,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
