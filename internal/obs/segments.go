package obs

import (
	"sort"
	"sync"
)

// Cross-node trace segments. A job's tracer lives on the node that
// executed it, but the job may have touched other nodes: the router
// that forwarded the submission, a sibling that served the result from
// its cache, the replica that received the payload. Those nodes record
// their contribution here — a flat, wall-clock-stamped segment keyed
// by the job's trace ID — and the owning node stitches them into the
// exported Chrome trace by querying peers (GET /cluster/v1/traces).
// Segments are recorded only on cluster RPC paths, so the store is
// always on; it is bounded FIFO by trace so it can never grow without
// limit.

// TraceSegment is one remote (or local, post-tracer) contribution to a
// distributed trace.
type TraceSegment struct {
	TraceID       string            `json:"trace_id"`
	Node          string            `json:"node"`
	Name          string            `json:"name"`
	StartUnixNano int64             `json:"start_unix_nano"`
	DurationUS    float64           `json:"duration_us"`
	Attrs         map[string]string `json:"attrs,omitempty"`
}

const (
	maxSegmentTraces    = 256
	maxSegmentsPerTrace = 64
)

// segmentStore is a bounded per-process store of trace segments.
type segmentStore struct {
	mu    sync.Mutex
	byID  map[string][]TraceSegment
	order []string // FIFO of trace IDs for eviction
}

var segments = &segmentStore{byID: make(map[string][]TraceSegment)}

// RecordSegment stores one segment under its trace ID. Segments with
// an invalid trace ID are dropped; per-trace and total-trace caps
// evict oldest-first.
func RecordSegment(seg TraceSegment) {
	if !ValidTraceID(seg.TraceID) {
		return
	}
	s := segments
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.byID[seg.TraceID]
	if !ok {
		if len(s.order) >= maxSegmentTraces {
			oldest := s.order[0]
			s.order = s.order[1:]
			delete(s.byID, oldest)
		}
		s.order = append(s.order, seg.TraceID)
	}
	if len(cur) >= maxSegmentsPerTrace {
		return
	}
	s.byID[seg.TraceID] = append(cur, seg)
}

// SegmentsFor returns a copy of the segments recorded for a trace ID,
// sorted by start time.
func SegmentsFor(traceID string) []TraceSegment {
	s := segments
	s.mu.Lock()
	cur := s.byID[traceID]
	out := make([]TraceSegment, len(cur))
	copy(out, cur)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNano < out[j].StartUnixNano })
	return out
}
