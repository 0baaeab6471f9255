package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"optiwise/internal/obs"
)

// Cross-node trace stitching (DESIGN.md §14). Every cluster hop —
// router forward, peer-cache fetch, replication transfer — records a
// TraceSegment under the job's W3C trace ID on the node where the hop
// ran. When a stitched trace is exported, the owning node collects its
// own segments plus every live peer's (served by this endpoint) and
// the serve layer renders them as per-node process rows alongside the
// job's own span tree.

// traceSegmentTimeout bounds one peer's segment query; a trace export
// should never hang on a dying peer.
const traceSegmentTimeout = 800 * time.Millisecond

// traceSegments is the segments hook given to
// serve.Server.SetClusterHooks: local segments plus whatever the live
// peers hold for the same trace ID.
func (n *Node) traceSegments(traceID string) []obs.TraceSegment {
	if !obs.ValidTraceID(traceID) {
		return nil
	}
	segs := obs.SegmentsFor(traceID)
	snap := n.mem.snapshot()
	for _, addr := range snap.livePeers {
		remote, err := n.fetchSegments(addr, traceID)
		if err != nil {
			obs.Warn("cluster: peer segment query failed",
				obs.F("peer", addr), obs.F("trace", traceID), obs.F("err", err.Error()))
			continue
		}
		segs = append(segs, remote...)
	}
	return dedupSegments(segs)
}

// dedupSegments drops duplicate copies of one hop (a peer may return a
// segment this node also holds, e.g. when stores overlap).
func dedupSegments(segs []obs.TraceSegment) []obs.TraceSegment {
	seen := make(map[string]bool, len(segs))
	out := segs[:0]
	for _, s := range segs {
		k := fmt.Sprintf("%s|%s|%d", s.Node, s.Name, s.StartUnixNano)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	return out
}

// fetchSegments pulls one peer's recorded segments for traceID.
func (n *Node) fetchSegments(addr, traceID string) ([]obs.TraceSegment, error) {
	ctx, cancel := context.WithTimeout(context.Background(), traceSegmentTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+addr+"/cluster/v1/traces/"+traceID, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for reuse
		return nil, fmt.Errorf("cluster: peer %s answered %s", addr, resp.Status)
	}
	var body struct {
		Segments []obs.TraceSegment `json:"segments"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&body); err != nil {
		return nil, err
	}
	return body.Segments, nil
}

// handleTraceSegments serves GET /cluster/v1/traces/{traceID}: the
// segments this node recorded for one trace. Local state only — the
// caller fans out, so answering from peers here would recurse.
func (n *Node) handleTraceSegments(w http.ResponseWriter, r *http.Request) {
	traceID := r.PathValue("traceID")
	if !obs.ValidTraceID(traceID) {
		writeJSONError(w, http.StatusBadRequest, "malformed trace ID")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"node":     n.cfg.Self,
		"segments": obs.SegmentsFor(traceID),
	})
}

// recordSegment stamps one hop on this node under traceID, with the
// wall-clock span the hop actually covered.
func (n *Node) recordSegment(traceID, name string, start time.Time, attrs map[string]string) {
	if !obs.ValidTraceID(traceID) {
		return
	}
	obs.RecordSegment(obs.TraceSegment{
		TraceID:       traceID,
		Node:          n.cfg.Self,
		Name:          name,
		StartUnixNano: start.UnixNano(),
		DurationUS:    float64(time.Since(start).Microseconds()),
		Attrs:         attrs,
	})
}
