package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"optiwise/internal/obs"
	"optiwise/internal/report"
)

// Dashboard-facing endpoints: the JSON projections and push channels
// underneath the embedded UI (internal/dash). They are plain API
// routes — registered whether or not the UI itself is mounted — so
// curl and the CI smoke job exercise exactly what the dashboard sees.

// handleJobList serves the recent-jobs table: newest first, bounded by
// ?limit= (default 100, capped at the retention table size).
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "invalid limit: want a positive integer")
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.JobList(limit)})
}

// handleDrilldown serves the function → loop → basic-block →
// instruction CPI projection of a completed job's result, the data
// model behind the dashboard's drill-down view.
func (s *Server) handleDrilldown(w http.ResponseWriter, r *http.Request) {
	res, ok := s.doneResult(w, r)
	if !ok {
		return
	}
	body, err := report.AppendDrilldown(nil, res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, "application/json", body)
}

// sseWriter wraps one server-sent-events stream: headers are sent on
// first use and every event is flushed immediately.
type sseWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
}

func newSSE(w http.ResponseWriter) (*sseWriter, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return &sseWriter{w: w, fl: fl}, true
}

// send emits one named event with a JSON payload; false once the
// client is gone.
func (s *sseWriter) send(event string, v any) bool {
	b, err := json.Marshal(v)
	if err != nil {
		return true // unencodable payload: skip the event, keep the stream
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", event, b); err != nil {
		return false
	}
	s.fl.Flush()
	return true
}

// handleJobEvents streams a job's lifecycle over SSE: a "status" event
// on every state change, a "windows" event whenever the streamed
// windowed profile grows, and a final "done" event once terminal. The
// dashboard's job view subscribes instead of polling.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	sse, ok := newSSE(w)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	g := s.reg.Gauge(obs.MServeSSEClients)
	g.Add(1)
	defer g.Add(-1)

	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	var lastStatus []byte
	lastWindows := -1
	emit := func() bool {
		st := job.Status()
		if b, err := json.Marshal(st); err == nil && string(b) != string(lastStatus) {
			lastStatus = b
			if _, err := fmt.Fprintf(sse.w, "event: status\ndata: %s\n\n", b); err != nil {
				return false
			}
			sse.fl.Flush()
		}
		if snap, err := job.StreamSnapshot(); err == nil {
			if n := len(snap.SampleWindows) + len(snap.EdgeWindows); n != lastWindows {
				lastWindows = n
				if !sse.send("windows", snap) {
					return false
				}
			}
		}
		return true
	}
	for {
		if !emit() {
			return
		}
		if job.Status().State.Terminal() {
			sse.send("done", job.Status())
			return
		}
		select {
		case <-job.Done():
			// Final state lands on the next loop iteration's emit.
		case <-ticker.C:
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		}
	}
}

// handleStatsEvents streams the operational snapshot (the cluster
// view's data source) as SSE "stats" events every second until the
// client disconnects.
func (s *Server) handleStatsEvents(w http.ResponseWriter, r *http.Request) {
	sse, ok := newSSE(w)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	g := s.reg.Gauge(obs.MServeSSEClients)
	g.Add(1)
	defer g.Add(-1)
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		if !sse.send("stats", s.Stats()) {
			return
		}
		select {
		case <-ticker.C:
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		}
	}
}

// handleFlightList lists the retained flight-recorder dumps so the
// POST-to-dump endpoint is not write-only.
func (s *Server) handleFlightList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"dumps": s.DumpInfos()})
}

// handleFlightGet serves one retained dump by listing ID.
func (s *Server) handleFlightGet(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid dump id")
		return
	}
	d, ok := s.DumpByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dump (retention holds the most recent dumps only)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	d.WriteJSON(w) //nolint:errcheck // client went away
}
