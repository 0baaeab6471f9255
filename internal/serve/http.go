package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"optiwise"
	"optiwise/internal/dash"
	"optiwise/internal/diff"
	"optiwise/internal/obs"
	"optiwise/internal/report"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a program (see submitRequest;
//	                            honours a traceparent request header)
//	GET    /v1/jobs/{id}        job status (includes trace_id)
//	GET    /v1/jobs/{id}/report rendered report once done (?kind=...)
//	GET    /v1/jobs/{id}/trace  the job's span tree as Chrome trace JSON
//	GET    /v1/jobs/{id}/windows  streamed windowed-profile snapshot
//	                            (options.stream_window), live while the
//	                            job runs and final once done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/lineages/{key}   recorded profile versions of a lineage
//	GET    /v1/lineages/{key}/diff  differential CPI report between two
//	                            versions (?from=&to= digests; defaults
//	                            to the latest pair)
//	GET    /v1/stats            operational snapshot
//	GET    /healthz             liveness (503 while draining)
//	GET    /readyz              readiness (503 + Retry-After when the
//	                            queue is saturated or draining)
//	GET    /v1/jobs             recent jobs, newest first (?limit=)
//	GET    /v1/jobs/{id}/drilldown  function → loop → block →
//	                            instruction CPI projection (dashboard)
//	GET    /v1/jobs/{id}/events server-sent events: live status and
//	                            streamed-window pushes until terminal
//	GET    /metrics             Prometheus exposition of the server's
//	                            metrics (OpenMetrics with exemplars
//	                            when Accept asks for it)
//	POST   /debug/flightrecorder/dump  snapshot the flight recorder
//	GET    /debug/flightrecorder       list retained dumps (id,
//	                            timestamp, trigger)
//	GET    /debug/flightrecorder/{id}  fetch one retained dump
//
// With Config.UI set, the embedded dashboard (internal/dash) is
// mounted at /ui/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.SubmitHandler(nil))
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/drilldown", s.handleDrilldown)
	mux.HandleFunc("GET /v1/jobs/{id}/windows", s.handleWindows)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/lineages/{key}", s.handleLineage)
	mux.HandleFunc("GET /v1/lineages/{key}/diff", s.handleLineageDiff)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/stats/events", s.handleStatsEvents)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /debug/flightrecorder/dump", s.handleFlightDump)
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightList)
	mux.HandleFunc("GET /debug/flightrecorder/{id}", s.handleFlightGet)
	if s.cfg.UI {
		mux.Handle("GET /ui/", dash.Handler())
		mux.HandleFunc("GET /ui", func(w http.ResponseWriter, r *http.Request) {
			http.Redirect(w, r, "/ui/", http.StatusMovedPermanently)
		})
	}
	return mux
}

// submitRequest is the POST /v1/jobs body. Exactly one of Source (OWISA
// assembly) or Binary (an OWX image, base64 in JSON) must be set.
type submitRequest struct {
	// Module names the program; defaults to "job" for Source
	// submissions (Binary images carry their own module name).
	Module string `json:"module,omitempty"`
	Source string `json:"source,omitempty"`
	Binary []byte `json:"binary,omitempty"`
	// Machine selects the simulated processor by name
	// ("xeon-w2195"/"xeon", "neoverse-n1"/"n1"; default xeon-w2195).
	Machine string         `json:"machine,omitempty"`
	Options *submitOptions `json:"options,omitempty"`
	// TimeoutMS bounds the job end to end (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Wait blocks the response until the job reaches a terminal state.
	Wait bool `json:"wait,omitempty"`
	// TraceID propagates a caller-chosen 32-hex trace identity. A
	// traceparent request header takes precedence over this field.
	TraceID string `json:"trace_id,omitempty"`
	// Lineage keys the job into the server's profile-lineage history:
	// successive full-fidelity results submitted under one key are
	// retained (bounded, oldest first), diffed for CPI regressions
	// against their predecessor, and served by GET /v1/lineages/{key}.
	Lineage string `json:"lineage,omitempty"`
}

// submitOptions mirrors optiwise.Options with signed integers so that
// negative values are caught with descriptive errors instead of
// wrapping around to absurd unsigned magnitudes.
type submitOptions struct {
	SamplePeriod   int64  `json:"sample_period,omitempty"`
	InterruptCost  int64  `json:"interrupt_cost,omitempty"`
	Precise        bool   `json:"precise,omitempty"`
	SampleJitter   bool   `json:"jitter,omitempty"`
	NoStack        bool   `json:"no_stack,omitempty"`
	Attribution    string `json:"attribution,omitempty"`
	Unweighted     bool   `json:"unweighted,omitempty"`
	LoopThreshold  int64  `json:"loop_threshold,omitempty"`
	SampleASLRSeed int64  `json:"sample_aslr_seed,omitempty"`
	InstrASLRSeed  int64  `json:"instr_aslr_seed,omitempty"`
	RandSeed       uint64 `json:"rand_seed,omitempty"`
	MaxCycles      int64  `json:"max_cycles,omitempty"`
	// Window is optiwise.Options.Window: cycle windows of the sampled
	// run's simulated core, which ride on the JSON export, the text
	// report's phase summary and the job's Chrome trace, and are served
	// live, with the instrumentation pass's windows, at
	// GET /v1/jobs/{id}/windows. It is part of the job's content
	// address. The wire name is kept for existing clients.
	Window int64 `json:"stream_window,omitempty"`
	// AllowDegraded opts this job into single-pass (degraded) results
	// when exactly one profiling pass fails. Degraded results are
	// flagged in the job status and never cached.
	AllowDegraded bool `json:"allow_degraded,omitempty"`
	// Tiered/HotThreshold select tiered adaptive instrumentation
	// (optiwise.Options.Tiered): a profile parameter, so tiered and
	// full submissions of the same program never share a cache entry.
	Tiered       bool    `json:"tiered,omitempty"`
	HotThreshold float64 `json:"hot_threshold,omitempty"`
}

// toOptions converts the wire options into optiwise.Options,
// rejecting negative magnitudes up front.
func (o *submitOptions) toOptions() (optiwise.Options, error) {
	var opts optiwise.Options
	if o == nil {
		return opts, nil
	}
	switch {
	case o.SamplePeriod < 0:
		return opts, fmt.Errorf("sampling period must be positive, got %d", o.SamplePeriod)
	case o.InterruptCost < 0:
		return opts, fmt.Errorf("interrupt cost must be non-negative, got %d", o.InterruptCost)
	case o.LoopThreshold < 0:
		return opts, fmt.Errorf("loop threshold must be non-negative, got %d", o.LoopThreshold)
	case o.MaxCycles < 0:
		return opts, fmt.Errorf("max cycles must be non-negative, got %d", o.MaxCycles)
	case o.Window < 0:
		return opts, fmt.Errorf("stream window must be non-negative, got %d", o.Window)
	}
	opts.SamplePeriod = uint64(o.SamplePeriod)
	opts.InterruptCost = uint64(o.InterruptCost)
	opts.Precise = o.Precise
	opts.SampleJitter = o.SampleJitter
	opts.DisableStackProfiling = o.NoStack
	opts.Unweighted = o.Unweighted
	opts.LoopThreshold = uint64(o.LoopThreshold)
	opts.SampleASLRSeed = o.SampleASLRSeed
	opts.InstrASLRSeed = o.InstrASLRSeed
	opts.RandSeed = o.RandSeed
	opts.MaxCycles = uint64(o.MaxCycles)
	opts.Window = uint64(o.Window)
	opts.AllowDegraded = o.AllowDegraded
	opts.Tiered = o.Tiered
	opts.HotThreshold = o.HotThreshold
	switch o.Attribution {
	case "", "auto":
		opts.Attribution = optiwise.AttrAuto
	case "none":
		opts.Attribution = optiwise.AttrNone
	case "pred":
		opts.Attribution = optiwise.AttrPredecessor
	default:
		return opts, fmt.Errorf("unknown attribution %q (want auto, none, or pred)", o.Attribution)
	}
	return opts, nil
}

// Route decides where a submission runs, for SubmitHandler. It gets the
// raw body and the job key the body decoded to; it either answers the
// request itself (the cluster layer forwards the body to the key's ring
// owner) and returns true, or returns false to run the job here.
type Route func(w http.ResponseWriter, r *http.Request, body []byte, key string) bool

// SubmitHandler serves POST /v1/jobs. The body is decoded, its program
// assembled (or fetched from the program memo) and its job key derived
// once; a non-nil route then sees the key before the job is submitted
// here. Handler mounts it with a nil route.
func (s *Server) SubmitHandler(route Route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := ReadBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes)
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
				return
			}
			writeError(w, http.StatusBadRequest, "malformed request: "+err.Error())
			return
		}
		d, err := s.decodeSubmission(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if route != nil && route(w, r, body, d.key) {
			return
		}
		s.serveSubmission(w, r, d)
	}
}

// decodedSubmission is a POST /v1/jobs body decoded, validated and
// keyed: what a route routes on is what this node submits.
type decodedSubmission struct {
	req  submitRequest
	prog *optiwise.Program
	opts optiwise.Options // validated and canonical
	key  string
}

// decodeSubmission parses and validates a POST /v1/jobs body, resolves
// its program through the memo and derives its job key. Errors are the
// client's (HTTP 400).
func (s *Server) decodeSubmission(body []byte) (*decodedSubmission, error) {
	d := &decodedSubmission{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d.req); err != nil {
		return nil, fmt.Errorf("malformed request: %w", err)
	}
	var err error
	if d.prog, err = s.program(&d.req); err != nil {
		return nil, err
	}
	opts, err := d.req.Options.toOptions()
	if err != nil {
		return nil, fmt.Errorf("invalid options: %w", err)
	}
	if opts.Machine, err = optiwise.MachineByName(d.req.Machine); err != nil {
		return nil, err
	}
	if d.opts, d.key, err = s.canonicalKey(d.prog, opts); err != nil {
		return nil, err
	}
	if d.req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be non-negative, got %d", d.req.TimeoutMS)
	}
	return d, nil
}

// serveSubmission submits a decoded body and answers the request.
func (s *Server) serveSubmission(w http.ResponseWriter, r *http.Request, d *decodedSubmission) {
	traceID := strings.TrimSpace(d.req.TraceID)
	if h := r.Header.Get("traceparent"); h != "" {
		tid, err := obs.ParseTraceparent(h)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid traceparent header: "+err.Error())
			return
		}
		traceID = tid
	}
	job, err := s.submitKeyed(d.prog, d.opts, d.key, Submission{
		Timeout: time.Duration(d.req.TimeoutMS) * time.Millisecond,
		TraceID: traceID,
		Lineage: strings.TrimSpace(d.req.Lineage),
	})
	switch {
	case errors.Is(err, ErrQueueFull):
		s.writeBusy(w, http.StatusTooManyRequests, "job queue is full")
		return
	case errors.Is(err, ErrDraining):
		s.writeBusy(w, http.StatusServiceUnavailable, "server is draining")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Echo the job's trace identity back so callers that did not choose
	// one can still correlate logs, metrics exemplars, and the
	// /jobs/{id}/trace export.
	w.Header().Set("traceparent", "00-"+job.TraceID+"-0000000000000001-01")
	if d.req.Wait {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			// The client went away; the job keeps running (it may be
			// shared) and its own deadline bounds it.
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.Status())
}

// program materializes the submitted program from source or binary,
// through the server's program memo.
func (s *Server) program(r *submitRequest) (*optiwise.Program, error) {
	switch {
	case r.Source != "" && len(r.Binary) > 0:
		return nil, errors.New("submit exactly one of source or binary, not both")
	case r.Source != "":
		module := r.Module
		if module == "" {
			module = "job"
		}
		return s.programs.source(module, r.Source)
	case len(r.Binary) > 0:
		return s.programs.binary(r.Binary)
	default:
		return nil, errors.New("submit one of source (OWISA assembly) or binary (OWX image)")
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	_, found := s.Cancel(r.PathValue("id"))
	if !found {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	job, _ := s.Job(r.PathValue("id"))
	writeJSON(w, http.StatusOK, job.Status())
}

// reportRenderers maps ?kind= values to report renderers, each
// returning the rendered body. "annotated" is handled separately
// because it takes a function name.
var reportRenderers = map[string]struct {
	contentType string
	render      func(*optiwise.Result) ([]byte, error)
}{
	"full":      {"text/plain; charset=utf-8", buffered(optiwise.WriteReport)},
	"functions": {"text/plain; charset=utf-8", buffered(optiwise.WriteFunctionTable)},
	"loops":     {"text/plain; charset=utf-8", buffered(optiwise.WriteLoopTable)},
	"callgraph": {"text/plain; charset=utf-8", buffered(optiwise.WriteCallGraph)},
	"csv":       {"text/csv; charset=utf-8", buffered(optiwise.WriteInstCSV)},
	"loops-csv": {"text/csv; charset=utf-8", buffered(optiwise.WriteLoopCSV)},
	"json":      {"application/json", func(r *optiwise.Result) ([]byte, error) { return r.AppendJSON(nil) }},
	"yaml":      {"application/yaml; charset=utf-8", buffered(optiwise.WriteYAML)},
}

// buffered turns a writer-style renderer into one returning its body.
func buffered(write func(io.Writer, *optiwise.Result) error) func(*optiwise.Result) ([]byte, error) {
	return func(r *optiwise.Result) ([]byte, error) {
		var buf bytes.Buffer
		err := write(&buf, r)
		return buf.Bytes(), err
	}
}

// doneResult returns the result of the job the request names, or
// answers 404 or 409 and returns false when there is none yet.
func (s *Server) doneResult(w http.ResponseWriter, r *http.Request) (*optiwise.Result, bool) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return nil, false
	}
	res, state, errMsg := job.Result()
	switch state {
	case StateDone:
		return res, true
	case StateFailed:
		writeError(w, http.StatusConflict, "job failed: "+errMsg)
	case StateCanceled:
		writeError(w, http.StatusConflict, "job was canceled")
	default:
		writeError(w, http.StatusConflict, fmt.Sprintf("job is %s; retry once done", state))
	}
	return nil, false
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	res, ok := s.doneResult(w, r)
	if !ok {
		return
	}
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = "full"
	}
	if kind == "annotated" {
		fn := r.URL.Query().Get("func")
		if fn == "" {
			if fn = report.HottestFunc(res); fn == "" {
				writeError(w, http.StatusConflict, "profile has no functions to annotate")
				return
			}
		}
		var buf bytes.Buffer
		if err := optiwise.WriteAnnotated(&buf, res, fn); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeBody(w, "text/plain; charset=utf-8", buf.Bytes())
		return
	}
	rr, ok := reportRenderers[kind]
	if !ok {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown report kind %q (want full, functions, loops, annotated, callgraph, csv, loops-csv, json, or yaml)", kind))
		return
	}
	body, err := rr.render(res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, rr.contentType, body)
}

// writeBody answers 200 with a rendered body, its length known up
// front, so a client or the cluster proxy hop can presize its read.
func writeBody(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client went away
}

// maxBodyPresize caps the buffer a claimed Content-Length can reserve
// before any body byte arrives: far above the few-KB programs and
// results the service exchanges, far below the body limits.
const maxBodyPresize = 1 << 20

// ReadBody reads r to EOF, as io.ReadAll does, into a buffer presized
// from length, the body's Content-Length (-1 when unknown), so a body of
// known size up to maxBodyPresize is read into one allocation. A claimed
// length reserves at most maxBodyPresize; past that the buffer grows only
// as bytes arrive. A length past limit reads as io.ReadAll does: the
// body is rejected or truncated. r must itself stop at limit
// (http.MaxBytesReader or io.LimitReader), which keeps each caller's own
// over-limit behaviour.
func ReadBody(r io.Reader, length, limit int64) ([]byte, error) {
	if length < 0 || length > limit {
		return io.ReadAll(r)
	}
	// One byte past the body lets the read that returns EOF land
	// without growing the buffer.
	b := make([]byte, 0, min(length, maxBodyPresize-1)+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	code := http.StatusOK
	if st.Draining {
		// A draining 503 is a busy response like any other: load
		// balancers and retrying clients get the same Retry-After hint
		// writeBusy attaches, instead of hammering a drain in progress.
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeJSON(w, code, map[string]any{
		"status":   map[bool]string{false: "ok", true: "draining"}[st.Draining],
		"draining": st.Draining,
	})
}

// handleTrace serves the job's span tree as Chrome trace JSON
// (chrome://tracing / Perfetto "Open trace file"), stitched with the
// cross-node segments other cluster members recorded for the job's
// trace ID (router hop, peer serve, replication), so the export names
// every node the job touched. A job whose result was served from the
// cache never executed, so it has no trace; that and not-yet-started
// jobs answer 409 with a descriptive error.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	var buf bytes.Buffer
	if err := job.WriteTrace(&buf, s.selfNode(), s.segmentsFor(job.TraceID)); err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeBody(w, "application/json", buf.Bytes())
}

// handleWindows serves the job's streamed windowed-profile snapshot:
// the per-window sampling and instrumentation summaries observed so far
// plus their running totals and hottest functions. Live while the job
// runs (poll it to watch IPC converge) and final once it is done.
// Jobs that did not request streaming (options.stream_window), were
// served from the result cache, or have not started yet answer 409 with
// a descriptive error, mirroring the trace endpoint.
func (s *Server) handleWindows(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	snap, err := job.StreamSnapshot()
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// lineageResponse is the GET /v1/lineages/{key} body.
type lineageResponse struct {
	Lineage  string           `json:"lineage"`
	Versions []lineageVersion `json:"versions"`
}

func (s *Server) handleLineage(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	versions, ok := s.lineages.list(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown lineage %q", key))
		return
	}
	writeJSON(w, http.StatusOK, lineageResponse{Lineage: key, Versions: versions})
}

// handleLineageDiff computes the differential CPI report between two
// recorded versions of a lineage. ?from= and ?to= select versions by
// digest (or an unambiguous prefix of at least 8 hex digits); both
// default to the latest pair, so a bare GET answers "did the newest
// version regress?". ?threshold= and ?sigma= override the server's
// regression threshold and significance band for this one report.
func (s *Server) handleLineageDiff(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	versions, ok := s.lineages.list(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown lineage %q", key))
		return
	}
	from := r.URL.Query().Get("from")
	to := r.URL.Query().Get("to")
	if from == "" || to == "" {
		if len(versions) < 2 {
			writeError(w, http.StatusConflict,
				fmt.Sprintf("lineage %q has %d recorded version(s); diffing needs two (or explicit ?from=&to=)", key, len(versions)))
			return
		}
		if to == "" {
			to = versions[len(versions)-1].Digest
		}
		if from == "" {
			from = versions[len(versions)-2].Digest
		}
	}
	oldExp, err := s.lineages.version(key, from)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	newExp, err := s.lineages.version(key, to)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	opts := diff.Options{Threshold: regressionThreshold}
	if v := r.URL.Query().Get("threshold"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid threshold: "+err.Error())
			return
		}
		opts.Threshold = t
	}
	if v := r.URL.Query().Get("sigma"); v != "" {
		sg, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid sigma: "+err.Error())
			return
		}
		opts.Sigma = sg
	}
	rep, err := diff.Compute(oldExp, newExp, opts)
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleReady answers readiness probes: 200 while the server is
// accepting work, 503 + Retry-After once the queue is saturated or the
// server is draining. Load balancers use this to shed traffic toward
// less loaded replicas before submits start bouncing off ErrQueueFull.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	saturated := s.cfg.QueueDepth > 0 && st.QueueDepth >= s.cfg.QueueDepth
	switch {
	case st.Draining:
		s.writeBusy(w, http.StatusServiceUnavailable, "server is draining")
	case saturated:
		s.writeBusy(w, http.StatusServiceUnavailable, "job queue is saturated")
	default:
		body := map[string]any{
			"status":         "ready",
			"queue_depth":    st.QueueDepth,
			"queue_capacity": s.cfg.QueueDepth,
		}
		if st.Cluster != nil {
			body["ring_size"] = st.Cluster.RingSize
			body["peers_live"] = st.Cluster.PeersLive
			body["peers_suspect"] = st.Cluster.PeersSuspect
		}
		writeJSON(w, http.StatusOK, body)
	}
}

// handleFlightDump snapshots the flight recorder on demand and returns
// the dump as JSON. The snapshot is also retained in the server's
// recent-dump ring (and written to FlightDumpDir when configured),
// exactly as automatic panic/failure dumps are.
func (s *Server) handleFlightDump(w http.ResponseWriter, _ *http.Request) {
	d, ok := s.dumpFlight("manual", "")
	if !ok {
		writeError(w, http.StatusConflict,
			"no flight recorder installed (start the server with a flight recorder enabled)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	d.WriteJSON(w) //nolint:errcheck // client went away
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.ServeExposition(w, r, []obs.NodeSnapshot{{Snapshot: s.MetricsSnapshot()}}) //nolint:errcheck // client went away
}

// writeBusy emits a 429/503 with a Retry-After hint. Retry-After has
// whole-second granularity, so the configured delay is rounded UP —
// truncation would tell clients to come back before the hint the
// operator chose (a 1.5s config used to round to 1s, and a sub-second
// config to 0s before clamping). The hint also scales with queue
// pressure: a client told to retry while the queue is still saturated
// would only bounce off it again, so a full queue quadruples the wait.
func (s *Server) writeBusy(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, code, msg)
}

// retryAfterSeconds computes the busy-response hint: the configured
// delay, scaled by queue pressure, rounded up to whole seconds with a
// 1s floor.
func (s *Server) retryAfterSeconds() int {
	d := s.cfg.RetryAfter
	if depth, capacity := len(s.queue), s.cfg.QueueDepth; capacity > 0 && depth > 0 {
		d += 3 * d * time.Duration(depth) / time.Duration(capacity)
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}
