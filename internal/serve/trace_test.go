package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"optiwise/internal/obs"
	"optiwise/internal/serve"
)

const testTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

// TestTraceIDRoundTrip drives a trace identity through the whole
// surface: traceparent header in, trace_id in every status response,
// traceparent echoed back, and the span tree retrievable as Chrome
// trace JSON stamped with the same ID.
func TestTraceIDRoundTrip(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	srv.Start()
	defer shutdownServer(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"source":  progSource(6),
		"options": map[string]any{"stream_window": 512},
		"wait":    true,
	})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+testTraceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("traceparent"); !strings.Contains(got, testTraceID) {
		t.Errorf("response traceparent = %q, want it to carry %s", got, testTraceID)
	}
	st := decodeStatus(t, resp)
	if st.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.TraceID != testTraceID {
		t.Fatalf("status trace_id = %q, want %q", st.TraceID, testTraceID)
	}

	// Polling status carries the same identity.
	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeStatus(t, r); got.TraceID != testTraceID {
		t.Errorf("polled trace_id = %q", got.TraceID)
	}

	// The trace endpoint exports Chrome trace JSON: every event carries
	// the required fields, the serve.job root span and the pipeline
	// stages are present, spans are stamped with the trace ID, and the
	// telemetry window produced counter tracks.
	tr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(tr.Body)
		t.Fatalf("trace endpoint: status %d: %s", tr.StatusCode, b)
	}
	if ct := tr.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content type %q", ct)
	}
	raw, err := io.ReadAll(tr.Body)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("trace not valid Chrome trace JSON: %v", err)
	}
	if parsed.DisplayTimeUnit == "" || len(parsed.TraceEvents) == 0 {
		t.Fatal("empty trace export")
	}
	spans := map[string]bool{}
	counters := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		switch ev.Ph {
		case "X":
			spans[ev.Name] = true
			if got, _ := ev.Args["trace_id"].(string); got != testTraceID {
				t.Errorf("span %q trace_id = %q, want %q", ev.Name, got, testTraceID)
			}
		case "C":
			counters[ev.Name] = true
		case "M":
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	for _, want := range []string{"serve.job", "profile", "sample", "instrument", "analyze", "combine"} {
		if !spans[want] {
			t.Errorf("trace missing span %q (have %v)", want, spans)
		}
	}
	for _, want := range []string{"sim ipc", "sim stalls"} {
		if !counters[want] {
			t.Errorf("trace missing counter track %q (have %v)", want, counters)
		}
	}
}

func TestSubmitTraceIDValidation(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	defer shutdownServer(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Malformed traceparent header: 400.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs",
		strings.NewReader(`{"source":"x"}`))
	req.Header.Set("traceparent", "00-zzzz-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed traceparent: status %d, want 400", resp.StatusCode)
	}

	// Malformed body trace_id: 400 with a descriptive error.
	bad := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"source": progSource(3), "trace_id": "UPPERCASE-IS-NOT-HEX"})
	b, _ := io.ReadAll(bad.Body)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "trace ID") {
		t.Errorf("bad trace_id: status %d body %s", bad.StatusCode, b)
	}

	// Body trace_id (no header) is honoured; server-minted otherwise.
	ok := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"source": progSource(4), "trace_id": testTraceID, "wait": true})
	if st := decodeStatus(t, ok); st.TraceID != testTraceID {
		t.Errorf("body trace_id not honoured: %q", st.TraceID)
	}
	minted := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"source": progSource(5), "wait": true})
	if st := decodeStatus(t, minted); !obs.ValidTraceID(st.TraceID) {
		t.Errorf("server-minted trace_id invalid: %q", st.TraceID)
	}
}

// TestTraceCacheHit: a job served from the result cache never executed,
// so its trace endpoint answers 409 with a descriptive error.
func TestTraceCacheHit(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	defer shutdownServer(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": progSource(9), "wait": true})
	stFirst := decodeStatus(t, first)
	if stFirst.State != serve.StateDone {
		t.Fatalf("first job: %s", stFirst.State)
	}
	second := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": progSource(9), "wait": true})
	stSecond := decodeStatus(t, second)
	if !stSecond.Cached {
		t.Fatalf("second submission should hit the cache: %+v", stSecond)
	}
	r, err := http.Get(ts.URL + "/v1/jobs/" + stSecond.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusConflict || !strings.Contains(string(b), "cache") {
		t.Errorf("cache-hit trace: status %d body %s, want 409 mentioning the cache", r.StatusCode, b)
	}
	// The executed job's trace is still there.
	rt, err := http.Get(ts.URL + "/v1/jobs/" + stFirst.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	rt.Body.Close()
	if rt.StatusCode != http.StatusOK {
		t.Errorf("executed job's trace: status %d", rt.StatusCode)
	}
}

// TestReadyz covers the readiness ladder: ready, queue-saturated (503 +
// Retry-After), draining (503).
func TestReadyz(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rb struct {
		Status   string `json:"status"`
		Capacity int    `json:"queue_capacity"`
	}
	if err := json.NewDecoder(ready.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK || rb.Status != "ready" || rb.Capacity != 1 {
		t.Errorf("idle readyz: status %d body %+v", ready.StatusCode, rb)
	}

	// Workers are not started: one queued job saturates the depth-1 queue.
	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": progSource(6)})
	resp.Body.Close()
	sat, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(sat.Body)
	sat.Body.Close()
	if sat.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz: status %d body %s, want 503", sat.StatusCode, b)
	}
	if sat.Header.Get("Retry-After") == "" {
		t.Error("saturated readyz missing Retry-After")
	}

	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	drained, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	drained.Body.Close()
	if drained.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz: status %d, want 503", drained.StatusCode)
	}
	if drained.Header.Get("Retry-After") == "" {
		t.Error("draining readyz missing Retry-After")
	}
}

// TestMetricsContentNegotiation: the default is Prometheus 0.0.4 text;
// an OpenMetrics Accept header upgrades to the exemplar-carrying
// format.
func TestMetricsContentNegotiation(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	defer shutdownServer(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": progSource(4), "wait": true})
	st := decodeStatus(t, resp)
	if st.State != serve.StateDone {
		t.Fatalf("job: %s", st.State)
	}

	plain, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := io.ReadAll(plain.Body)
	plain.Body.Close()
	if ct := plain.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default /metrics content type %q", ct)
	}
	if strings.Contains(string(pb), "# EOF") {
		t.Error("0.0.4 exposition carries OpenMetrics EOF")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	om, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ob, _ := io.ReadAll(om.Body)
	om.Body.Close()
	if ct := om.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("openmetrics content type %q", ct)
	}
	text := string(ob)
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Error("OpenMetrics exposition missing # EOF")
	}
	// The completed job's latency observation carries its trace as an
	// exemplar on the job-latency histogram.
	if !strings.Contains(text, `# {trace_id="`+st.TraceID+`"}`) {
		t.Errorf("job latency exemplar for trace %s missing:\n%s", st.TraceID, text)
	}
}

func shutdownServer(t *testing.T, srv *serve.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}
