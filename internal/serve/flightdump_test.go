package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"optiwise"
	"optiwise/internal/obs"
	"optiwise/internal/serve"
)

// withFlightRecorder installs a fresh process-global flight recorder
// for the test and restores the previous one afterwards. Tests using
// it must not run in parallel.
func withFlightRecorder(t *testing.T) *obs.FlightRecorder {
	t.Helper()
	fr := obs.NewFlightRecorder(4096)
	prev := obs.SetFlightRecorder(fr)
	t.Cleanup(func() { obs.SetFlightRecorder(prev) })
	return fr
}

// TestPanicProducesFlightDump is the flight recorder's acceptance test:
// a fault-injected panic in the sampling pass fails the job, and the
// automatic dump must carry the job's trace ID, the activating fault
// site, and at least one span from a pipeline stage that ran.
func TestPanicProducesFlightDump(t *testing.T) {
	withFlightRecorder(t)
	installPlan(t, "seed=1;ooo.run:panic:nth=1")

	dir := t.TempDir()
	srv := serve.New(serve.Config{
		Workers:        1,
		RetryBudget:    -1, // fail on the first panic, no retry
		DefaultTimeout: 30 * time.Second,
		FlightDumpDir:  dir,
	})
	srv.Start()
	defer shutdownServer(t, srv)

	prog := mustProgram(t, progSource(10))
	j, err := srv.SubmitTraced(prog, optiwise.Options{}, 0, testTraceID)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 30*time.Second)
	if _, state, _ := j.Result(); state != serve.StateFailed {
		t.Fatalf("job ended %s, want failed", state)
	}

	dumps := srv.Dumps()
	if len(dumps) == 0 {
		t.Fatal("failed job produced no flight dump")
	}
	d := dumps[len(dumps)-1]
	if d.Reason != "job_failed" {
		t.Errorf("dump reason %q, want job_failed", d.Reason)
	}
	if d.Trace != testTraceID {
		t.Errorf("dump trace %q, want the failed job's %q", d.Trace, testTraceID)
	}
	var faultSite, tracedSpans, metricDeltas int
	spanNames := map[string]bool{}
	for _, rec := range d.Records {
		switch rec.Kind {
		case "fault":
			if rec.Name == "ooo.run" {
				faultSite++
			}
		case "span":
			if rec.Trace == testTraceID {
				tracedSpans++
				spanNames[rec.Name] = true
			}
		case "metric":
			metricDeltas++
		}
	}
	if faultSite == 0 {
		t.Error("dump missing the activating fault site (ooo.run)")
	}
	if tracedSpans == 0 {
		t.Errorf("dump has no spans stamped with the job's trace (names seen: %v)", spanNames)
	}
	if metricDeltas == 0 {
		t.Error("dump missing metric deltas")
	}

	// The dump is also persisted to FlightDumpDir as standalone JSON.
	files, err := filepath.Glob(filepath.Join(dir, "flight-*-job_failed.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no dump file written to %s (err=%v)", dir, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var back obs.FlightDump
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("dump file not valid JSON: %v", err)
	}
	if back.Reason != "job_failed" || back.Trace != testTraceID {
		t.Errorf("dump file header mismatch: reason=%q trace=%q", back.Reason, back.Trace)
	}
	if bytes.Contains(raw, []byte("div t1, t0, t0")) {
		t.Error("dump file leaks program source")
	}
}

// TestFlightDumpEndpoint exercises POST /debug/flightrecorder/dump:
// 409 when no recorder is installed, a full JSON dump when one is.
func TestFlightDumpEndpoint(t *testing.T) {

	// No recorder installed.
	prev := obs.SetFlightRecorder(nil)
	t.Cleanup(func() { obs.SetFlightRecorder(prev) })
	bare := serve.New(serve.Config{Workers: 1})
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	r, err := http.Post(tsBare.URL+"/debug/flightrecorder/dump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Errorf("dump without recorder: status %d, want 409", r.StatusCode)
	}

	// With a recorder: the manual dump returns the ring as JSON and
	// joins the retained history.
	withFlightRecorder(t)
	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	defer shutdownServer(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": progSource(7), "wait": true})
	if st := decodeStatus(t, resp); st.State != serve.StateDone {
		t.Fatalf("job: %s", st.State)
	}
	dump, err := http.Post(ts.URL+"/debug/flightrecorder/dump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(dump.Body)
	dump.Body.Close()
	if dump.StatusCode != http.StatusOK {
		t.Fatalf("manual dump: status %d: %s", dump.StatusCode, body)
	}
	var d obs.FlightDump
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("manual dump not valid JSON: %v", err)
	}
	if d.Reason != "manual" {
		t.Errorf("dump reason %q, want manual", d.Reason)
	}
	var sawSpan bool
	for _, rec := range d.Records {
		if rec.Kind == "span" {
			sawSpan = true
			break
		}
	}
	if !sawSpan {
		t.Error("manual dump after a completed job contains no spans")
	}
	if got := srv.Dumps(); len(got) == 0 || got[len(got)-1].Reason != "manual" {
		t.Errorf("manual dump not retained in history: %d entries", len(got))
	}
	if !strings.Contains(string(body), `"records"`) {
		t.Error("dump JSON missing records field")
	}
}

// TestDegradedResultDumps: a single-pass (degraded) result is a
// diagnosable event — the server snapshots the flight recorder for it.
func TestDegradedResultDumps(t *testing.T) {
	withFlightRecorder(t)
	installPlan(t, "seed=1;dbi.run:error")

	srv := serve.New(serve.Config{
		Workers:        1,
		RetryBudget:    -1,
		DefaultTimeout: 30 * time.Second,
	})
	srv.Start()
	defer shutdownServer(t, srv)

	prog := mustProgram(t, progSource(8))
	j, err := srv.Submit(prog, optiwise.Options{AllowDegraded: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 30*time.Second)
	res, state, errMsg := j.Result()
	if state != serve.StateDone || res == nil || !res.Degraded {
		t.Fatalf("want degraded done result, got state=%s degraded=%v err=%s",
			state, res != nil && res.Degraded, errMsg)
	}
	dumps := srv.Dumps()
	if len(dumps) == 0 {
		t.Fatal("degraded result produced no flight dump")
	}
	if got := dumps[len(dumps)-1].Reason; got != "degraded_result" {
		t.Errorf("dump reason %q, want degraded_result", got)
	}
}
