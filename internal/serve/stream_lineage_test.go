package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"optiwise"
	"optiwise/internal/obs"
	"optiwise/internal/serve"
)

// fastSource is progSource's program with the div kernel replaced by a
// single-cycle addi body: same module, same shape, far lower CPI. The
// pair plants a large, significant CPI regression for lineage tests.
func fastSource(trips int) string {
	return strings.ReplaceAll(progSource(trips), "div t1, t0, t0", "addi t1, t0, 1")
}

// pollDone polls the job until it terminates and asserts success.
func pollDone(t *testing.T, base string, st serve.JobStatus) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
		r, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d", r.StatusCode)
		}
		st = decodeStatus(t, r)
	}
	if st.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	return st
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if out != nil && r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return r.StatusCode
}

// TestWindowsEndpoint drives streamed windowed profiling over HTTP:
// submit with options.stream_window, and the windows endpoint serves
// the combined snapshot, whose sampling windows are the Result's
// intervals; jobs without a window, and cache hits that never
// executed, answer 409.
func TestWindowsEndpoint(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	srv.Start()
	defer srv.Shutdown(t.Context())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := map[string]any{
		"source":  progSource(80),
		"options": map[string]any{"sample_period": 300, "stream_window": 2048},
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", submit)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	st := pollDone(t, ts.URL, decodeStatus(t, resp))

	var snap optiwise.StreamSnapshot
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/windows", &snap); code != http.StatusOK {
		t.Fatalf("windows: status %d", code)
	}
	if !snap.Complete || !snap.SampleDone || !snap.EdgeDone {
		t.Errorf("snapshot incomplete after a done job: %+v", snap)
	}
	if len(snap.SampleWindows) == 0 || len(snap.EdgeWindows) == 0 {
		t.Errorf("no windows recorded: %d sample, %d edge",
			len(snap.SampleWindows), len(snap.EdgeWindows))
	}
	if snap.Cycles == 0 || snap.Instructions == 0 || snap.Blocks == 0 {
		t.Errorf("cumulative totals empty: %+v", snap)
	}
	if len(snap.TopFuncs) == 0 || snap.TopFuncs[0].Name != "kernel" {
		t.Errorf("hottest function: %+v", snap.TopFuncs)
	}
	// The window is part of the Result: its JSON report carries one
	// interval per non-empty sampling window.
	var export struct {
		Intervals []struct {
			Cycles     uint64 `json:"cycles"`
			UserCycles uint64 `json:"user_cycles"`
		} `json:"intervals"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/report?kind=json", &export); code != http.StatusOK {
		t.Fatalf("json report: status %d", code)
	}
	nonEmpty := 0
	for _, w := range snap.SampleWindows {
		if w.Cycles > 0 {
			if nonEmpty < len(export.Intervals) && (export.Intervals[nonEmpty].Cycles != w.Cycles ||
				export.Intervals[nonEmpty].UserCycles != w.UserCycles) {
				t.Errorf("window %d: %d/%d cycles, interval %+v", w.Seq, w.Cycles, w.UserCycles, export.Intervals[nonEmpty])
			}
			nonEmpty++
		}
	}
	if nonEmpty != len(export.Intervals) {
		t.Errorf("%d non-empty sampling windows, %d intervals in the report", nonEmpty, len(export.Intervals))
	}
	// The absorbed-window counter the benchmark harness reads moves
	// once per window on every server, durable or not.
	if got, want := srv.Stats().WindowsCheckpointed, uint64(len(snap.SampleWindows)+len(snap.EdgeWindows)); got != want {
		t.Errorf("Stats.WindowsCheckpointed = %d, want %d absorbed windows", got, want)
	}

	// A job without a window has none to serve. The window is part of
	// the content address, so the same program without it is a
	// different job.
	resp = postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"source":  progSource(80),
		"options": map[string]any{"sample_period": 300},
	})
	plain := pollDone(t, ts.URL, decodeStatus(t, resp))
	if plain.Cached || plain.Digest == st.Digest {
		t.Errorf("plain submission shared the windowed job's result (digest %s, cached %v)", plain.Digest, plain.Cached)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+plain.ID+"/windows", nil); code != http.StatusConflict {
		t.Errorf("windows on a non-streamed job: status %d, want 409", code)
	}

	// The identical resubmission hits the result cache — and a cached
	// job never executed, so it has no windows either.
	resp = postJSON(t, ts.URL+"/v1/jobs", submit)
	cached := pollDone(t, ts.URL, decodeStatus(t, resp))
	if cached.Digest != st.Digest {
		t.Fatalf("streamed resubmission changed the digest: %s vs %s", cached.Digest, st.Digest)
	}
	if !cached.Cached {
		t.Fatal("streamed resubmission missed the cache")
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+cached.ID+"/windows", nil); code != http.StatusConflict {
		t.Errorf("windows on a cached job: status %d, want 409", code)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/nope/windows", nil); code != http.StatusNotFound {
		t.Errorf("windows on an unknown job: status %d, want 404", code)
	}
}

// TestLineageRegressionFlow is the differential-profiling acceptance
// path: two versions of the same workload under one lineage key, the
// slower version flagged by the lineage diff endpoint, counted by
// optiwise_profile_regressions_total, and marked in the flight
// recorder.
func TestLineageRegressionFlow(t *testing.T) {
	fr := withFlightRecorder(t)
	srv := serve.New(serve.Config{Workers: 2})
	srv.Start()
	defer srv.Shutdown(t.Context())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submitLineage := func(source string) serve.JobStatus {
		resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
			"source":  source,
			"lineage": "bench",
			"options": map[string]any{"sample_period": 300},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		return pollDone(t, ts.URL, decodeStatus(t, resp))
	}
	v1 := submitLineage(fastSource(60))
	v2 := submitLineage(progSource(60)) // div kernel: large CPI regression

	var listing struct {
		Lineage  string `json:"lineage"`
		Versions []struct {
			Digest string  `json:"digest"`
			Module string  `json:"module"`
			JobID  string  `json:"job_id"`
			Cycles uint64  `json:"cycles"`
			IPC    float64 `json:"ipc"`
		} `json:"versions"`
	}
	if code := getJSON(t, ts.URL+"/v1/lineages/bench", &listing); code != http.StatusOK {
		t.Fatalf("lineage listing: status %d", code)
	}
	if listing.Lineage != "bench" || len(listing.Versions) != 2 {
		t.Fatalf("listing: %+v", listing)
	}
	if listing.Versions[0].Digest != v1.Digest || listing.Versions[1].Digest != v2.Digest {
		t.Errorf("version digests do not match the jobs: %+v", listing.Versions)
	}
	if listing.Versions[1].Cycles <= listing.Versions[0].Cycles {
		t.Errorf("div version not slower: %d vs %d cycles",
			listing.Versions[1].Cycles, listing.Versions[0].Cycles)
	}

	var rep struct {
		Module      string  `json:"module"`
		Regressed   bool    `json:"regressed"`
		Regressions int     `json:"regressions"`
		RelCPIDelta float64 `json:"rel_cpi_delta"`
	}
	if code := getJSON(t, ts.URL+"/v1/lineages/bench/diff", &rep); code != http.StatusOK {
		t.Fatalf("lineage diff: status %d", code)
	}
	if !rep.Regressed || rep.Regressions == 0 {
		t.Fatalf("planted regression not flagged: %+v", rep)
	}
	if rep.Module != "job" || rep.RelCPIDelta <= 0 {
		t.Errorf("diff report: %+v", rep)
	}
	// Explicit endpoints: reversed direction reports an improvement, and
	// an absurd threshold suppresses the verdict.
	revURL := fmt.Sprintf("%s/v1/lineages/bench/diff?from=%s&to=%s", ts.URL, v2.Digest, v1.Digest)
	if code := getJSON(t, revURL, &rep); code != http.StatusOK {
		t.Fatalf("reversed diff: status %d", code)
	}
	if rep.Regressed {
		t.Error("reversed (improving) diff flagged as regression")
	}
	if code := getJSON(t, ts.URL+"/v1/lineages/bench/diff?threshold=1e9", &rep); code != http.StatusOK {
		t.Fatalf("thresholded diff: status %d", code)
	}
	if rep.Regressed {
		t.Error("regression survived a 1e9 relative threshold")
	}

	// Detection side effects: stats, the metric, and a flight mark.
	var stats serve.Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.ProfileRegressions != 1 || stats.LineageKeys != 1 {
		t.Errorf("stats: regressions=%d lineages=%d, want 1 and 1",
			stats.ProfileRegressions, stats.LineageKeys)
	}
	if got := srv.Registry().Counter(obs.MProfileRegressions).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MProfileRegressions, got)
	}
	marked := false
	for _, rec := range fr.Snapshot() {
		if rec.Kind == "mark" && rec.Name == "profile_regression" {
			marked = true
		}
	}
	if !marked {
		t.Error("regression left no flight-recorder mark")
	}

	// Resubmitting the same version is a cache hit with an identical
	// digest: the history must not grow and the counter must not move.
	again := submitLineage(progSource(60))
	if !again.Cached {
		t.Fatal("identical resubmission missed the cache")
	}
	if code := getJSON(t, ts.URL+"/v1/lineages/bench", &listing); code != http.StatusOK {
		t.Fatalf("lineage listing: status %d", code)
	}
	if len(listing.Versions) != 2 {
		t.Errorf("duplicate submission grew the history to %d", len(listing.Versions))
	}
	if got := srv.Registry().Counter(obs.MProfileRegressions).Value(); got != 1 {
		t.Errorf("duplicate submission moved the regression counter to %d", got)
	}

	// Error surface: unknown lineages 404, single-version diffs 409.
	if code := getJSON(t, ts.URL+"/v1/lineages/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown lineage: status %d, want 404", code)
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"source":  fastSource(60),
		"lineage": "solo",
		"options": map[string]any{"sample_period": 300},
	})
	pollDone(t, ts.URL, decodeStatus(t, resp))
	r, err := http.Get(ts.URL + "/v1/lineages/solo/diff")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Errorf("single-version diff: status %d, want 409", r.StatusCode)
	}
	if !strings.Contains(string(body), "needs two") {
		t.Errorf("single-version diff error unhelpful: %s", body)
	}
}
