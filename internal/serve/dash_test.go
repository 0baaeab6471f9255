package serve_test

// Dashboard-surface tests (DESIGN.md §14): the embedded /ui/ assets,
// the job-list and drill-down JSON APIs, build info and uptime in
// /v1/stats, the flight-recorder listing, and the SSE push channels.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"optiwise/internal/serve"
)

func dashServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 2, UI: true, FlightRecorderSize: 64})
	srv.Start()
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getBody(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp.StatusCode, buf.String(), resp.Header
}

// TestDashboardAssets: /ui/ serves the embedded SPA and its assets;
// /ui redirects; a server built without UI serves neither.
func TestDashboardAssets(t *testing.T) {
	_, ts := dashServer(t)
	status, body, hdr := getBody(t, ts.URL+"/ui/")
	if status != http.StatusOK {
		t.Fatalf("/ui/: status %d", status)
	}
	if !strings.Contains(body, "<title>OptiWISE dashboard</title>") || !strings.Contains(body, "app.js") {
		t.Errorf("/ui/ did not serve the dashboard index:\n%.500s", body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("/ui/ Content-Type = %q", ct)
	}
	for _, asset := range []string{"app.js", "style.css"} {
		if status, body, _ := getBody(t, ts.URL+"/ui/"+asset); status != http.StatusOK || body == "" {
			t.Errorf("/ui/%s: status %d, %d bytes", asset, status, len(body))
		}
	}
	// Bare /ui redirects into the app.
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(ts.URL + "/ui")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMovedPermanently || resp.Header.Get("Location") != "/ui/" {
		t.Errorf("/ui: status %d location %q", resp.StatusCode, resp.Header.Get("Location"))
	}

	// UI off: the route does not exist.
	plain := serve.New(serve.Config{Workers: 1})
	plain.Start()
	defer plain.Shutdown(context.Background()) //nolint:errcheck
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	if status, _, _ := getBody(t, tsPlain.URL+"/ui/"); status != http.StatusNotFound {
		t.Errorf("UI-disabled server answered /ui/ with %d", status)
	}
}

// TestStatsBuildInfo: /v1/stats carries the build info and a
// monotonically positive uptime.
func TestStatsBuildInfo(t *testing.T) {
	_, ts := dashServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Build struct {
			Version   string `json:"version"`
			GoVersion string `json:"go_version"`
			Commit    string `json:"commit"`
		} `json:"build"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := jsonDecode(resp.Body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Build.Version == "" || stats.Build.GoVersion == "" {
		t.Errorf("stats build info empty: %+v", stats.Build)
	}
	if stats.UptimeSeconds < 0 {
		t.Errorf("negative uptime %v", stats.UptimeSeconds)
	}
}

// TestJobListAndDrilldown: the dashboard's job list returns submitted
// jobs newest-first, and the drill-down projection nests function →
// loop → block → instruction.
func TestJobListAndDrilldown(t *testing.T) {
	_, ts := dashServer(t)
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"source": progSource(30), "wait": true,
	}))
	if st.State != serve.StateDone {
		t.Fatalf("job state %q: %s", st.State, st.Error)
	}

	var list struct {
		Jobs []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"jobs"`
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonDecode(resp.Body, &list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID || list.Jobs[0].State != "done" {
		t.Fatalf("job list wrong: %+v", list.Jobs)
	}
	if status, _, _ := getBody(t, ts.URL+"/api/v1/jobs?limit=bogus"); status != http.StatusBadRequest {
		t.Errorf("bad limit accepted: %d", status)
	}

	var dd struct {
		TotalCycles uint64  `json:"total_cycles"`
		CPI         float64 `json:"cpi"`
		Functions   []struct {
			Name  string `json:"name"`
			Loops []struct {
				Blocks []struct {
					Instructions []struct {
						Disasm string  `json:"disasm"`
						CPI    float64 `json:"cpi"`
					} `json:"instructions"`
				} `json:"blocks"`
			} `json:"loops"`
			Blocks []struct {
				Instructions []struct {
					Disasm string `json:"disasm"`
				} `json:"instructions"`
			} `json:"blocks"`
		} `json:"functions"`
	}
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/drilldown")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drilldown: status %d", resp.StatusCode)
	}
	if err := jsonDecode(resp.Body, &dd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dd.TotalCycles == 0 || dd.CPI <= 0 {
		t.Errorf("drilldown totals empty: cycles=%d cpi=%v", dd.TotalCycles, dd.CPI)
	}
	insts := 0
	for _, f := range dd.Functions {
		for _, l := range f.Loops {
			for _, b := range l.Blocks {
				insts += len(b.Instructions)
			}
		}
		for _, b := range f.Blocks {
			insts += len(b.Instructions)
		}
	}
	if insts == 0 {
		t.Errorf("drilldown reached no instructions: %+v", dd.Functions)
	}
	if status, _, _ := getBody(t, ts.URL+"/api/v1/jobs/nosuch/drilldown"); status != http.StatusNotFound {
		t.Errorf("unknown job drilldown: status %d", status)
	}
}

// TestFlightRecorderEndpoint: retained dumps are listed with stable IDs
// and each dump is fetchable by ID.
func TestFlightRecorderEndpoint(t *testing.T) {
	srv, ts := dashServer(t)
	if _, ok := srv.DumpFlight("test-trigger"); !ok {
		t.Fatal("DumpFlight failed")
	}
	var list struct {
		Dumps []struct {
			ID      int    `json:"id"`
			Reason  string `json:"reason"`
			Records int    `json:"records"`
		} `json:"dumps"`
	}
	resp, err := http.Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonDecode(resp.Body, &list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Dumps) != 1 || list.Dumps[0].Reason != "test-trigger" {
		t.Fatalf("dump list wrong: %+v", list.Dumps)
	}
	status, body, _ := getBody(t, ts.URL+"/debug/flightrecorder/1")
	if status != http.StatusOK || !strings.Contains(body, "test-trigger") {
		t.Errorf("dump by ID: status %d body %.200s", status, body)
	}
	if status, _, _ := getBody(t, ts.URL+"/debug/flightrecorder/99"); status != http.StatusNotFound {
		t.Errorf("missing dump: status %d", status)
	}
}

// TestJobEventsSSE: the per-job SSE channel emits a terminal done event
// for a completed job and closes.
func TestJobEventsSSE(t *testing.T) {
	_, ts := dashServer(t)
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"source": progSource(10), "wait": true,
	}))
	if st.State != serve.StateDone {
		t.Fatalf("job state %q", st.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/api/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: done") {
			sawDone = true
		}
		if sawDone && sc.Text() == "" {
			break // done event fully delivered
		}
	}
	if !sawDone {
		t.Error("SSE stream never delivered the done event")
	}
}

// jsonDecode decodes JSON from r into v.
func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}
