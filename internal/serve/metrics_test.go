package serve_test

// Each server counts into its own registry: /v1/stats and /metrics read
// one count per event, servers sharing a process never see each other's
// counts, and journal replay restores the counters both surfaces read.

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"optiwise"
	"optiwise/internal/obs"
	"optiwise/internal/serve"
)

// scrapeMetrics GETs a Prometheus text exposition and returns each
// unlabeled sample's value by name.
func scrapeMetrics(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", sc.Text(), err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// submitDone submits src and waits for it to end in state.
func submitDone(t *testing.T, srv *serve.Server, src string, opts optiwise.Options, state serve.State) {
	t.Helper()
	j, err := srv.Submit(mustProgram(t, src), opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 30*time.Second)
	if _, got, msg := j.Result(); got != state {
		t.Fatalf("job ended %s (%s), want %s", got, msg, state)
	}
}

// TestServersCountIntoTheirOwnRegistries: two servers in one process,
// with a process registry installed as the serve command installs one,
// each take a different load. Each server's Stats and /metrics show
// only its own submissions, cache hits and worker panics, and both
// expositions carry the pipeline's library families from the process
// registry.
func TestServersCountIntoTheirOwnRegistries(t *testing.T) {
	withRegistry(t)
	a := serve.New(serve.Config{Workers: 1, RetryBudget: -1})
	b := serve.New(serve.Config{Workers: 1, RetryBudget: -1})
	for _, srv := range []*serve.Server{a, b} {
		srv.Start()
		defer shutdownServer(t, srv)
	}
	installPlan(t, "serve.worker:panic:nth=1")
	submitDone(t, a, progSource(51), optiwise.Options{}, serve.StateFailed)
	submitDone(t, a, progSource(52), optiwise.Options{}, serve.StateDone)
	submitDone(t, a, progSource(52), optiwise.Options{}, serve.StateDone)
	submitDone(t, b, progSource(53), optiwise.Options{}, serve.StateDone)

	for _, c := range []struct {
		name                   string
		srv                    *serve.Server
		submitted, hits, panic int64
	}{
		{"a", a, 3, 1, 1},
		{"b", b, 1, 0, 0},
	} {
		if got := c.srv.Stats().WorkerPanics; got != uint64(c.panic) {
			t.Errorf("server %s: Stats().WorkerPanics = %d, want %d", c.name, got, c.panic)
		}
		ts := httptest.NewServer(c.srv.Handler())
		m := scrapeMetrics(t, ts.URL+"/metrics")
		ts.Close()
		for family, want := range map[string]int64{
			obs.MServeJobsSubmitted: c.submitted,
			obs.MServeCacheHits:     c.hits,
			obs.MServeWorkerPanics:  c.panic,
		} {
			if got, ok := m[family]; !ok || got != want {
				t.Errorf("server %s: /metrics %s = %d (present %v), want %d", c.name, family, got, ok, want)
			}
		}
		if m[obs.MSimCycles] == 0 {
			t.Errorf("server %s: /metrics lacks the library family %s", c.name, obs.MSimCycles)
		}
	}
}

// TestStatsFieldsReadTheirFamilies: after a restart that replays a
// regression, a job that panics and then fails transiently before its
// second retry succeeds, and a windowed job, every counter field of
// /v1/stats equals its family in /metrics.
func TestStatsFieldsReadTheirFamilies(t *testing.T) {
	dir := t.TempDir()
	opts := optiwise.Options{SamplePeriod: 300}
	srv1 := newDurable(t, dir, serve.Config{Workers: 2})
	srv1.Start()
	submitWait(t, srv1, fastSource(60), opts, serve.Submission{Lineage: "bench"})
	submitWait(t, srv1, progSource(60), opts, serve.Submission{Lineage: "bench"})
	shutdownServer(t, srv1)

	srv := newDurable(t, dir, serve.Config{Workers: 1, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 4 * time.Millisecond})
	srv.Start()
	defer shutdownServer(t, srv)
	installPlan(t, "serve.worker:panic:nth=1;serve.worker:error:nth=2")
	submitDone(t, srv, progSource(41), opts, serve.StateDone)
	submitDone(t, srv, progSource(42), optiwise.Options{SamplePeriod: 300, Window: 512}, serve.StateDone)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var st serve.Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", code)
	}
	m := scrapeMetrics(t, ts.URL+"/metrics")
	for _, f := range []struct {
		field, family string
		stat          int64
		moved         bool // the workload above moves it
	}{
		{"inflight", obs.MServeInflightJobs, st.Inflight, false},
		{"worker_panics", obs.MServeWorkerPanics, int64(st.WorkerPanics), true},
		{"retries", obs.MServeJobRetries, int64(st.Retries), true},
		{"degraded_results", obs.MServeJobsDegraded, int64(st.DegradedResults), false},
		{"profile_regressions", obs.MProfileRegressions, int64(st.ProfileRegressions), true},
		{"jobs_peer_fetched", obs.MServeJobsPeerFetched, int64(st.JobsPeerFetched), false},
		{"journal_replays", obs.MDurableJournalReplays, int64(st.JournalReplays), true},
		{"records_truncated", obs.MDurableRecordsTruncated, int64(st.RecordsTruncated), false},
		{"windows_checkpointed", obs.MServeWindowsAbsorbed, int64(st.WindowsCheckpointed), true},
	} {
		got, ok := m[f.family]
		if !ok || got != f.stat {
			t.Errorf("/v1/stats %s = %d, /metrics %s = %d (present %v)", f.field, f.stat, f.family, got, ok)
		}
		if f.moved && f.stat == 0 {
			t.Errorf("/v1/stats %s = 0; the workload should have moved it", f.field)
		}
	}
}

// TestReplayedCountersAgreeWithMetrics: after a restart, the regression
// journal replay restores and the replayed segment count read the same
// in Stats and in /metrics.
func TestReplayedCountersAgreeWithMetrics(t *testing.T) {
	dir := t.TempDir()
	opts := optiwise.Options{SamplePeriod: 300}
	srv1 := newDurable(t, dir, serve.Config{Workers: 2})
	srv1.Start()
	submitWait(t, srv1, fastSource(60), opts, serve.Submission{Lineage: "bench"})
	submitWait(t, srv1, progSource(60), opts, serve.Submission{Lineage: "bench"})
	// Crash: srv1 is abandoned without Shutdown.

	srv2 := newDurable(t, dir, serve.Config{Workers: 1})
	defer srv2.Shutdown(context.Background()) //nolint:errcheck
	st := srv2.Stats()
	if st.ProfileRegressions != 1 || st.JournalReplays == 0 {
		t.Fatalf("replayed stats: profile_regressions %d (want 1), journal_replays %d (want > 0)",
			st.ProfileRegressions, st.JournalReplays)
	}
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	m := scrapeMetrics(t, ts.URL+"/metrics")
	if got := m[obs.MProfileRegressions]; got != 1 {
		t.Errorf("/metrics %s = %d after replay, want 1", obs.MProfileRegressions, got)
	}
	if got := m[obs.MDurableJournalReplays]; got != int64(st.JournalReplays) {
		t.Errorf("/metrics %s = %d, /v1/stats journal_replays = %d", obs.MDurableJournalReplays, got, st.JournalReplays)
	}
}

// TestFlightDeltasPerServer: two servers share the process flight
// recorder, and each dump's metric deltas run from that server's own
// previous dump, never from the other server's counts.
func TestFlightDeltasPerServer(t *testing.T) {
	withFlightRecorder(t)
	a := serve.New(serve.Config{Workers: 1})
	b := serve.New(serve.Config{Workers: 1})
	for _, srv := range []*serve.Server{a, b} {
		srv.Start()
		defer shutdownServer(t, srv)
	}
	for trips := 61; trips < 64; trips++ {
		submitDone(t, a, progSource(trips), optiwise.Options{}, serve.StateDone)
	}
	submitDone(t, b, progSource(64), optiwise.Options{}, serve.StateDone)
	a.DumpFlight("manual")
	d, ok := b.DumpFlight("manual")
	if !ok {
		t.Fatal("no flight recorder installed")
	}
	var got map[string]string
	for _, rec := range d.Records {
		if rec.Kind == "metric" && rec.Name == obs.MServeJobsSubmitted {
			got = map[string]string{}
			for _, at := range rec.Attrs {
				got[at.Key] = fmt.Sprint(at.Value)
			}
		}
	}
	if got["delta"] != "1" || got["total"] != "1" {
		t.Errorf("server b's dump: %s delta %q total %q, want 1 and 1", obs.MServeJobsSubmitted, got["delta"], got["total"])
	}
}
