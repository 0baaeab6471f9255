package serve_test

// Targeted robustness regressions for the serve stack: worker panic
// isolation, transient-failure retries, Retry-After hints, and the two
// cache-admission guards (degraded and canceled results must never be
// cached). The chaos suite (chaos_test.go) covers the same properties
// under randomized schedules; these tests pin the exact mechanics.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"optiwise"
	"optiwise/internal/fault"
	"optiwise/internal/obs"
	"optiwise/internal/serve"
)

// TestWorkerPanicIsolation injects a panic at the worker boundary and
// checks that it is absorbed into a single job failure: the pool keeps
// serving, and the panic is visible in Stats, /v1/stats, and the
// metrics registry.
func TestWorkerPanicIsolation(t *testing.T) {
	installPlan(t, "serve.worker:panic:nth=1,msg=injected worker panic")

	srv := serve.New(serve.Config{Workers: 1, RetryBudget: -1}) // retries off
	srv.Start()
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	victim, err := srv.Submit(mustProgram(t, progSource(20)), optiwise.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, victim, 30*time.Second)
	_, state, errMsg := victim.Result()
	if state != serve.StateFailed {
		t.Fatalf("panicking job state = %s, want failed", state)
	}
	if !strings.Contains(errMsg, "panic") || !strings.Contains(errMsg, "injected worker panic") {
		t.Errorf("failure message %q does not describe the panic", errMsg)
	}

	// The pool survived: the next job completes normally.
	healthy, err := srv.Submit(mustProgram(t, progSource(25)), optiwise.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, healthy, 30*time.Second)
	if _, state, errMsg := healthy.Result(); state != serve.StateDone {
		t.Fatalf("healthy job after panic: state %s (%s)", state, errMsg)
	}

	if st := srv.Stats(); st.WorkerPanics != 1 {
		t.Errorf("Stats().WorkerPanics = %d, want 1", st.WorkerPanics)
	}
	if got := srv.Registry().Counter(obs.MServeWorkerPanics).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MServeWorkerPanics, got)
	}

	// The HTTP surface reports it too.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		WorkerPanics uint64 `json:"worker_panics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.WorkerPanics != 1 {
		t.Errorf("/v1/stats worker_panics = %d, want 1", stats.WorkerPanics)
	}
}

// TestTransientRetrySuccess: a transient worker fault on the first
// attempt is retried within the budget and the job still succeeds,
// with the retry visible on the job status and the server counters.
func TestTransientRetrySuccess(t *testing.T) {
	installPlan(t, "serve.worker:error:nth=1")

	srv := serve.New(serve.Config{
		Workers:        1,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  4 * time.Millisecond,
	}) // RetryBudget defaults to 2
	srv.Start()
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	j, err := srv.Submit(mustProgram(t, progSource(20)), optiwise.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 30*time.Second)
	res, state, errMsg := j.Result()
	if state != serve.StateDone {
		t.Fatalf("state %s (%s), want done after retry", state, errMsg)
	}
	if res == nil || res.Degraded {
		t.Fatal("retried job should yield a full result")
	}
	if got := j.Status().Retries; got != 1 {
		t.Errorf("JobStatus.Retries = %d, want 1", got)
	}
	st := srv.Stats()
	if st.Retries != 1 {
		t.Errorf("Stats().Retries = %d, want 1", st.Retries)
	}
	// The eventual success is cache-eligible.
	if st.CacheEntries != 1 {
		t.Errorf("CacheEntries = %d, want 1", st.CacheEntries)
	}
	if got := srv.Registry().Counter(obs.MServeJobRetries).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MServeJobRetries, got)
	}
}

// TestRetryAfterCeil: Retry-After rounds the configured hint UP to
// whole seconds — a 1.5s hint must advertise 2, not 1.
func TestRetryAfterCeil(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1, RetryAfter: 1500 * time.Millisecond})
	srv.Start()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": progSource(5)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while draining", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\" (1.5s rounded up)", got)
	}

	// The draining health probe is a busy response too: load balancers
	// polling /healthz must get the same back-off hint.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d, want 503 while draining", hr.StatusCode)
	}
	if got := hr.Header.Get("Retry-After"); got != "2" {
		t.Errorf("healthz Retry-After = %q, want \"2\"", got)
	}
}

// TestRetryAfterQueuePressure: with the queue saturated, the hint
// scales up (4x at a full queue) so clients back off long enough for
// the queue to actually drain.
func TestRetryAfterQueuePressure(t *testing.T) {
	// Not started: submissions queue but never run, so the queue stays full.
	srv := serve.New(serve.Config{
		Workers:    1,
		QueueDepth: 2,
		RetryAfter: 1500 * time.Millisecond,
	})
	for i := 0; i < 2; i++ {
		if _, err := srv.Submit(mustProgram(t, progSource(10+i)), optiwise.Options{}, 0); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": progSource(99)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 with a full queue", resp.StatusCode)
	}
	// depth == capacity: 1.5s + 3*1.5s = 6s.
	if got := resp.Header.Get("Retry-After"); got != "6" {
		t.Errorf("Retry-After = %q, want \"6\" (1.5s scaled 4x by full queue)", got)
	}
}

// TestDegradedJobNotCached: a degraded (single-pass) success is served
// to the opted-in client but never admitted to the result cache, so a
// later fault-free run gets full fidelity instead of a stale partial.
func TestDegradedJobNotCached(t *testing.T) {
	installPlan(t, "dbi.run:error:msg=instrumentation down")

	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	prog := mustProgram(t, progSource(30))
	opts := optiwise.Options{AllowDegraded: true}
	j, err := srv.Submit(prog, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 30*time.Second)
	res, state, errMsg := j.Result()
	if state != serve.StateDone {
		t.Fatalf("state %s (%s), want done (degraded)", state, errMsg)
	}
	if res == nil || !res.Degraded || res.FailedPass != "instrumentation" {
		t.Fatalf("result not degraded as expected: %+v", res)
	}
	st := j.Status()
	if !st.Degraded || st.FailedPass != "instrumentation" {
		t.Errorf("JobStatus degraded=%v failed_pass=%q", st.Degraded, st.FailedPass)
	}
	stats := srv.Stats()
	if stats.CacheEntries != 0 {
		t.Fatalf("degraded result cached: CacheEntries = %d", stats.CacheEntries)
	}
	if stats.DegradedResults != 1 {
		t.Errorf("Stats().DegradedResults = %d, want 1", stats.DegradedResults)
	}

	// Faults lifted: the identical submission must re-execute (no cache
	// hit) and come back full-fidelity.
	fault.Set(nil)
	j2, err := srv.Submit(mustProgram(t, progSource(30)), opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2, 30*time.Second)
	res2, state2, errMsg2 := j2.Result()
	if state2 != serve.StateDone {
		t.Fatalf("fault-free rerun: state %s (%s)", state2, errMsg2)
	}
	if j2.Status().Cached {
		t.Fatal("fault-free rerun was served from cache: degraded result leaked in")
	}
	if res2 == nil || res2.Degraded {
		t.Fatal("fault-free rerun still degraded")
	}
}

// TestCanceledJobNotCached: canceling a running job must not leave its
// (aborted) result in the cache.
func TestCanceledJobNotCached(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	j, err := srv.Submit(mustProgram(t, spinSource), optiwise.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.Status().State != serve.StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", j.Status().State)
		}
		time.Sleep(time.Millisecond)
	}
	if canceled, found := srv.Cancel(j.ID); !canceled || !found {
		t.Fatalf("Cancel = (%v, %v), want (true, true)", canceled, found)
	}
	waitJob(t, j, 30*time.Second)
	if state := j.Status().State; state != serve.StateCanceled {
		t.Fatalf("state %s, want canceled", state)
	}
	if n := srv.Stats().CacheEntries; n != 0 {
		t.Fatalf("canceled job left %d cache entries", n)
	}

	// The freed worker serves the next job normally.
	q, err := srv.Submit(mustProgram(t, progSource(5)), optiwise.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, q, 30*time.Second)
	if _, state, errMsg := q.Result(); state != serve.StateDone {
		t.Fatalf("post-cancel job: state %s (%s)", state, errMsg)
	}
}
