package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"optiwise"
	"optiwise/internal/obs"
	"optiwise/internal/report"
	"optiwise/internal/serve"
)

// progSource builds a small OWISA program whose hot-loop trip count is
// trips; distinct trip counts yield distinct content digests.
func progSource(trips int) string {
	return fmt.Sprintf(`
.module job
.text
.func main
main:
    addi sp, sp, -16
    st ra, 8(sp)
    li s2, %d
outer:
    call kernel
    addi s2, s2, -1
    bnez s2, outer
    ld ra, 8(sp)
    addi sp, sp, 16
    li a0, 0
    li a7, 93
    syscall
.endfunc
.func kernel
kernel:
    li t0, 40
kl:
    div t1, t0, t0
    addi t0, t0, -1
    bnez t0, kl
    ret
.endfunc
`, trips)
}

// spinSource never terminates; only MaxCycles or cancellation stops it.
const spinSource = `
.module spin
.text
.func main
main:
spin:
    j spin
.endfunc
`

func mustProgram(t *testing.T, src string) *optiwise.Program {
	t.Helper()
	prog, err := optiwise.Assemble("job", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// withRegistry installs a fresh process registry, as the serve command
// does, for a test that asserts the library families (sim, sampler,
// dbi) a server's /metrics takes from it, and restores the old one
// afterwards. Tests using it must not run in parallel.
func withRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	old := obs.SetRegistry(reg)
	t.Cleanup(func() { obs.SetRegistry(old) })
	return reg
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) serve.JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// TestServiceEndToEnd drives the whole HTTP surface: submit the
// quickstart-style program, poll it to completion, and fetch every
// report kind.
func TestServiceEndToEnd(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"source":  progSource(50),
		"machine": "xeon",
		"options": map[string]any{"sample_period": 300},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("submit: Location = %q", loc)
	}
	st := decodeStatus(t, resp)
	if st.ID == "" || st.Digest == "" || st.Module != "job" {
		t.Fatalf("submit: status = %+v", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(20 * time.Millisecond)
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
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
	if st.Finished == nil || st.Started == nil {
		t.Fatalf("terminal status missing timestamps: %+v", st)
	}

	wantBody := map[string]string{
		"functions": "FUNCTION",
		"loops":     "LOOP",
		"annotated": "kernel",
		"csv":       "offset",
		"":          "FUNCTION", // default kind=full includes the function table
	}
	for kind, needle := range wantBody {
		url := ts.URL + "/v1/jobs/" + st.ID + "/report"
		if kind != "" {
			url += "?kind=" + kind
		}
		r, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("report %q: status %d: %s", kind, r.StatusCode, body)
		}
		if !strings.Contains(string(body), needle) {
			t.Errorf("report %q does not mention %q:\n%s", kind, needle, body)
		}
	}

	// Error surface.
	for _, tc := range []struct {
		name string
		url  string
		want int
	}{
		{"unknown job", "/v1/jobs/nope", http.StatusNotFound},
		{"unknown report job", "/v1/jobs/nope/report", http.StatusNotFound},
		{"unknown kind", "/v1/jobs/" + st.ID + "/report?kind=interpretive-dance", http.StatusBadRequest},
	} {
		r, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, r.StatusCode, tc.want)
		}
	}
	for _, tc := range []struct {
		name string
		body map[string]any
		want int
	}{
		{"no program", map[string]any{}, http.StatusBadRequest},
		{"both forms", map[string]any{"source": "x", "binary": []byte{1}}, http.StatusBadRequest},
		{"bad assembly", map[string]any{"source": "not assembly"}, http.StatusBadRequest},
		{"unknown machine", map[string]any{"source": progSource(1), "machine": "cray-1"}, http.StatusBadRequest},
		{"negative period", map[string]any{"source": progSource(1),
			"options": map[string]any{"sample_period": -5}}, http.StatusBadRequest},
		{"huge interrupt cost", map[string]any{"source": progSource(1),
			"options": map[string]any{"sample_period": 100, "interrupt_cost": 100}}, http.StatusBadRequest},
		{"negative timeout", map[string]any{"source": progSource(1), "timeout_ms": -1}, http.StatusBadRequest},
		{"bad attribution", map[string]any{"source": progSource(1),
			"options": map[string]any{"attribution": "vibes"}}, http.StatusBadRequest},
	} {
		r := postJSON(t, ts.URL+"/v1/jobs", tc.body)
		msg, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, r.StatusCode, tc.want, msg)
		}
	}

	// Operational endpoints.
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats serve.Stats
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if stats.Workers != 2 || stats.Jobs == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestSubmitWaitAndCacheHit exercises the blocking submit path and
// checks that resubmitting identical content is served from the cache.
func TestSubmitWaitAndCacheHit(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := map[string]any{"source": progSource(30), "wait": true}
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit: status %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.State != serve.StateDone {
		t.Fatalf("wait submit ended %s: %s", st.State, st.Error)
	}
	if st.Cached {
		t.Fatal("first submission claims to be cached")
	}

	resp = postJSON(t, ts.URL+"/v1/jobs", req)
	st2 := decodeStatus(t, resp)
	if st2.State != serve.StateDone || !st2.Cached {
		t.Fatalf("resubmission should be a cache hit, got %+v", st2)
	}
	if st2.Digest != st.Digest {
		t.Fatalf("identical submissions got digests %s vs %s", st.Digest, st2.Digest)
	}
}

// TestConcurrentSubmissionsShareExecutions is the PR's headline
// acceptance scenario: 32 concurrent submissions of 8 distinct
// programs against a 4-worker pool must all complete while executing
// each program only once — at least 24 submissions served by the
// cache or by coalescing onto an in-flight run.
func TestConcurrentSubmissionsShareExecutions(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 4})
	srv.Start()
	defer srv.Shutdown(context.Background())

	const distinct, total = 8, 32
	progs := make([]*optiwise.Program, distinct)
	for i := range progs {
		progs[i] = mustProgram(t, progSource(10+i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := srv.Submit(progs[i%distinct], optiwise.Options{SamplePeriod: 200}, 0)
			if err != nil {
				errs <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
			select {
			case <-job.Done():
			case <-time.After(60 * time.Second):
				errs <- fmt.Errorf("job %d timed out", i)
				return
			}
			if _, state, msg := job.Result(); state != serve.StateDone {
				errs <- fmt.Errorf("job %d ended %s: %s", i, state, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	hits := srv.Registry().Counter(obs.MServeCacheHits).Value()
	misses := srv.Registry().Counter(obs.MServeCacheMisses).Value()
	if hits < total-distinct {
		t.Errorf("cache hits = %d, want >= %d (misses = %d)", hits, total-distinct, misses)
	}
	if misses != distinct {
		t.Errorf("cache misses = %d, want exactly %d distinct executions", misses, distinct)
	}
	if got := srv.Registry().Counter(obs.MServeJobsCompleted).Value(); got != total {
		t.Errorf("completed jobs = %d, want %d", got, total)
	}
}

// TestDeadlineFreesWorker submits a non-terminating program with a
// tiny deadline to a single-worker pool. The job must fail with a
// deadline error, and — critically — the worker must be freed by the
// cooperative cancellation, proven by a second job completing.
func TestDeadlineFreesWorker(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background())

	spin := mustProgram(t, spinSource)
	job, err := srv.Submit(spin, optiwise.Options{}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("deadline did not fire")
	}
	if _, state, msg := job.Result(); state != serve.StateFailed ||
		!strings.Contains(msg, "deadline exceeded") {
		t.Fatalf("spin job ended %s: %q, want failed deadline error", state, msg)
	}

	quick, err := srv.Submit(mustProgram(t, progSource(5)), optiwise.Options{SamplePeriod: 200}, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-quick.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("worker still wedged by the canceled spin job")
	}
	if _, state, msg := quick.Result(); state != serve.StateDone {
		t.Fatalf("follow-up job ended %s: %s", state, msg)
	}
}

// TestCancelFreesWorker cancels a running job through the HTTP API and
// checks that the execution stops and the worker takes new jobs.
func TestCancelFreesWorker(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": spinSource})
	st := decodeStatus(t, resp)

	reqCancel, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(reqCancel)
	if err != nil {
		t.Fatal(err)
	}
	st = decodeStatus(t, r)
	if st.State != serve.StateCanceled {
		t.Fatalf("cancel left job %s", st.State)
	}

	quick, err := srv.Submit(mustProgram(t, progSource(5)), optiwise.Options{SamplePeriod: 200}, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-quick.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("worker still wedged by the canceled job")
	}
}

// TestBackpressureAndDrain fills the bounded queue of a not-yet-started
// server (deterministic: no worker consumes), expects 429 with a
// Retry-After hint, then starts the pool and shuts down gracefully:
// every accepted job completes, later submissions get 503.
func TestBackpressureAndDrain(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": progSource(6)})
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", first.StatusCode)
	}
	stFirst := decodeStatus(t, first)

	// Identical content coalesces instead of consuming a queue slot.
	co := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": progSource(6)})
	stCo := decodeStatus(t, co)
	if co.StatusCode != http.StatusAccepted || !stCo.Coalesced {
		t.Fatalf("identical submit: status %d coalesced=%t", co.StatusCode, stCo.Coalesced)
	}

	// Distinct content needs a slot; the queue (depth 1) is full.
	full := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": progSource(7)})
	body, _ := io.ReadAll(full.Body)
	full.Body.Close()
	if full.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d (%s)", full.StatusCode, body)
	}
	if full.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	for _, id := range []string{stFirst.ID, stCo.ID} {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, r)
		if st.State != serve.StateDone {
			t.Errorf("job %s ended %s after drain: %s", id, st.State, st.Error)
		}
	}
	after := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"source": progSource(8)})
	after.Body.Close()
	if after.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: status %d, want 503", after.StatusCode)
	}
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503", r.StatusCode)
	}
}

// TestHammer runs the pool, cache, coalescer, and status endpoints
// under heavy goroutine churn; its real assertions are the race
// detector's.
func TestHammer(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 4, QueueDepth: 256})
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const goroutines = 32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog := mustProgram(t, progSource(5+i%8))
			job, err := srv.Submit(prog, optiwise.Options{SamplePeriod: 150}, 30*time.Second)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			// Poll over HTTP while the job runs (exercises Status under
			// concurrent finish), occasionally hitting stats.
			for polls := 0; ; polls++ {
				r, err := http.Get(ts.URL + "/v1/jobs/" + job.ID)
				if err != nil {
					t.Errorf("poll %d: %v", i, err)
					return
				}
				st := decodeStatus(t, r)
				if st.State.Terminal() {
					if st.State != serve.StateDone {
						t.Errorf("job %d ended %s: %s", i, st.State, st.Error)
					}
					return
				}
				if polls%4 == 0 {
					s, err := http.Get(ts.URL + "/v1/stats")
					if err == nil {
						s.Body.Close()
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
}

// wrapperSource's main only calls work: the two tie on total cycles,
// so main leads the function table by name while every sampled self
// cycle is work's.
const wrapperSource = `
.module wrapper
.text
.func main
main:
    call work
    li a0, 0
    li a7, 93
    syscall
.endfunc
.func work
work:
    li t0, 3000
kl:
    div t1, t0, t0
    addi t0, t0, -1
    bnez t0, kl
    ret
.endfunc
`

// TestAnnotatedDefaultsToHottestFunc: kind=annotated without func
// annotates the function the full report annotates (the first with
// self cycles), not merely the first listed.
func TestAnnotatedDefaultsToHottestFunc(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"source": wrapperSource, "wait": true,
		"options": map[string]any{"sample_period": 300},
	}))
	if st.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	job, ok := srv.Job(st.ID)
	if !ok {
		t.Fatal("job not retained")
	}
	res, _, _ := job.Result()
	if len(res.Funcs) < 2 || res.Funcs[0].SelfCycles != 0 {
		t.Fatalf("fixture: want a first function without self cycles, got %+v", res.Funcs)
	}
	hottest := report.HottestFunc(res)
	if hottest == res.Funcs[0].Name {
		t.Fatalf("fixture: hottest function %q is also the first listed", hottest)
	}
	var want bytes.Buffer
	if err := report.WriteAnnotatedFunc(&want, res, hottest); err != nil {
		t.Fatal(err)
	}
	status, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/report?kind=annotated")
	if status != http.StatusOK || body != want.String() {
		t.Errorf("annotated default: status %d, want %s's view:\n%s\ngot:\n%s",
			status, hottest, want.String(), body)
	}
}
