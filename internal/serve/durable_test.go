package serve_test

// Crash-recovery regressions for the durable serve stack: completed
// results, lineage histories, and the regression counter must survive a
// restart; journaled-but-unfinished jobs must re-enqueue; interrupted
// streamed runs must re-run from the start to a byte-identical final
// report; and a broken journal or a corrupt result segment must degrade
// to recomputation, never to a panic or a poisoned cache. "Crash" here
// is an abandoned server: per-record fsync makes every acknowledged
// state durable, so dropping the old Server and opening a new one on
// the same data dir is exactly the kill -9 path.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"optiwise"
	"optiwise/internal/fault"
	"optiwise/internal/serve"
)

// newDurable builds an unstarted durable server on dir.
func newDurable(t *testing.T, dir string, cfg serve.Config) *serve.Server {
	t.Helper()
	cfg.DataDir = dir
	srv, err := serve.NewDurable(cfg)
	if err != nil {
		t.Fatalf("NewDurable(%s): %v", dir, err)
	}
	return srv
}

// submitWait submits and waits for a terminal state, asserting success.
func submitWait(t *testing.T, srv *serve.Server, src string, opts optiwise.Options, sub serve.Submission) *serve.Job {
	t.Helper()
	j, err := srv.SubmitWith(mustProgram(t, src), opts, sub)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 30*time.Second)
	if _, state, errMsg := j.Result(); state != serve.StateDone {
		t.Fatalf("job ended %s: %s", state, errMsg)
	}
	return j
}

// resultJSON renders the result deterministically for byte comparison.
func resultJSON(t *testing.T, j *serve.Job) []byte {
	t.Helper()
	res, _, _ := j.Result()
	if res == nil {
		t.Fatal("no result on a done job")
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCrashRecoveryResultsAndLineagesSurvive: everything a client was
// told about — two completed lineage versions, the regression their diff
// flagged, and the cached profiles — survives an abrupt restart. The
// resubmission after restart is a cache hit rehydrated from its result
// segment, never a re-execution.
func TestCrashRecoveryResultsAndLineagesSurvive(t *testing.T) {
	dir := t.TempDir()
	opts := optiwise.Options{SamplePeriod: 300}

	srv1 := newDurable(t, dir, serve.Config{Workers: 2})
	srv1.Start()
	v1 := submitWait(t, srv1, fastSource(60), opts, serve.Submission{Lineage: "bench"})
	v2 := submitWait(t, srv1, progSource(60), opts, serve.Submission{Lineage: "bench"})
	refBytes := resultJSON(t, v2)
	st1 := srv1.Stats()
	if !st1.Durable || st1.ProfileRegressions != 1 {
		t.Fatalf("pre-crash stats: durable=%v regressions=%d, want true and 1",
			st1.Durable, st1.ProfileRegressions)
	}
	// Crash: srv1 is abandoned without Shutdown.

	srv2 := newDurable(t, dir, serve.Config{Workers: 2})
	srv2.Start()
	defer srv2.Shutdown(context.Background()) //nolint:errcheck
	st2 := srv2.Stats()
	if st2.JournalReplays == 0 {
		t.Error("restart replayed no journal segments")
	}
	if st2.RecordsTruncated != 0 {
		t.Errorf("clean journal reported %d truncated records", st2.RecordsTruncated)
	}
	// Satellite fix: the regression counter is continuous across the
	// restart, not reset to zero.
	if st2.ProfileRegressions != 1 {
		t.Errorf("regressions after restart = %d, want 1", st2.ProfileRegressions)
	}
	if st2.LineageKeys != 1 {
		t.Errorf("lineage keys after restart = %d, want 1", st2.LineageKeys)
	}

	// The resubmission must come back from the rehydrated cache with the
	// same digest and byte-identical profile — no double execution.
	again, err := srv2.SubmitWith(mustProgram(t, progSource(60)), opts, serve.Submission{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, again, 30*time.Second)
	if !again.Status().Cached {
		t.Fatal("post-restart resubmission re-executed instead of hitting the rehydrated cache")
	}
	if again.Digest != v2.Digest {
		t.Fatalf("digest changed across restart: %s vs %s", again.Digest, v2.Digest)
	}
	if got := resultJSON(t, again); !bytes.Equal(got, refBytes) {
		t.Error("rehydrated result differs from the pre-crash profile")
	}

	// The lineage history carries both versions, in order.
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	var listing struct {
		Versions []struct {
			Digest string `json:"digest"`
			Cycles uint64 `json:"cycles"`
		} `json:"versions"`
	}
	if code := getJSON(t, ts.URL+"/v1/lineages/bench", &listing); code != 200 {
		t.Fatalf("lineage listing after restart: status %d", code)
	}
	if len(listing.Versions) != 2 ||
		listing.Versions[0].Digest != v1.Digest || listing.Versions[1].Digest != v2.Digest {
		t.Fatalf("lineage history after restart: %+v", listing.Versions)
	}
	if listing.Versions[0].Cycles == 0 || listing.Versions[1].Cycles == 0 {
		t.Errorf("replayed lineage versions lost their totals: %+v", listing.Versions)
	}
}

// TestCrashRecoveryIncompleteJobReenqueued: a submission journaled but
// never executed (the server died with it still queued) is re-enqueued
// and completed by the next startup.
func TestCrashRecoveryIncompleteJobReenqueued(t *testing.T) {
	dir := t.TempDir()
	opts := optiwise.Options{SamplePeriod: 300}
	prog := mustProgram(t, progSource(33))

	// Never started: the job is accepted and journaled but no worker
	// ever picks it up — the crash window for in-flight work.
	srv1 := newDurable(t, dir, serve.Config{Workers: 1})
	if _, err := srv1.SubmitWith(prog, opts, serve.Submission{}); err != nil {
		t.Fatal(err)
	}

	srv2 := newDurable(t, dir, serve.Config{Workers: 1})
	srv2.Start()
	defer srv2.Shutdown(context.Background()) //nolint:errcheck
	key, err := srv2.CanonicalKey(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, ok := srv2.CachedResult(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("re-enqueued job never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The recovered result serves later submissions from cache.
	j, err := srv2.SubmitWith(mustProgram(t, progSource(33)), opts, serve.Submission{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 30*time.Second)
	if !j.Status().Cached {
		t.Error("submission after recovery re-executed the recovered job")
	}
}

// TestCrashRecoveryStreamResumeByteIdentical kills streamed runs
// mid-stream at 20 seeded fault points spread across both pipeline
// passes, restarts on the same data dir, and requires every recovered
// run — re-enqueued by journal replay and re-run from the start — to end
// with a final report byte-identical to an uninterrupted one, and with
// the windowed totals intact, not doubled by the re-run's increments.
func TestCrashRecoveryStreamResumeByteIdentical(t *testing.T) {
	opts := optiwise.Options{SamplePeriod: 300, Window: 512}
	src := progSource(40)

	// Uninterrupted reference: the profile bytes and windowed totals a
	// clean streamed run produces.
	ref := serve.New(serve.Config{Workers: 1})
	ref.Start()
	refJob := submitWait(t, ref, src, opts, serve.Submission{})
	refBytes := resultJSON(t, refJob)
	refSnap, err := refJob.StreamSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	ref.Shutdown(context.Background()) //nolint:errcheck

	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	interrupted, absorbed := 0, 0
	for seed := 0; seed < seeds; seed++ {
		// Alternate the failing pass and vary how deep into it the fault
		// fires (both sites are consulted on a countdown cadence, so nth
		// spaces the kill points across the stream).
		var spec string
		if seed%2 == 0 {
			spec = fmt.Sprintf("seed=%d;ooo.run:error:nth=%d,msg=simulated crash", seed, 2+seed%6)
		} else {
			spec = fmt.Sprintf("seed=%d;dbi.run:error:nth=%d,msg=simulated crash", seed, 1+seed%3)
		}
		plan, err := fault.Parse(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}

		dir := t.TempDir()
		fault.Set(plan)
		srv1 := newDurable(t, dir, serve.Config{Workers: 1, RetryBudget: -1})
		srv1.Start()
		j1, err := srv1.SubmitWith(mustProgram(t, src), opts, serve.Submission{})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j1, 30*time.Second)
		fault.Set(nil)
		if _, state, _ := j1.Result(); state == serve.StateFailed {
			interrupted++
		}
		if srv1.Stats().WindowsCheckpointed > 0 {
			absorbed++
		}
		// Crash srv1; restart on the same dir and resubmit.

		srv2 := newDurable(t, dir, serve.Config{Workers: 1})
		srv2.Start()
		j2 := submitWait(t, srv2, src, opts, serve.Submission{})
		if got := resultJSON(t, j2); !bytes.Equal(got, refBytes) {
			t.Errorf("seed %d (%s): resumed report differs from the uninterrupted run", seed, spec)
		}
		if !j2.Status().Cached {
			// The recovered execution streamed; its cumulative windowed
			// view must match the reference exactly — windows the crashed
			// attempt already streamed must not double-count.
			snap, err := j2.StreamSnapshot()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if snap.Cycles != refSnap.Cycles || snap.Instructions != refSnap.Instructions ||
				snap.Blocks != refSnap.Blocks {
				t.Errorf("seed %d: resumed totals cycles=%d insts=%d blocks=%d, want %d/%d/%d",
					seed, snap.Cycles, snap.Instructions, snap.Blocks,
					refSnap.Cycles, refSnap.Instructions, refSnap.Blocks)
			}
			if len(snap.SampleWindows) != len(refSnap.SampleWindows) ||
				len(snap.EdgeWindows) != len(refSnap.EdgeWindows) {
				t.Errorf("seed %d: resumed windows %d/%d, want %d/%d", seed,
					len(snap.SampleWindows), len(snap.EdgeWindows),
					len(refSnap.SampleWindows), len(refSnap.EdgeWindows))
			}
		}
		srv2.Shutdown(context.Background()) //nolint:errcheck
	}
	if interrupted == 0 {
		t.Error("no seed interrupted its run: the fault schedule tests nothing")
	}
	if absorbed == 0 {
		t.Error("no seed had windows absorbed before the crash")
	}
	t.Logf("%d/%d seeds interrupted mid-run, %d with windows absorbed before the crash", interrupted, seeds, absorbed)
}

// TestJournalFaultsDoNotFailSubmissions: with every journal append
// erroring, submissions still succeed (availability beats durability
// for intake) — and completed results still survive a restart, because
// result segments do not travel through the journal.
func TestJournalFaultsDoNotFailSubmissions(t *testing.T) {
	installPlan(t, "durable.append:error:msg=journal disk gone")
	dir := t.TempDir()
	opts := optiwise.Options{SamplePeriod: 300}

	srv1 := newDurable(t, dir, serve.Config{Workers: 1})
	srv1.Start()
	submitWait(t, srv1, progSource(21), opts, serve.Submission{})
	fault.Set(nil)

	srv2 := newDurable(t, dir, serve.Config{Workers: 1})
	srv2.Start()
	defer srv2.Shutdown(context.Background()) //nolint:errcheck
	j, err := srv2.SubmitWith(mustProgram(t, progSource(21)), opts, serve.Submission{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 30*time.Second)
	if !j.Status().Cached {
		t.Error("result segment written under journal faults did not survive the restart")
	}
}

// TestCorruptResultSegmentRecomputes: a result segment corrupted on
// disk must fail its checksum on rehydration and trigger a clean
// recomputation — never a panic, never a poisoned cache entry.
func TestCorruptResultSegmentRecomputes(t *testing.T) {
	dir := t.TempDir()
	opts := optiwise.Options{SamplePeriod: 300}

	srv1 := newDurable(t, dir, serve.Config{Workers: 1})
	srv1.Start()
	first := submitWait(t, srv1, progSource(27), opts, serve.Submission{})
	refBytes := resultJSON(t, first)

	segs, err := filepath.Glob(filepath.Join(dir, "results", "*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("result segments: %v (err %v), want exactly one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := newDurable(t, dir, serve.Config{Workers: 1})
	srv2.Start()
	defer srv2.Shutdown(context.Background()) //nolint:errcheck
	j, err := srv2.SubmitWith(mustProgram(t, progSource(27)), opts, serve.Submission{})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 30*time.Second)
	if _, state, errMsg := j.Result(); state != serve.StateDone {
		t.Fatalf("recomputation after corrupt segment: state %s (%s)", state, errMsg)
	}
	if j.Status().Cached {
		t.Fatal("corrupt segment served as a cache hit")
	}
	if got := resultJSON(t, j); !bytes.Equal(got, refBytes) {
		t.Error("recomputed profile differs from the original")
	}
}
