package serve_test

// Result-store seams against a fake ring tier: Submit's fast path never
// reaches the ring, a fetched payload that fails its checksum or does
// not decode is never admitted, Push fires once per completed key and
// never for a degraded, failed, or canceled run, and the memory tier's
// byte count is the sum of its entries' wire payload lengths.

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optiwise"
	"optiwise/internal/durable"
	"optiwise/internal/fault"
	"optiwise/internal/serve"
	"optiwise/internal/trailer"
)

// fakeRing is a scriptable serve.RingTier. fetch answers Fetch (nil
// misses); every Push is recorded.
type fakeRing struct {
	fetch func(ctx context.Context, key string) ([]byte, string, bool)

	mu      sync.Mutex
	fetches int
	pushes  map[string][][]byte
}

func (f *fakeRing) Fetch(ctx context.Context, key string) ([]byte, string, bool) {
	f.mu.Lock()
	f.fetches++
	f.mu.Unlock()
	if f.fetch == nil {
		return nil, "", false
	}
	return f.fetch(ctx, key)
}

func (f *fakeRing) Push(key string, payload []byte, checksum, _ string) {
	if serve.WireChecksum(payload) != checksum {
		panic("push with a checksum that does not match its payload")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pushes == nil {
		f.pushes = make(map[string][][]byte)
	}
	f.pushes[key] = append(f.pushes[key], payload)
}

func (f *fakeRing) fetchCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fetches
}

// pushed snapshots the recorded pushes.
func (f *fakeRing) pushed() map[string][][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string][][]byte, len(f.pushes))
	for k, v := range f.pushes {
		out[k] = append([][]byte(nil), v...)
	}
	return out
}

// referenceRun computes src's result on a plain single-node server,
// returning its export JSON and wire payload.
func referenceRun(t *testing.T, src string, opts optiwise.Options) ([]byte, []byte) {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	j := submitWait(t, srv, src, opts, serve.Submission{})
	res, _, _ := j.Result()
	payload, _, err := serve.EncodeWireResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return resultJSON(t, j), payload
}

// TestRingTierNotOnSubmitPath: Submit's fast path reads memory and disk
// only; the worker asks the ring once per execution.
func TestRingTierNotOnSubmitPath(t *testing.T) {
	ring := &fakeRing{}
	srv := serve.New(serve.Config{Workers: 1})
	srv.SetClusterHooks(ring, nil, nil)
	prog := mustProgram(t, progSource(3))
	opts := optiwise.Options{SamplePeriod: 300}

	// Not started: the submission is queued and no worker runs.
	j, err := srv.Submit(prog, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := ring.fetchCount(); n != 0 {
		t.Fatalf("Submit called Fetch %d times", n)
	}
	srv.Start()
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	waitJob(t, j, 30*time.Second)
	if n := ring.fetchCount(); n != 1 {
		t.Fatalf("worker called Fetch %d times, want 1", n)
	}
	again, err := srv.Submit(prog, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, again, 30*time.Second)
	if !again.Status().Cached {
		t.Fatal("resubmission was not a cache hit")
	}
	if n := ring.fetchCount(); n != 1 {
		t.Fatalf("cache hit called Fetch (%d calls)", n)
	}
}

// TestRingTierRejectsBadPayloads: a fetched payload is used only when
// its checksum matches and it decodes; otherwise the worker simulates
// and only the local result is admitted.
func TestRingTierRejectsBadPayloads(t *testing.T) {
	src, opts := progSource(4), optiwise.Options{SamplePeriod: 300}
	want, payload := referenceRun(t, src, opts)
	_, other := referenceRun(t, progSource(6), opts)
	garbage := []byte("not a wire payload")

	cases := []struct {
		name            string
		payload         []byte
		checksum        string
		wantPeerFetched bool
	}{
		{"intact", payload, serve.WireChecksum(payload), true},
		{"checksum mismatch", other, serve.WireChecksum(payload), false},
		{"undecodable", garbage, serve.WireChecksum(garbage), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ring := &fakeRing{fetch: func(context.Context, string) ([]byte, string, bool) {
				return c.payload, c.checksum, true
			}}
			srv := newDurable(t, t.TempDir(), serve.Config{Workers: 1})
			srv.SetClusterHooks(ring, nil, nil)
			srv.Start()
			defer srv.Shutdown(context.Background()) //nolint:errcheck

			j := submitWait(t, srv, src, opts, serve.Submission{})
			if got := j.Status().PeerFetched; got != c.wantPeerFetched {
				t.Errorf("peer_fetched = %v, want %v", got, c.wantPeerFetched)
			}
			if got := srv.Stats().JobsPeerFetched; (got == 1) != c.wantPeerFetched {
				t.Errorf("jobs_peer_fetched = %d with peer_fetched %v", got, c.wantPeerFetched)
			}
			if got := resultJSON(t, j); !bytes.Equal(got, want) {
				t.Error("job result differs from a local computation")
			}
			// What the store holds (and serves on) is the good result.
			again := submitWait(t, srv, src, opts, serve.Submission{})
			if !again.Status().Cached || !bytes.Equal(resultJSON(t, again), want) {
				t.Error("stored result differs from a local computation")
			}
			stored, _, err := srv.ResultPayload(j.Digest)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stored, payload) {
				t.Error("stored payload differs from the local encoding")
			}
			if digests, _ := srv.ResultDigests(); digests[j.Digest] != serve.WireChecksum(payload) {
				t.Errorf("disk tier holds %v, want only the local encoding", digests)
			}
		})
	}
}

// TestRingTierPushAndMemoryBytes: every completed key is pushed exactly
// once with the bytes on disk; degraded, failed, and canceled runs are
// never pushed; and the memory tier counts Σ len(payload).
func TestRingTierPushAndMemoryBytes(t *testing.T) {
	// With block set, Fetch parks the worker until its execution is
	// canceled.
	var block atomic.Bool
	entered := make(chan struct{}, 1)
	ring := &fakeRing{fetch: func(ctx context.Context, _ string) ([]byte, string, bool) {
		if block.Load() {
			entered <- struct{}{}
			<-ctx.Done()
		}
		return nil, "", false
	}}
	srv := newDurable(t, t.TempDir(), serve.Config{Workers: 1, RetryBudget: -1})
	srv.SetClusterHooks(ring, nil, nil)
	srv.Start()
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	opts := optiwise.Options{SamplePeriod: 300}

	completed := map[string]bool{}
	for _, trips := range []int{3, 4, 5} {
		for i := 0; i < 2; i++ { // the second submission is a cache hit
			j := submitWait(t, srv, progSource(trips), opts, serve.Submission{})
			completed[j.Digest] = true
		}
	}
	waitPushes(t, ring, len(completed))

	// Degraded, failed, and canceled executions.
	installPlan(t, "dbi.run:error:perm")
	degraded := submitWait(t, srv, progSource(6), optiwise.Options{SamplePeriod: 300, AllowDegraded: true}, serve.Submission{})
	if res, _, _ := degraded.Result(); res == nil || !res.Degraded {
		t.Fatal("fault plan did not degrade the run")
	}
	installPlan(t, "serve.worker:error:perm")
	failed, err := srv.Submit(mustProgram(t, progSource(7)), opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, failed, 30*time.Second)
	if _, state, _ := failed.Result(); state != serve.StateFailed {
		t.Fatalf("fault plan did not fail the run: %s", state)
	}
	fault.Set(nil)

	block.Store(true)
	canceled, err := srv.Submit(mustProgram(t, progSource(8)), opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never reached the ring tier")
	}
	block.Store(false)
	if ok, _ := srv.Cancel(canceled.ID); !ok {
		t.Fatal("cancel did not take")
	}
	// The single worker finishes the canceled execution before it runs
	// this one, so any push the negatives spawned was spawned before
	// last's. A spawned push may still be in flight; absence has no
	// event to wait on, so allow it a moment to land before counting.
	last := submitWait(t, srv, progSource(9), opts, serve.Submission{})
	completed[last.Digest] = true
	time.Sleep(50 * time.Millisecond)

	pushes := waitPushes(t, ring, len(completed))
	var total int64
	for key, payloads := range pushes {
		if !completed[key] {
			t.Errorf("pushed %.12s, which never completed", key)
			continue
		}
		if len(payloads) != 1 {
			t.Errorf("%.12s pushed %d times", key, len(payloads))
		}
		stored, _, err := srv.ResultPayload(key)
		if err != nil || !bytes.Equal(stored, payloads[0]) {
			t.Errorf("%.12s: pushed payload differs from the stored one (%v)", key, err)
		}
		total += int64(len(payloads[0]))
	}
	st := srv.Stats()
	if st.CacheEntries != len(completed) || st.CacheBytes != total {
		t.Errorf("memory tier: %d entries / %d bytes, want %d / Σ len(payload) = %d",
			st.CacheEntries, st.CacheBytes, len(completed), total)
	}
}

// waitPushes polls until want distinct keys were pushed.
func waitPushes(t *testing.T, ring *fakeRing, want int) map[string][][]byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p := ring.pushed()
		if len(p) >= want {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d keys pushed, want %d", len(p), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBadPayloadsAreMisses: a payload that is truncated, carries a
// trailing byte, a foreign magic or schema fingerprint, no export
// tables, or is a segment from the JSON-era encoding is refused at
// replica ingest, is a miss and a recomputation as a disk segment or a
// ring fetch, and skips its lineage version at replay — never a crash.
func TestBadPayloadsAreMisses(t *testing.T) {
	src, opts := progSource(5), optiwise.Options{SamplePeriod: 300}
	want, good := referenceRun(t, src, opts)
	res, err := serve.DecodeWireResult(good, mustProgram(t, src))
	if err != nil {
		t.Fatal(err)
	}
	jsonEra, err := json.Marshal(map[string]any{"export": res.Export(), "graph": res.Graph.Flatten()})
	if err != nil {
		t.Fatal(err)
	}
	noExport, err := (&serve.WireResult{}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		b := bytes.Clone(good)
		b[i] ^= 0xff
		return b
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"truncated header", good[:len(serve.WireMagic)+3]},
		{"trailing byte", append(bytes.Clone(good), 0)},
		{"bad magic", flip(0)},
		{"wrong fingerprint", flip(len(serve.WireMagic))},
		{"no export tables", noExport},
		{"JSON-era", jsonEra},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sum := serve.WireChecksum(c.payload)

			// Replica ingest refuses it and leaves the segment alone.
			dir := t.TempDir()
			srv1 := newDurable(t, dir, serve.Config{Workers: 1})
			srv1.Start()
			j1 := submitWait(t, srv1, src, opts, serve.Submission{Lineage: "lin"})
			if err := srv1.IngestResult(j1.Digest, c.payload, sum); err == nil {
				t.Error("IngestResult accepted the payload")
			}
			if digests, _ := srv1.ResultDigests(); digests[j1.Digest] != serve.WireChecksum(good) {
				t.Error("a refused ingest changed the stored segment")
			}
			if err := srv1.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}

			// As the disk segment: replay skips the lineage version, and
			// the resubmission recomputes and restores the segment.
			seg := filepath.Join(dir, "results", j1.Digest+".owpr")
			if err := durable.AtomicWrite(seg, trailer.Append(bytes.Clone(c.payload)), 0o644); err != nil {
				t.Fatal(err)
			}
			srv2 := newDurable(t, dir, serve.Config{Workers: 1})
			srv2.Start()
			defer srv2.Shutdown(context.Background()) //nolint:errcheck
			if n := srv2.Stats().LineageKeys; n != 0 {
				t.Errorf("replay recorded %d lineages from the bad segment", n)
			}
			j2 := submitWait(t, srv2, src, opts, serve.Submission{})
			if j2.Status().Cached {
				t.Error("bad segment served as a cache hit")
			}
			if !bytes.Equal(resultJSON(t, j2), want) {
				t.Error("recomputed result differs from a local computation")
			}
			if digests, _ := srv2.ResultDigests(); digests[j2.Digest] != serve.WireChecksum(good) {
				t.Error("recomputation did not restore the segment")
			}

			// As a ring fetch: a miss, and the worker simulates.
			ring := &fakeRing{fetch: func(context.Context, string) ([]byte, string, bool) {
				return c.payload, sum, true
			}}
			srv3 := serve.New(serve.Config{Workers: 1})
			srv3.SetClusterHooks(ring, nil, nil)
			srv3.Start()
			defer srv3.Shutdown(context.Background()) //nolint:errcheck
			j3 := submitWait(t, srv3, src, opts, serve.Submission{})
			if j3.Status().PeerFetched || ring.fetchCount() != 1 {
				t.Errorf("peer_fetched %v after %d fetches, want a miss after one", j3.Status().PeerFetched, ring.fetchCount())
			}
			if !bytes.Equal(resultJSON(t, j3), want) {
				t.Error("result after a bad fetch differs from a local computation")
			}
		})
	}
}
