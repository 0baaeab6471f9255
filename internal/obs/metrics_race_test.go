package obs

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryConcurrent hammers one registry from many goroutines —
// counters, gauges, histograms, handle lookups, snapshots, and the
// Prometheus exporter all racing — and checks the final counts. Run
// under `go test -race` (CI does) to prove the registry is data-race
// free.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 16
		iters      = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the goroutines reuse a prefetched handle (the hot-path
			// pattern); the rest look up by name every time.
			c := r.Counter(MSamplesTaken)
			for i := 0; i < iters; i++ {
				if g%2 == 0 {
					c.Inc()
				} else {
					r.Counter(MSamplesTaken).Inc()
				}
				r.Gauge(MDBICodeCacheSize).Set(int64(i))
				r.Histogram(MSampleWeight).Observe(uint64(i))
				if i%500 == 0 {
					_ = WriteExposition(io.Discard, local(r), true)
				}
			}
		}(g)
	}
	wg.Wait()

	if got, want := r.Counter(MSamplesTaken).Value(), uint64(goroutines*iters); got != want {
		t.Fatalf("counter lost updates: got %d want %d", got, want)
	}
	if got, want := r.Histogram(MSampleWeight).Count(), uint64(goroutines*iters); got != want {
		t.Fatalf("histogram lost updates: got %d want %d", got, want)
	}
}

// TestSnapshotConsistentUnderObservation: snapshots taken while other
// goroutines observe keep each histogram's bucket total equal to its
// count, so every rendered exposition stays cumulative up to +Inf.
func TestSnapshotConsistentUnderObservation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(MSampleWeight)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(g); !stop.Load(); i++ {
				h.Observe(i % 5000)
			}
		}(g)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for i := 0; i < 2000; i++ {
		hs := r.FullSnapshot().Histograms[MSampleWeight]
		var total uint64
		for _, v := range hs.Buckets {
			total += v
		}
		if total != hs.Count {
			t.Fatalf("snapshot %d: bucket total %d != count %d", i, total, hs.Count)
		}
	}
	var buf bytes.Buffer
	if err := WriteExposition(&buf, local(r), false); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, buf.String(), false)
}

// TestTracerConcurrent opens and closes spans from many goroutines. The
// resulting nesting is arbitrary (the tracer models one logical pipeline
// thread) but must be race-free and lose no spans.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	const (
		goroutines = 8
		iters      = 500
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := tr.Start("work")
				sp.SetAttr("i", i)
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got, want := len(tr.Spans()), goroutines*iters; got != want {
		t.Fatalf("lost spans: got %d want %d", got, want)
	}
}
