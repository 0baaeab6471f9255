package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The goldens in testdata pin the federated Prometheus text and the
// node-local OpenMetrics text byte for byte. They were recorded from
// the separate local and federated writers that WriteExposition
// replaced, so they are never regenerated from WriteExposition itself.

// fedText renders nodes as the federated /cluster/v1/metrics view.
func fedText(t *testing.T, nodes []NodeSnapshot, openMetrics bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteExposition(&buf, nodes, openMetrics); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// localText renders one registry as the node-local /metrics view.
func localText(t *testing.T, r *Registry, openMetrics bool) string {
	t.Helper()
	return fedText(t, local(r), openMetrics)
}

// local is the node-local view of r: one unnamed snapshot.
func local(r *Registry) []NodeSnapshot {
	return []NodeSnapshot{{Snapshot: r.FullSnapshot()}}
}

// readGolden returns the recorded exposition testdata/name.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// pinClocks fixes the uptime and exemplar-timestamp seams for the
// duration of a test.
func pinClocks(t *testing.T) {
	t.Helper()
	prevSince, prevNanos := nowSince, nowNanos
	t.Cleanup(func() { nowSince, nowNanos = prevSince, prevNanos })
	nowSince = func(time.Time) float64 { return 12.75 }
	nowNanos = func() int64 { return 1700000000_123000000 }
}

// goldenNodes is the federated fixture: two answering nodes and one
// that never answered, given out of order. Node b carries a 2^40
// observation, a 2^63 one (the float-formatted top buckets), an empty
// histogram and build labels that need escaping.
func goldenNodes(t *testing.T) []NodeSnapshot {
	t.Helper()
	ra := NewRegistry()
	ra.Counter(MSamplesTaken).Add(100)
	ra.Counter(MClusterForwards).Add(3)
	ra.Gauge(MServeQueueDepth).Set(5)
	ra.Histogram(MServeJobLatency).Observe(120)
	ra.Histogram(MServeJobLatency).Observe(90000)
	ra.EnableRuntimeInfo(BuildInfo{Version: "v1.2.3", GoVersion: "go1.22", Commit: "abc123def456"})

	rb := NewRegistry()
	rb.Counter(MSamplesTaken).Add(40)
	rb.Gauge(MServeQueueDepth).Set(-2)
	rb.Histogram(MServeJobLatency).Observe(7)
	rb.Histogram(MSampleWeight).Observe(1 << 40)
	rb.Histogram(MSampleWeight).Observe(1 << 63)
	rb.Histogram(MAnalyzeShards + "_hist") // registered, never observed
	rb.EnableRuntimeInfo(BuildInfo{Version: "v2 \"rc\"", GoVersion: "go1.22", Commit: "fed\\987\nx"})

	return []NodeSnapshot{
		{Node: "127.0.0.1:9002", Snapshot: rb.FullSnapshot()},
		{Node: "127.0.0.1:9000", Stale: true},
		{Node: "127.0.0.1:9001", Snapshot: ra.FullSnapshot()},
	}
}

func TestFederatedPrometheusGolden(t *testing.T) {
	pinClocks(t)
	got := fedText(t, goldenNodes(t), false)
	if want := readGolden(t, "federated.prom"); got != want {
		t.Errorf("federated exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	lintExposition(t, got, false)
}

func TestOpenMetricsGolden(t *testing.T) {
	pinClocks(t)
	r := NewRegistry()
	r.Counter(MFlightDumps).Add(2)
	r.Gauge(MServeInflightJobs).Set(1)
	h := r.Histogram(MServeJobLatency)
	h.ObserveTrace(1500, "4bf92f3577b34da6a3ce929d0e0e4736")
	h.Observe(3)
	r.EnableRuntimeInfo(BuildInfo{Version: "v0.9", GoVersion: "go1.22", Commit: "c0ffee"})
	got := localText(t, r, true)
	if want := readGolden(t, "local.openmetrics"); got != want {
		t.Errorf("OpenMetrics exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	lintExposition(t, got, true)
}

// TestFederatedOpenMetricsExemplars: a node's bucket exemplar survives
// the JSON federation wire and is rendered in the federated
// OpenMetrics view, which ends in # EOF.
func TestFederatedOpenMetricsExemplars(t *testing.T) {
	pinClocks(t)
	r := NewRegistry()
	r.Histogram(MServeJobLatency).ObserveTrace(1500, "4bf92f3577b34da6a3ce929d0e0e4736")
	raw, err := json.Marshal(r.FullSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var wire RegistrySnapshot
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	nodes := []NodeSnapshot{{Node: "a", Snapshot: wire}}
	got := fedText(t, nodes, true)
	want := `optiwise_serve_job_latency_us_bucket{le="2047",node="a"} 1 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 1500 1700000000.123`
	if !strings.Contains(got, want+"\n") {
		t.Errorf("federated OpenMetrics missing exemplar:\nwant line %q\ngot:\n%s", want, got)
	}
	if !strings.HasSuffix(got, "\n# EOF\n") {
		t.Errorf("federated OpenMetrics must end with # EOF:\n%s", got)
	}
	lintExposition(t, got, true)
	if prom := fedText(t, nodes, false); strings.Contains(prom, "# {") {
		t.Errorf("exemplar leaked into Prometheus 0.0.4 text:\n%s", prom)
	}
}
