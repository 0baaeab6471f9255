package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fedFixture builds two populated registries and their snapshots as the
// federation layer would hold them.
func fedFixture(t *testing.T) (a, b RegistrySnapshot) {
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
	rb.Gauge(MServeQueueDepth).Set(-2) // gauges may go negative
	rb.Histogram(MServeJobLatency).Observe(7)
	rb.EnableRuntimeInfo(BuildInfo{Version: "v1.2.3", GoVersion: "go1.22", Commit: "fed987"})
	return ra.FullSnapshot(), rb.FullSnapshot()
}

// TestWriteFederatedMerge: both nodes' counters appear under distinct
// node labels in one exposition, with exactly one HELP/TYPE pair per
// family, and the whole payload passes the exposition lint in both
// formats.
func TestWriteFederatedMerge(t *testing.T) {
	sa, sb := fedFixture(t)
	nodes := []NodeSnapshot{
		{Node: "127.0.0.1:9002", Snapshot: sb, FetchedUnixNano: time.Now().UnixNano()},
		{Node: "127.0.0.1:9001", Snapshot: sa, FetchedUnixNano: time.Now().UnixNano()},
	}
	var buf bytes.Buffer
	if err := WriteExposition(&buf, nodes, false); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		`optiwise_sampler_samples_total{node="127.0.0.1:9001"} 100`,
		`optiwise_sampler_samples_total{node="127.0.0.1:9002"} 40`,
		`optiwise_cluster_forwards_total{node="127.0.0.1:9001"} 3`,
		`optiwise_serve_queue_depth{node="127.0.0.1:9002"} -2`,
		`optiwise_node_up{node="127.0.0.1:9001"} 1`,
		`optiwise_node_up{node="127.0.0.1:9002"} 1`,
		`optiwise_build_info{commit="abc123def456",go_version="go1.22",node="127.0.0.1:9001",version="v1.2.3"} 1`,
		`optiwise_serve_job_latency_us_bucket{le="+Inf",node="127.0.0.1:9001"} 2`,
		`optiwise_serve_job_latency_us_count{node="127.0.0.1:9002"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("federated exposition missing %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "# TYPE optiwise_sampler_samples_total "); n != 1 {
		t.Errorf("want exactly one TYPE line per family, got %d:\n%s", n, got)
	}
	lintExposition(t, got, false)

	buf.Reset()
	if err := WriteExposition(&buf, nodes, true); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(buf.String(), "# EOF\n") {
		t.Error("OpenMetrics federated output must end with # EOF")
	}
	lintExposition(t, buf.String(), true)
}

// TestWriteFederatedStaleNode: an unreachable peer is served from its
// last-known snapshot with optiwise_node_up 0, and a peer that never
// answered still appears as a bare liveness row — the exposition never
// drops a known node.
func TestWriteFederatedStaleNode(t *testing.T) {
	sa, sb := fedFixture(t)
	nodes := []NodeSnapshot{
		{Node: "node-a", Snapshot: sa},
		{Node: "node-b", Snapshot: sb, Stale: true},
		{Node: "node-c", Stale: true}, // never scraped: empty snapshot
	}
	var buf bytes.Buffer
	if err := WriteExposition(&buf, nodes, false); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		`optiwise_node_up{node="node-a"} 1`,
		`optiwise_node_up{node="node-b"} 0`,
		`optiwise_node_up{node="node-c"} 0`,
		`optiwise_sampler_samples_total{node="node-b"} 40`, // last-known values still served
	} {
		if !strings.Contains(got, want) {
			t.Errorf("federated exposition missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, `{node="node-c"} 40`) || strings.Contains(got, `optiwise_build_info{commit="",`) {
		t.Errorf("never-scraped node leaked samples:\n%s", got)
	}
	lintExposition(t, got, false)
}

// TestWriteFederatedLabelCollisions: node names carrying every label
// metacharacter round-trip escaped, duplicate node names are rejected,
// and a cross-node kind collision drops the mismatched samples instead
// of corrupting the exposition.
func TestWriteFederatedLabelCollisions(t *testing.T) {
	r := NewRegistry()
	r.Counter(MSamplesTaken).Add(9)
	weird := "host\"1\"\\x\ny"
	nodes := []NodeSnapshot{{Node: weird, Snapshot: r.FullSnapshot()}}
	var buf bytes.Buffer
	if err := WriteExposition(&buf, nodes, false); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `optiwise_sampler_samples_total{node="host\"1\"\\x\ny"} 9`
	if !strings.Contains(got, want) {
		t.Errorf("escaped node label missing:\nwant %q\ngot:\n%s", want, got)
	}
	lintExposition(t, got, false)

	if err := WriteExposition(&buf, []NodeSnapshot{{Node: "x"}, {Node: "x"}}, false); err == nil {
		t.Error("duplicate node names must be rejected")
	}

	// Kind collision: the same name is a counter on one node and a gauge
	// on another (mixed binary versions). The merged family keeps one
	// kind and drops the other node's samples.
	rc := NewRegistry()
	rc.Counter("optiwise_contested_total").Add(1)
	rg := NewRegistry()
	rg.Gauge("optiwise_contested_total").Set(5)
	buf.Reset()
	if err := WriteExposition(&buf, []NodeSnapshot{
		{Node: "a", Snapshot: rc.FullSnapshot()},
		{Node: "b", Snapshot: rg.FullSnapshot()},
	}, false); err != nil {
		t.Fatal(err)
	}
	got = buf.String()
	if strings.Count(got, "# TYPE optiwise_contested_total ") != 1 {
		t.Errorf("kind collision produced duplicate TYPE lines:\n%s", got)
	}
	if strings.Contains(got, `optiwise_contested_total{node="b"}`) {
		t.Errorf("mismatched-kind samples must be dropped:\n%s", got)
	}
	if !strings.Contains(got, `optiwise_contested_total{node="a"} 1`) {
		t.Errorf("winning-kind samples missing:\n%s", got)
	}
	lintExposition(t, got, false)

	// The same rule holds inside one registry's local view.
	rc.Gauge("optiwise_contested_total").Set(5)
	got = localText(t, rc, false)
	if strings.Count(got, "# TYPE optiwise_contested_total counter") != 1 ||
		!strings.Contains(got, "\noptiwise_contested_total 1\n") || strings.Contains(got, " 5\n") {
		t.Errorf("local kind collision must keep the counter and drop the gauge:\n%s", got)
	}
	lintExposition(t, got, false)
}

// TestFullSnapshotRoundTrip: FullSnapshot carries counters, gauges,
// sparse histogram buckets, and build info — the federation wire unit.
func TestFullSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(MSamplesTaken).Add(5)
	r.Gauge(MServeQueueDepth).Set(3)
	r.Histogram(MSampleWeight).Observe(100)
	r.EnableRuntimeInfo(BuildInfo{Version: "v9", GoVersion: "go1.22", Commit: "c0ffee"})
	r.EnableRuntimeInfo(BuildInfo{Version: "ignored"}) // first call wins

	s := r.FullSnapshot()
	if s.Counters[MSamplesTaken] != 5 || s.Gauges[MServeQueueDepth] != 3 {
		t.Errorf("snapshot scalars wrong: %+v", s)
	}
	h, ok := s.Histograms[MSampleWeight]
	if !ok || h.Count != 1 || h.Sum != 100 {
		t.Errorf("snapshot histogram wrong: %+v", h)
	}
	if s.Build == nil || s.Build.Version != "v9" {
		t.Errorf("EnableRuntimeInfo first-call-wins violated: %+v", s.Build)
	}
	if s.UptimeSeconds < 0 {
		t.Errorf("negative uptime: %v", s.UptimeSeconds)
	}
}
