package cluster_test

// Observability-v3 cluster tests (DESIGN.md §14): the federated
// /cluster/v1/metrics endpoint (node-labeled merge, dead-peer
// staleness), cross-node trace stitching on forwarded submissions, and
// the drill-down projection served through the lookup proxy.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"optiwise/internal/obs"
	"optiwise/internal/serve"
)

// getText fetches url and returns status and body as a string.
func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// fedJSON is the decoded ?format=json federation body.
type fedJSON struct {
	Self  string `json:"self"`
	Nodes []struct {
		Node     string `json:"node"`
		Stale    bool   `json:"stale"`
		Snapshot struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"snapshot"`
	} `json:"nodes"`
}

// TestClusterFederatedMetrics: one scrape of any node returns every
// node's counters under distinct node labels, and killing a peer turns
// its rows stale (node_up 0) without blocking or dropping the node.
func TestClusterFederatedMetrics(t *testing.T) {
	nodes := startCluster(t, 3)

	// Wait until node 0's federated view sees all three members fresh.
	// The scrape is cached for its staleness budget, so poll past it.
	deadline := time.Now().Add(10 * time.Second)
	var fed fedJSON
	for {
		getJSON(t, nodes[0].url()+"/cluster/v1/metrics?format=json", &fed)
		fresh := 0
		for _, n := range fed.Nodes {
			if !n.Stale {
				fresh++
			}
		}
		if fresh == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("federated view never converged: %+v", fed.Nodes)
		}
		time.Sleep(200 * time.Millisecond)
	}

	status, text := getText(t, nodes[0].url()+"/cluster/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("federated exposition: status %d", status)
	}
	for _, tn := range nodes {
		up := fmt.Sprintf("optiwise_node_up{node=%q} 1", tn.addr)
		if !strings.Contains(text, up) {
			t.Errorf("exposition missing %s:\n%.2000s", up, text)
		}
	}
	if n := strings.Count(text, "# TYPE optiwise_node_up gauge"); n != 1 {
		t.Errorf("want one optiwise_node_up TYPE line, got %d", n)
	}

	// OpenMetrics rides the same negotiation as a node's /metrics.
	req, _ := http.NewRequest(http.MethodGet, nodes[0].url()+"/cluster/v1/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") ||
		!strings.HasSuffix(string(om), "\n# EOF\n") {
		t.Errorf("federated OpenMetrics: content type %q, body tail %q", ct, om[max(0, len(om)-40):])
	}

	// Kill node 2 and wait out the staleness budget plus probe
	// demotion; the exposition must still answer, with the dead node
	// marked down rather than missing.
	killed := nodes[2].addr
	nodes[2].kill()
	deadline = time.Now().Add(10 * time.Second)
	for {
		start := time.Now()
		status, text = getText(t, nodes[0].url()+"/cluster/v1/metrics")
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("federated scrape blocked %v on a dead peer", d)
		}
		if status != http.StatusOK {
			t.Fatalf("federated exposition after kill: status %d", status)
		}
		if strings.Contains(text, fmt.Sprintf("optiwise_node_up{node=%q} 0", killed)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed node never went stale in exposition:\n%.2000s", text)
		}
		time.Sleep(200 * time.Millisecond)
	}
	// The survivors still report fresh.
	for _, tn := range nodes[:2] {
		up := fmt.Sprintf("optiwise_node_up{node=%q} 1", tn.addr)
		if !strings.Contains(text, up) {
			t.Errorf("surviving node missing from exposition: %s", up)
		}
	}
	// Last-known counters for the dead node are still served (stale).
	getJSON(t, nodes[0].url()+"/cluster/v1/metrics?format=json", &fed)
	for _, n := range fed.Nodes {
		if n.Node == killed && !n.Stale {
			t.Errorf("killed node not marked stale in JSON view: %+v", n)
		}
	}
}

// TestClusterFederatedPerNodeCounters: two nodes in one process each
// count into their own server's registry, so the federated view carries
// a different forwards and submissions count under each node label,
// each equal to what that node's /v1/stats and /metrics report.
func TestClusterFederatedPerNodeCounters(t *testing.T) {
	nodes := startCluster(t, 2)
	forwardedJob(t, nodes)
	// Two submissions node 0 must run itself: its submission count now
	// exceeds node 1's single forwarded job.
	for seed := uint64(100); seed < 102; seed++ {
		mustDone(t, postJob(t, nodes[0].url(), submission(3, seed),
			map[string]string{"X-Optiwise-Forwarded": "test"}), "forced-local submission")
	}

	type counts struct{ forwards, submitted uint64 }
	want := make(map[string]counts)
	for _, tn := range nodes {
		var st serve.Stats
		getJSON(t, tn.url()+"/v1/stats", &st)
		_, text := getText(t, tn.url()+"/metrics")
		want[tn.addr] = counts{st.Cluster.Forwarded, sampleValue(t, text, obs.MServeJobsSubmitted)}
	}
	a, b := want[nodes[0].addr], want[nodes[1].addr]
	if a.forwards == b.forwards || a.submitted == b.submitted {
		t.Fatalf("the load did not separate the nodes: %+v vs %+v", a, b)
	}

	// The merged scrape is cached for its staleness budget: poll until
	// it postdates the load.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var fed fedJSON
		getJSON(t, nodes[0].url()+"/cluster/v1/metrics?format=json", &fed)
		got := make(map[string]counts)
		for _, n := range fed.Nodes {
			if !n.Stale {
				got[n.Node] = counts{n.Snapshot.Counters[obs.MClusterForwards], n.Snapshot.Counters[obs.MServeJobsSubmitted]}
			}
		}
		if got[nodes[0].addr] == a && got[nodes[1].addr] == b {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("federated counters %+v, want %+v", got, want)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// sampleValue returns the value of the unlabeled sample name in a
// Prometheus text exposition.
func sampleValue(t *testing.T, text, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("exposition has no %s sample", name)
	return 0
}

// forwardedJob submits variants through nodes[0] until one is routed to
// a different node, returning that reply.
func forwardedJob(t *testing.T, nodes []*testNode) jobReply {
	t.Helper()
	for seed := uint64(1); seed < 64; seed++ {
		jr := postJob(t, nodes[0].url(), submission(3, seed), nil)
		mustDone(t, jr, "submission")
		if jr.node != nodes[0].addr {
			return jr
		}
	}
	t.Fatal("no submission routed away from node 0 in 64 tries")
	return jobReply{}
}

// TestClusterStitchedTrace: a submission forwarded from node A to node
// B exports one Chrome trace whose process rows name both nodes — B's
// own span tree plus A's cluster.forward hop.
func TestClusterStitchedTrace(t *testing.T) {
	nodes := startCluster(t, 2)
	jr := forwardedJob(t, nodes)

	// Fetch through node A: the lookup proxies to the owner.
	status, trace := getText(t, nodes[0].url()+"/v1/jobs/"+jr.ID+"/trace")
	if status != http.StatusOK {
		t.Fatalf("trace: status %d: %s", status, trace)
	}
	if !strings.Contains(trace, "cluster.forward") {
		t.Errorf("stitched trace missing the router hop segment:\n%.3000s", trace)
	}
	for _, tn := range nodes {
		want := fmt.Sprintf("node %s", tn.addr)
		if !strings.Contains(trace, want) {
			t.Errorf("stitched trace missing process row %q:\n%.3000s", want, trace)
		}
	}
	if !strings.Contains(trace, `"trace_id"`) {
		t.Error("stitched trace events carry no trace_id args")
	}
}

// TestClusterDrilldownProxied: the drill-down projection of a job owned
// by another node is served through the lookup proxy and reaches
// instruction level.
func TestClusterDrilldownProxied(t *testing.T) {
	nodes := startCluster(t, 2)
	jr := forwardedJob(t, nodes)

	var dd struct {
		TotalCycles uint64 `json:"total_cycles"`
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
		} `json:"functions"`
	}
	status, handled := getJSON(t, nodes[0].url()+"/api/v1/jobs/"+jr.ID+"/drilldown", &dd)
	if status != http.StatusOK {
		t.Fatalf("drilldown: status %d", status)
	}
	if handled != jr.node {
		t.Errorf("drilldown served by %q, want owner %q", handled, jr.node)
	}
	if dd.TotalCycles == 0 || len(dd.Functions) == 0 {
		t.Fatalf("drilldown empty: %+v", dd)
	}
	foundInst := false
	for _, f := range dd.Functions {
		for _, l := range f.Loops {
			for _, b := range l.Blocks {
				for _, in := range b.Instructions {
					if in.Disasm != "" {
						foundInst = true
					}
				}
			}
		}
	}
	if !foundInst {
		t.Errorf("drilldown never reached instruction level: %+v", dd.Functions)
	}
}
