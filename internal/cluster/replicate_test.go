package cluster_test

// Replication and anti-entropy tests: durable nodes behind real HTTP
// listeners. Completed results must replicate to the key's ring
// successor; a replication that failed is delivered by the next
// anti-entropy pass; a corrupted or deleted replica is
// repaired — checksum-verified, byte-moved, never recomputed — within
// one pass; and the replica ingest endpoint rejects payloads that fail
// the checksum or structural gates.

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"optiwise/internal/cluster"
	"optiwise/internal/fault"
	"optiwise/internal/serve"
)

// startDurableCluster boots n symmetric durable nodes (each with its
// own data dir) whose anti-entropy loop is disabled — tests drive
// passes explicitly with AntiEntropyNow for determinism.
func startDurableCluster(t *testing.T, n int) []*testNode {
	t.Helper()
	return startDurableClusterWith(t, n, nil)
}

// startDurableClusterWith is startDurableCluster with mod (when non-nil)
// adjusting every node's serve and cluster configs.
func startDurableClusterWith(t *testing.T, n int, mod func(*serve.Config, *cluster.Config)) []*testNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		dir := t.TempDir()
		scfg := serve.Config{
			Workers:        2,
			DataDir:        dir,
			DefaultTimeout: 30 * time.Second,
			RetryBaseDelay: time.Millisecond,
			RetryMaxDelay:  4 * time.Millisecond,
		}
		ccfg := cluster.Config{
			Self:                addrs[i],
			Peers:               peers,
			ProbeInterval:       50 * time.Millisecond,
			AntiEntropyInterval: -1,
		}
		if mod != nil {
			mod(&scfg, &ccfg)
		}
		srv, err := serve.NewDurable(scfg)
		if err != nil {
			t.Fatalf("NewDurable: %v", err)
		}
		node, err := cluster.New(ccfg, srv)
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		srv.Start()
		hs := &http.Server{Handler: node.Handler()}
		go hs.Serve(lns[i]) //nolint:errcheck // closed on kill/cleanup
		node.Start()
		tn := &testNode{addr: addrs[i], srv: srv, node: node, hs: hs, ln: lns[i], dir: dir}
		t.Cleanup(tn.kill)
		nodes[i] = tn
	}
	return nodes
}

// byAddr resolves a node by its advertised address.
func byAddr(t *testing.T, nodes []*testNode, addr string) *testNode {
	t.Helper()
	for _, tn := range nodes {
		if tn.addr == addr {
			return tn
		}
	}
	t.Fatalf("no node with address %s", addr)
	return nil
}

// ownerChain asks the ring for a key's replica owner chain.
func ownerChain(t *testing.T, tn *testNode, key string) []string {
	t.Helper()
	var ring struct {
		Owners []string `json:"owners"`
	}
	if code, _ := getJSON(t, tn.url()+"/cluster/v1/ring?key="+key, &ring); code != http.StatusOK {
		t.Fatalf("ring lookup: %d", code)
	}
	if len(ring.Owners) < 2 {
		t.Fatalf("owner chain too short: %v", ring.Owners)
	}
	return ring.Owners
}

// digestsOf fetches a node's persisted digest map.
func digestsOf(t *testing.T, tn *testNode) map[string]string {
	t.Helper()
	var digests map[string]string
	if code, _ := getJSON(t, tn.url()+"/cluster/v1/digests", &digests); code != http.StatusOK {
		t.Fatalf("digests on %s: %d", tn.addr, code)
	}
	return digests
}

// waitReplica polls until tn holds an intact replica of key.
func waitReplica(t *testing.T, tn *testNode, key string, d time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if sum := digestsOf(t, tn)[key]; sum != "" {
			return sum
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica of %.12s never reached %s", key, tn.addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// clusterSection decodes the cluster block of a node's /v1/stats.
func clusterSection(t *testing.T, tn *testNode) serve.ClusterStats {
	t.Helper()
	var stats struct {
		Cluster *serve.ClusterStats `json:"cluster"`
	}
	if code, _ := getJSON(t, tn.url()+"/v1/stats", &stats); code != http.StatusOK || stats.Cluster == nil {
		t.Fatalf("stats on %s: code=%d cluster=%v", tn.addr, code, stats.Cluster)
	}
	return *stats.Cluster
}

// TestClusterReplicationToSuccessor: a completed result replicates
// asynchronously to the key's next ring successor, which then serves it
// from its own store over the peer-result endpoint.
func TestClusterReplicationToSuccessor(t *testing.T) {
	nodes := startDurableCluster(t, 3)
	jr := postJob(t, nodes[0].url(), submission(4, 31), nil)
	mustDone(t, jr, "submission")

	owners := ownerChain(t, nodes[0], jr.Digest)
	if owners[0] != jr.node {
		t.Fatalf("job ran on %s but the ring owner is %s", jr.node, owners[0])
	}
	successor := byAddr(t, nodes, owners[1])
	ownerSum := digestsOf(t, byAddr(t, nodes, owners[0]))[jr.Digest]
	if ownerSum == "" {
		t.Fatal("owner has no persisted result for its own job")
	}
	replicaSum := waitReplica(t, successor, jr.Digest, 10*time.Second)
	if replicaSum != ownerSum {
		t.Fatalf("replica digest %.12s differs from the owner's %.12s", replicaSum, ownerSum)
	}
	// The owner counts the push when the successor's reply arrives,
	// which can be after the replica is already visible there.
	owner := byAddr(t, nodes, owners[0])
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		cs := clusterSection(t, owner)
		if cs.Replications > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner counted no replications: %+v", cs)
		}
	}
	// The successor serves the replica from its segment (it never
	// executed the job, so only the store can answer).
	resp, err := http.Get(successor.url() + "/cluster/v1/results/" + jr.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("successor result endpoint: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Optiwise-Checksum"); got != ownerSum {
		t.Errorf("served replica checksum %.12s, want %.12s", got, ownerSum)
	}
	if jobs := successor.srv.Stats().Jobs; jobs != 0 {
		t.Errorf("successor executed %d jobs; replication must move bytes, not work", jobs)
	}
}

// TestClusterFailedReplicationRepairedByAntiEntropy: when the replica
// push fails it only logs; the next anti-entropy pass (with the fault
// lifted) delivers the result to the successor.
func TestClusterFailedReplicationRepairedByAntiEntropy(t *testing.T) {
	nodes := startDurableCluster(t, 2)
	plan, err := fault.Parse("cluster.replicate:error:msg=replica wire down")
	if err != nil {
		t.Fatal(err)
	}
	fault.Set(plan)
	defer fault.Set(nil)

	jr := postJob(t, nodes[0].url(), submission(5, 32), nil)
	mustDone(t, jr, "submission")
	owner := byAddr(t, nodes, jr.node)

	deadline := time.Now().Add(10 * time.Second)
	for plan.Fired() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replication was never attempted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	successor := byAddr(t, nodes, ownerChain(t, owner, jr.Digest)[1])
	if sum := digestsOf(t, successor)[jr.Digest]; sum != "" {
		t.Fatal("replica arrived while the wire was down")
	}

	// Wire restored: one pass delivers the missing replica.
	fault.Set(nil)
	owner.node.AntiEntropyNow()
	if sum := digestsOf(t, successor)[jr.Digest]; sum == "" {
		t.Fatal("anti-entropy did not deliver the replica")
	}
	if cs := clusterSection(t, owner); cs.Replications == 0 {
		t.Errorf("anti-entropy delivery not counted as a replication: %+v", cs)
	}
}

// TestClusterAntiEntropyRepairsDivergence corrupts, then deletes, the
// successor's replica segment and requires a single anti-entropy pass
// to repair it from the owner each time — checksum-verified and without
// recomputation.
func TestClusterAntiEntropyRepairsDivergence(t *testing.T) {
	nodes := startDurableCluster(t, 3)
	jr := postJob(t, nodes[0].url(), submission(6, 33), nil)
	mustDone(t, jr, "submission")

	owners := ownerChain(t, nodes[0], jr.Digest)
	successor := byAddr(t, nodes, owners[1])
	ownerSum := waitReplica(t, byAddr(t, nodes, owners[0]), jr.Digest, 10*time.Second)
	waitReplica(t, successor, jr.Digest, 10*time.Second)
	seg := filepath.Join(successor.dir, "results", jr.Digest+".owpr")

	damage := []struct {
		name    string
		inflict func() error
	}{
		{"corrupt", func() error {
			data, err := os.ReadFile(seg)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0xff
			return os.WriteFile(seg, data, 0o644)
		}},
		{"missing", func() error { return os.Remove(seg) }},
	}
	for i, d := range damage {
		if err := d.inflict(); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if sum := digestsOf(t, successor)[jr.Digest]; sum == ownerSum {
			t.Fatalf("%s: damage not visible in the digest map", d.name)
		}
		successor.node.AntiEntropyNow()
		if sum := digestsOf(t, successor)[jr.Digest]; sum != ownerSum {
			t.Fatalf("%s: replica not repaired in one pass (digest %.12s, want %.12s)",
				d.name, sum, ownerSum)
		}
		if cs := clusterSection(t, successor); cs.AntiEntropyRepairs != uint64(i+1) {
			t.Errorf("%s: antientropy_repairs = %d, want %d", d.name, cs.AntiEntropyRepairs, i+1)
		}
	}
	if jobs := successor.srv.Stats().Jobs; jobs != 0 {
		t.Errorf("repair recomputed: successor ran %d jobs", jobs)
	}
}

// TestReplicaIngestRejectsBadPayloads: the replica endpoint refuses a
// checksum mismatch and a well-framed payload without export tables,
// and non-durable nodes refuse the protocol outright.
func TestReplicaIngestRejectsBadPayloads(t *testing.T) {
	nodes := startDurableCluster(t, 1)
	// A well-formed key, so each payload reaches the gate it is meant
	// to fail; the error body names which gate that was.
	url := nodes[0].url() + "/cluster/v1/replicas/" + strings.Repeat("feedface", 8)

	post := func(payload []byte, checksum string) (int, string) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Optiwise-Checksum", checksum)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body) //nolint:errcheck // a short body fails the match below
		return resp.StatusCode, string(body)
	}
	if code, body := post(resultPayload(t), "0000"); code != http.StatusBadRequest || !strings.Contains(body, "checksum mismatch") {
		t.Errorf("checksum mismatch: %d %s, want 400 naming the checksum", code, body)
	}
	empty, err := (&serve.WireResult{}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if code, body := post(empty, serve.WireChecksum(empty)); code != http.StatusBadRequest || !strings.Contains(body, "missing export tables") {
		t.Errorf("payload without export tables: %d %s, want 400 naming the missing tables", code, body)
	}
	if digests := digestsOf(t, nodes[0]); len(digests) != 0 {
		t.Errorf("rejected payloads reached the store: %v", digests)
	}

	plain := startCluster(t, 1)
	resp, err := http.Post(plain[0].url()+"/cluster/v1/replicas/abc", "application/json",
		bytes.NewReader(empty))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("non-durable node accepted a replica: %d", resp.StatusCode)
	}
}

// TestClusterIndependentComputationsAgree: a payload depends on the
// result alone, so two nodes that compute one key independently hold
// byte-identical segments. Their digests are equal, which is the
// condition under which anti-entropy finds nothing to report.
func TestClusterIndependentComputationsAgree(t *testing.T) {
	nodes := startDurableCluster(t, 2)
	// No replica push and no peer fetch: each node must simulate.
	plan, err := fault.Parse("cluster.replicate:error; cluster.peer.fetch:error")
	if err != nil {
		t.Fatal(err)
	}
	fault.Set(plan)
	defer fault.Set(nil)

	body := submission(7, 35)
	var digest string
	for _, tn := range nodes {
		jr := postJob(t, tn.url(), body, map[string]string{"X-Optiwise-Forwarded": "test"})
		mustDone(t, jr, "submission on "+tn.addr)
		if jr.Cached || jr.PeerFetched {
			t.Fatalf("%s did not compute the key itself: %+v", tn.addr, jr)
		}
		digest = jr.Digest
	}
	a, b := digestsOf(t, nodes[0])[digest], digestsOf(t, nodes[1])[digest]
	if a == "" || a != b {
		t.Errorf("independent computations stored digests %.12s and %.12s", a, b)
	}
}
