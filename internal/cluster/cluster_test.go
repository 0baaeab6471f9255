package cluster_test

// End-to-end cluster tests: real serve.Servers behind real HTTP
// listeners, wrapped by cluster.Node handlers, probing each other over
// loopback. They cover the routed submission path (consistent-hash
// ownership, cross-frontend dedup), the peer-aware result cache, job
// lookup proxying, node-loss failover, and the cluster sections of
// /v1/stats and /readyz.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"optiwise/internal/cluster"
	"optiwise/internal/serve"
)

// testNode is one running cluster member: server, node, listener.
type testNode struct {
	addr string
	srv  *serve.Server
	node *cluster.Node
	hs   *http.Server
	ln   net.Listener
	dir  string // data dir (durable nodes only; see replicate_test.go)
}

func (tn *testNode) url() string { return "http://" + tn.addr }

// kill makes the node drop off the network abruptly (listener closed,
// probe target gone) — the "node loss" the cluster must absorb.
func (tn *testNode) kill() {
	tn.hs.Close() //nolint:errcheck
	tn.node.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tn.srv.Shutdown(ctx) //nolint:errcheck
}

// startCluster boots n symmetric nodes on loopback, each
// seeded with every sibling's address, with a fast probe cadence so
// membership converges inside test timescales.
func startCluster(t *testing.T, n int) []*testNode {
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
		nodes[i] = startNode(t, lns[i], addrs[i], peers)
	}
	return nodes
}

func startNode(t *testing.T, ln net.Listener, addr string, peers []string) *testNode {
	t.Helper()
	srv := serve.New(serve.Config{
		Workers:        2,
		DefaultTimeout: 30 * time.Second,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  4 * time.Millisecond,
	})
	node, err := cluster.New(cluster.Config{
		Self:          addr,
		Peers:         peers,
		ProbeInterval: 50 * time.Millisecond,
	}, srv)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	srv.Start()
	hs := &http.Server{Handler: node.Handler()}
	go hs.Serve(ln) //nolint:errcheck // closed on kill/cleanup
	node.Start()
	tn := &testNode{addr: addr, srv: srv, node: node, hs: hs, ln: ln}
	t.Cleanup(tn.kill)
	return tn
}

// clusterProg is a small deterministic workload; trips varies the
// program (and therefore the job key).
func clusterProg(trips int) string {
	return fmt.Sprintf(`
.module cjob
.text
.func main
main:
    li s1, %d
loop:
    li t0, 12
kern:
    mul t1, t0, t0
    addi t0, t0, -1
    bnez t0, kern
    addi s1, s1, -1
    bnez s1, loop
    li a0, 0
    li a7, 93
    syscall
.endfunc
`, trips)
}

// submission builds the POST /v1/jobs body for a clusterProg variant.
// randSeed differentiates otherwise identical programs (it is part of
// the canonical job key).
func submission(trips int, randSeed uint64) map[string]any {
	return map[string]any{
		"module":     "cjob",
		"source":     clusterProg(trips),
		"options":    map[string]any{"rand_seed": randSeed},
		"wait":       true,
		"timeout_ms": 30_000,
	}
}

// jobReply is the decoded submission / status response plus the
// X-Optiwise-Node header naming the node that handled it.
type jobReply struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Digest      string `json:"digest"`
	Cached      bool   `json:"cached"`
	Coalesced   bool   `json:"coalesced"`
	PeerFetched bool   `json:"peer_fetched"`
	node        string
	status      int
}

func postJob(t *testing.T, url string, body map[string]any, hdr map[string]string) jobReply {
	t.Helper()
	jr, err := tryPostJob(url, body, hdr)
	if err != nil {
		t.Fatal(err)
	}
	return jr
}

// tryPostJob is postJob for a client goroutine, which must not stop
// the test itself: it returns the failure instead.
func tryPostJob(url string, body map[string]any, hdr map[string]string) (jobReply, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return jobReply{}, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		return jobReply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return jobReply{}, fmt.Errorf("POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	var jr jobReply
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&jr); err != nil {
		return jobReply{}, fmt.Errorf("decode submission response: %w", err)
	}
	jr.node = resp.Header.Get("X-Optiwise-Node")
	jr.status = resp.StatusCode
	return jr, nil
}

func mustDone(t *testing.T, jr jobReply, what string) {
	t.Helper()
	if jr.status != http.StatusOK || jr.State != "done" {
		t.Fatalf("%s: status=%d state=%q", what, jr.status, jr.State)
	}
}

// getJSON fetches url and decodes the body into v, returning the
// response status and X-Optiwise-Node header.
func getJSON(t *testing.T, url string, v any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck
	}
	return resp.StatusCode, resp.Header.Get("X-Optiwise-Node")
}

// TestClusterRoutingDistributes submits a spread of distinct keys
// through one frontend and checks that ownership lands on more than
// one node (ring balance) and that routing is deterministic: the same
// submission always reaches the same node.
func TestClusterRoutingDistributes(t *testing.T) {
	nodes := startCluster(t, 3)
	front := nodes[0].url()

	owners := make(map[string]string) // digest -> node
	byNode := make(map[string]int)
	for seed := uint64(1); seed <= 18; seed++ {
		jr := postJob(t, front, submission(3, seed), nil)
		mustDone(t, jr, fmt.Sprintf("seed %d", seed))
		if jr.node == "" {
			t.Fatalf("seed %d: missing X-Optiwise-Node header", seed)
		}
		owners[jr.Digest] = jr.node
		byNode[jr.node]++
	}
	if len(byNode) < 2 {
		t.Fatalf("18 distinct keys all landed on one node: %v", byNode)
	}
	// Resubmit a few through a different frontend: same key, same owner.
	for seed := uint64(1); seed <= 6; seed++ {
		jr := postJob(t, nodes[1].url(), submission(3, seed), nil)
		mustDone(t, jr, fmt.Sprintf("resubmit seed %d", seed))
		if owners[jr.Digest] != jr.node {
			t.Errorf("seed %d: owner moved %s -> %s with a stable ring",
				seed, owners[jr.Digest], jr.node)
		}
	}
}

// TestClusterDuplicatesComputeOnce drives concurrent clients on every
// frontend of a 3-node cluster with a ~50% duplicate ratio: every other
// submission reuses one of a few shared keys, the rest are fresh. The
// first round sends every shared key through every frontend at once, and
// jobs run long enough that duplicates meet the first run in flight.
// Every job must succeed, and each key must compute exactly once
// cluster-wide, on the one node that owns it: all its other responses
// come from the cache, a coalesced in-flight job, or a peer fetch.
func TestClusterDuplicatesComputeOnce(t *testing.T) {
	nodes := startCluster(t, 3)

	const (
		perFront  = 3 // concurrent clients on each frontend
		perClient = 4 // submissions per client, alternating shared and fresh
		shared    = 3 // keys in the shared pool
	)
	var mu sync.Mutex
	var replies []jobReply
	var wg sync.WaitGroup
	start := make(chan struct{}) // release every client at once
	for f, tn := range nodes {
		for c := 0; c < perFront; c++ {
			client := f*perFront + c
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				<-start
				for k := 0; k < perClient; k++ {
					seed := uint64(1000 + client*perClient + k) // fresh
					if k%2 == 0 {
						seed = uint64(1 + (client+k/2)%shared)
					}
					jr, err := tryPostJob(url, submission(2000, seed), nil)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					replies = append(replies, jr)
					mu.Unlock()
				}
			}(tn.url())
		}
	}
	close(start)
	wg.Wait()

	computed := make(map[string]int)  // digest -> computations
	owners := make(map[string]string) // digest -> serving node
	for i, jr := range replies {
		mustDone(t, jr, fmt.Sprintf("submission %d", i))
		if o, ok := owners[jr.Digest]; ok && o != jr.node {
			t.Errorf("key %.12s served by %s and %s, want one owner", jr.Digest, o, jr.node)
		}
		owners[jr.Digest] = jr.node
		if !jr.Cached && !jr.Coalesced && !jr.PeerFetched {
			computed[jr.Digest]++
		}
	}
	if want := len(nodes)*perFront*perClient/2 + shared; len(owners) != want {
		t.Fatalf("%d distinct keys, want %d", len(owners), want)
	}
	for d := range owners {
		if computed[d] != 1 {
			t.Errorf("key %.12s computed %d times, want exactly 1", d, computed[d])
		}
	}
}

// TestClusterPeerFetch forces a non-owner to execute a key whose
// result the owner already holds — the stale-ring/failover situation —
// and requires the result to arrive via the peer cache, not a
// recomputation.
func TestClusterPeerFetch(t *testing.T) {
	nodes := startCluster(t, 2)
	body := submission(5, 7)

	first := postJob(t, nodes[0].url(), body, nil)
	mustDone(t, first, "first submission")
	owner := first.node

	// Find the node that does NOT own the key and hand it the same
	// submission pre-marked as forwarded: it must execute locally (the
	// loop-prevention contract) and should satisfy the job from the
	// owner's cache.
	var other *testNode
	for _, tn := range nodes {
		if tn.addr != owner {
			other = tn
		}
	}
	if other == nil {
		t.Fatalf("both nodes claim address %s", owner)
	}
	second := postJob(t, other.url(), body, map[string]string{"X-Optiwise-Forwarded": "test"})
	mustDone(t, second, "forwarded duplicate")
	if second.node != other.addr {
		t.Fatalf("forwarded submission was re-routed to %s (loop!)", second.node)
	}
	if !second.PeerFetched {
		t.Fatalf("duplicate on non-owner: peer_fetched=false (cached=%v coalesced=%v)",
			second.Cached, second.Coalesced)
	}

	var stats struct {
		JobsPeerFetched uint64 `json:"jobs_peer_fetched"`
		Cluster         *struct {
			PeerFetchHits uint64 `json:"peer_fetch_hits"`
		} `json:"cluster"`
	}
	if code, _ := getJSON(t, other.url()+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.JobsPeerFetched == 0 || stats.Cluster == nil || stats.Cluster.PeerFetchHits == 0 {
		t.Errorf("fetcher counters not incremented: %+v", stats)
	}
	var ownerStats struct {
		Cluster *struct {
			PeerServed uint64 `json:"peer_results_served"`
		} `json:"cluster"`
	}
	getJSON(t, "http://"+owner+"/v1/stats", &ownerStats)
	if ownerStats.Cluster == nil || ownerStats.Cluster.PeerServed == 0 {
		t.Errorf("owner never counted a served peer result: %+v", ownerStats)
	}
}

// TestClusterLookupProxy submits through one frontend and then asks a
// node that neither routed nor ran the job for its status and report —
// the fan-out locate plus proxy path.
func TestClusterLookupProxy(t *testing.T) {
	nodes := startCluster(t, 3)
	jr := postJob(t, nodes[0].url(), submission(6, 11), nil)
	mustDone(t, jr, "submission")

	var bystander *testNode
	for _, tn := range nodes[1:] {
		if tn.addr != jr.node {
			bystander = tn
			break
		}
	}
	if bystander == nil {
		t.Fatal("no bystander node")
	}
	var st jobReply
	code, from := getJSON(t, bystander.url()+"/v1/jobs/"+jr.ID, &st)
	if code != http.StatusOK || st.State != "done" {
		t.Fatalf("proxied status: code=%d state=%q", code, st.State)
	}
	if from != jr.node {
		t.Errorf("status answered by %s, want the running node %s", from, jr.node)
	}
	if code, _ := getJSON(t, bystander.url()+"/v1/jobs/"+jr.ID+"/report", nil); code != http.StatusOK {
		t.Errorf("proxied report: %d", code)
	}
	if code, _ := getJSON(t, bystander.url()+"/v1/jobs/does-not-exist", nil); code != http.StatusNotFound {
		t.Errorf("unknown job via proxy path: %d, want 404", code)
	}
}

// TestClusterNodeLossFailover kills one node and requires that (a)
// submissions through a surviving frontend keep succeeding immediately
// — forward failover, before membership even notices — and (b) the
// ring heals to the survivor set, after which work lands only on
// survivors.
func TestClusterNodeLossFailover(t *testing.T) {
	nodes := startCluster(t, 3)
	front := nodes[0]

	// Seed a few completed jobs so the survivors have state to keep.
	pre := postJob(t, front.url(), submission(7, 21), nil)
	mustDone(t, pre, "pre-kill job")

	// Kill a node that did NOT run the pre-kill job: that job's state
	// must survive the loss.
	victim := nodes[2]
	if pre.node == victim.addr {
		victim = nodes[1]
	}
	victim.kill()

	// Immediately after the kill the ring still lists the dead node;
	// forwards to it must fail over, not fail.
	for seed := uint64(100); seed < 112; seed++ {
		jr := postJob(t, front.url(), submission(7, seed), nil)
		mustDone(t, jr, fmt.Sprintf("post-kill seed %d", seed))
		if jr.node == victim.addr {
			t.Fatalf("seed %d answered by the killed node", seed)
		}
	}

	// Membership converges: the dead node leaves the ring.
	deadline := time.Now().Add(10 * time.Second)
	for front.node.Ring().Size() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("ring never shrank to 2 (size %d)", front.node.Ring().Size())
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Pre-kill jobs on survivors are still there.
	var st jobReply
	if code, _ := getJSON(t, front.url()+"/v1/jobs/"+pre.ID, &st); code != http.StatusOK {
		t.Errorf("pre-kill job lost after node loss: %d", code)
	}

	var failStats struct {
		Cluster *struct {
			ForwardFailovers uint64 `json:"forward_failovers"`
		} `json:"cluster"`
	}
	getJSON(t, front.url()+"/v1/stats", &failStats)
	if failStats.Cluster == nil {
		t.Fatal("stats lost its cluster section")
	}
}

// TestClusterStatsAndReadyz checks the cluster fields satellites: the
// /v1/stats cluster section and the /readyz cluster annotations.
func TestClusterStatsAndReadyz(t *testing.T) {
	nodes := startCluster(t, 3)

	var stats struct {
		Cluster *serve.ClusterStats `json:"cluster"`
	}
	code, _ := getJSON(t, nodes[0].url()+"/v1/stats", &stats)
	if code != http.StatusOK || stats.Cluster == nil {
		t.Fatalf("stats: code=%d cluster=%v", code, stats.Cluster)
	}
	c := stats.Cluster
	if c.Self != nodes[0].addr {
		t.Errorf("identity: self=%q", c.Self)
	}
	if c.RingSize != 3 || c.PeersLive != 2 || c.PeersSuspect != 0 || c.PeersDead != 0 {
		t.Errorf("membership: ring=%d live=%d suspect=%d dead=%d, want 3/2/0/0",
			c.RingSize, c.PeersLive, c.PeersSuspect, c.PeersDead)
	}

	var ready map[string]any
	code, _ = getJSON(t, nodes[0].url()+"/readyz", &ready)
	if code != http.StatusOK {
		t.Fatalf("readyz: %d", code)
	}
	for _, field := range []string{"ring_size", "peers_live", "peers_suspect"} {
		if _, ok := ready[field]; !ok {
			t.Errorf("readyz missing cluster field %q (got %v)", field, ready)
		}
	}
	if _, ok := ready["role"]; ok {
		t.Errorf("readyz still reports a cluster role: %v", ready)
	}

	// The ring endpoint resolves ownership for a named key — the CI
	// smoke job leans on this.
	var ring struct {
		Self    string   `json:"self"`
		Size    int      `json:"size"`
		Members []string `json:"members"`
		Owner   string   `json:"owner"`
		Owners  []string `json:"owners"`
	}
	code, _ = getJSON(t, nodes[1].url()+"/cluster/v1/ring?key=abc123", &ring)
	if code != http.StatusOK || ring.Size != 3 || len(ring.Members) != 3 {
		t.Fatalf("ring endpoint: code=%d %+v", code, ring)
	}
	if ring.Owner == "" || len(ring.Owners) == 0 || ring.Owners[0] != ring.Owner {
		t.Errorf("ring ownership chain malformed: %+v", ring)
	}
	// Every node resolves the same owner for the same key.
	var ring0 struct {
		Owner string `json:"owner"`
	}
	getJSON(t, nodes[0].url()+"/cluster/v1/ring?key=abc123", &ring0)
	if ring0.Owner != ring.Owner {
		t.Errorf("nodes disagree on ownership: %q vs %q", ring0.Owner, ring.Owner)
	}
}

// TestClusterForwardedHeaderNeverLoops floods one frontend with keys
// owned elsewhere while a sibling does the same, and checks that no
// response ever reports a node other than the forwarded-to owner — a
// smoke check that hdrForwarded stops re-routing (a loop would also
// hang the test).
func TestClusterForwardedHeaderNeverLoops(t *testing.T) {
	nodes := startCluster(t, 3)
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for f := 0; f < 2; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for seed := uint64(0); seed < 8; seed++ {
				jr, err := tryPostJob(nodes[f].url(), submission(3, 200+seed), nil)
				if err != nil {
					errs <- fmt.Sprintf("front %d seed %d: %v", f, seed, err)
				} else if jr.status != http.StatusOK || jr.State != "done" {
					errs <- fmt.Sprintf("front %d seed %d: status=%d state=%q", f, seed, jr.status, jr.State)
				}
			}
		}(f)
	}
	wg.Wait()
	close(errs)
	var all []string
	for e := range errs {
		all = append(all, e)
	}
	if len(all) > 0 {
		t.Fatalf("routed submissions failed:\n%s", strings.Join(all, "\n"))
	}
}
