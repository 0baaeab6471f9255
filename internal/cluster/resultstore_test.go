package cluster_test

// The cluster as the result store's ring tier: a non-owner is served
// from the owner's disk tier, group dedup leaves one ring fetch per key
// per node, and the result endpoints accept only job-digest keys.

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"optiwise"
	"optiwise/internal/cluster"
	"optiwise/internal/fault"
	"optiwise/internal/serve"
)

// resultPayload is a real result's wire payload, as a node would push
// it: clusterProg profiled and encoded by the result store's codec.
func resultPayload(t *testing.T) []byte {
	t.Helper()
	prog, err := optiwise.Assemble("cjob", clusterProg(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := optiwise.Profile(prog, optiwise.Options{SamplePeriod: 300})
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := serve.EncodeWireResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// nonOwner returns a node other than the one at addr.
func nonOwner(t *testing.T, nodes []*testNode, addr string) *testNode {
	t.Helper()
	for _, tn := range nodes {
		if tn.addr != addr {
			return tn
		}
	}
	t.Fatalf("every node claims address %s", addr)
	return nil
}

// exportOf fetches a job's JSON export through the node that ran it.
func exportOf(t *testing.T, tn *testNode, id string) []byte {
	t.Helper()
	resp, err := http.Get(tn.url() + "/v1/jobs/" + id + "/report?kind=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export of %s: %d %v", id, resp.StatusCode, err)
	}
	return body
}

// TestClusterPeerFetchFromOwnerDisk: with the memory tier too small to
// hold anything and every replica push failing, a forwarded duplicate
// on the non-owner can only be served from the owner's result segment —
// and its export is byte-identical to the owner's.
func TestClusterPeerFetchFromOwnerDisk(t *testing.T) {
	nodes := startDurableClusterWith(t, 2, func(sc *serve.Config, _ *cluster.Config) {
		sc.CacheBytes = 1
	})
	plan, err := fault.Parse("cluster.replicate:error:msg=replica wire down")
	if err != nil {
		t.Fatal(err)
	}
	fault.Set(plan)
	defer fault.Set(nil)
	body := submission(5, 41)
	first := postJob(t, nodes[0].url(), body, nil)
	mustDone(t, first, "first submission")
	owner := byAddr(t, nodes, first.node)
	if n := owner.srv.Stats().CacheEntries; n != 0 {
		t.Fatalf("owner memory tier holds %d entries under a 1-byte budget", n)
	}

	other := nonOwner(t, nodes, owner.addr)
	second := postJob(t, other.url(), body, map[string]string{"X-Optiwise-Forwarded": "test"})
	mustDone(t, second, "forwarded duplicate")
	if !second.PeerFetched {
		t.Fatalf("duplicate on non-owner: peer_fetched=false (cached=%v coalesced=%v)",
			second.Cached, second.Coalesced)
	}
	if cs := clusterSection(t, owner); cs.PeerServed != 1 {
		t.Errorf("owner served %d peer results, want 1", cs.PeerServed)
	}
	if !bytes.Equal(exportOf(t, other, second.ID), exportOf(t, owner, first.ID)) {
		t.Error("peer-fetched export differs from the owner's")
	}
}

// TestClusterConcurrentDuplicatesFetchOnce: concurrent identical
// forwarded submissions on a non-owner collapse onto one execution
// group, so the ring is asked exactly once.
func TestClusterConcurrentDuplicatesFetchOnce(t *testing.T) {
	nodes := startCluster(t, 2)
	body := submission(6, 42)
	first := postJob(t, nodes[0].url(), body, nil)
	mustDone(t, first, "first submission")
	other := nonOwner(t, nodes, first.node)

	const dups = 8
	var wg sync.WaitGroup
	replies := make([]jobReply, dups)
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jr, err := tryPostJob(other.url(), body, map[string]string{"X-Optiwise-Forwarded": "test"})
			if err != nil {
				t.Errorf("duplicate %d: %v", i, err)
			}
			replies[i] = jr
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, jr := range replies {
		mustDone(t, jr, fmt.Sprintf("duplicate %d", i))
	}
	cs := clusterSection(t, other)
	if got := cs.PeerFetchHits + cs.PeerFetchMisses; got != 1 {
		t.Errorf("non-owner asked the ring %d times for one key (hits %d, misses %d), want 1",
			got, cs.PeerFetchHits, cs.PeerFetchMisses)
	}
}

// TestClusterResultKeysMustBeDigests: the result endpoints unescape
// their {digest} path segment, so a key like "../programs/x" must be
// refused before it can name a file — nothing may land outside
// results/. Well-formed keys still reach the checksum gate.
func TestClusterResultKeysMustBeDigests(t *testing.T) {
	nodes := startDurableCluster(t, 1)
	payload := resultPayload(t)
	sum := serve.WireChecksum(payload)

	do := func(method, path string, body []byte, checksum string) int {
		req, err := http.NewRequest(method, nodes[0].url()+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Optiwise-Checksum", checksum)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, key := range []string{"..%2Fprograms%2Fx", "..%2F..%2Fescaped", "..%2Fx", strings.Repeat("AB", 32)} {
		if code := do(http.MethodPost, "/cluster/v1/replicas/"+key, payload, sum); code != http.StatusBadRequest {
			t.Errorf("POST replica %q: %d, want 400", key, code)
		}
		if code := do(http.MethodGet, "/cluster/v1/results/"+key, nil, ""); code != http.StatusBadRequest {
			t.Errorf("GET result %q: %d, want 400", key, code)
		}
	}
	var stray []string
	filepath.WalkDir(filepath.Dir(nodes[0].dir), func(path string, d fs.DirEntry, err error) error { //nolint:errcheck
		if err == nil && !d.IsDir() && filepath.Base(filepath.Dir(path)) != "results" &&
			(strings.HasSuffix(path, ".owpr") || strings.Contains(path, "escaped")) {
			stray = append(stray, path)
		}
		return nil
	})
	if len(stray) > 0 {
		t.Errorf("payloads written outside results/: %v", stray)
	}

	key := strings.Repeat("ab", 32)
	if code := do(http.MethodPost, "/cluster/v1/replicas/"+key, payload, "0000"); code != http.StatusBadRequest {
		t.Errorf("checksum mismatch on a well-formed key: %d, want 400", code)
	}
	if code := do(http.MethodGet, "/cluster/v1/results/"+key, nil, ""); code != http.StatusNotFound {
		t.Errorf("GET unknown well-formed key: %d, want 404", code)
	}
	if code := do(http.MethodPost, "/cluster/v1/replicas/"+key, payload, sum); code != http.StatusOK {
		t.Errorf("well-formed replica: %d, want 200", code)
	}
	if digests := digestsOf(t, nodes[0]); len(digests) != 1 || digests[key] != sum {
		t.Errorf("digest map = %v, want only %.12s", digests, key)
	}
}
