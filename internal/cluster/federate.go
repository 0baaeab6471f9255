package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"optiwise/internal/obs"
)

// Federated metrics (DESIGN.md §14). Any node answers
// GET /cluster/v1/metrics with the whole cluster's registries merged
// into one exposition: it scrapes every known peer's
// /cluster/v1/metrics/local JSON snapshot, labels each sample with its
// origin node, and serves the union. The scrape is single-flight with
// a staleness budget — concurrent dashboard tabs and Prometheus both
// ride one scrape per budget window — and a peer that cannot answer
// within the per-peer deadline is served from its last-known snapshot
// with a stale marker (and optiwise_node_up 0) rather than blocking or
// vanishing from the exposition.

// federationStaleness is how long a merged scrape stays fresh; requests
// inside the window share the previous result.
const federationStaleness = 1 * time.Second

// federationPeerTimeout bounds one peer's local-snapshot fetch. A peer
// slower than this is served stale; the merged answer never waits
// longer than this plus encoding time.
const federationPeerTimeout = 800 * time.Millisecond

// federator owns the single-flight scrape state and the last-known
// per-peer snapshots.
type federator struct {
	n *Node

	mu        sync.Mutex
	merged    []obs.NodeSnapshot // last merged scrape, sorted by node
	mergedAt  time.Time
	inflight  chan struct{} // non-nil while a scrape runs
	lastKnown map[string]obs.RegistrySnapshot

	scrapes  *obs.CounterMetric
	failures *obs.CounterMetric
}

func newFederator(n *Node) *federator {
	return &federator{
		n:         n,
		lastKnown: make(map[string]obs.RegistrySnapshot),
		scrapes:   obs.Counter(obs.MClusterFederationScrapes),
		failures:  obs.Counter(obs.MClusterFederationFailures),
	}
}

// snapshots returns the merged cluster view, scraping at most once per
// staleness budget. Followers that arrive while a scrape runs wait for
// it rather than launching their own.
func (f *federator) snapshots(ctx context.Context) []obs.NodeSnapshot {
	for {
		f.mu.Lock()
		if time.Since(f.mergedAt) < federationStaleness && f.merged != nil {
			out := f.merged
			f.mu.Unlock()
			return out
		}
		if f.inflight != nil {
			done := f.inflight
			f.mu.Unlock()
			select {
			case <-done:
				continue // re-check freshness; the leader just filled it
			case <-ctx.Done():
				f.mu.Lock()
				out := f.merged
				f.mu.Unlock()
				return out
			}
		}
		done := make(chan struct{})
		f.inflight = done
		f.mu.Unlock()

		merged := f.scrape(ctx)

		f.mu.Lock()
		f.merged = merged
		f.mergedAt = time.Now()
		f.inflight = nil
		f.mu.Unlock()
		close(done)
		return merged
	}
}

// scrape assembles one merged view: self synchronously, every known
// peer concurrently under the per-peer deadline.
func (f *federator) scrape(ctx context.Context) []obs.NodeSnapshot {
	snap := f.n.mem.snapshot()
	out := make([]obs.NodeSnapshot, 1+len(snap.addrs))
	out[0] = obs.NodeSnapshot{
		Node:            f.n.cfg.Self,
		FetchedUnixNano: time.Now().UnixNano(),
		Snapshot:        obs.ActiveRegistry().FullSnapshot(),
	}
	var wg sync.WaitGroup
	for i, addr := range snap.addrs {
		if addr == f.n.cfg.Self {
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			out[i+1] = f.scrapePeer(ctx, addr)
		}(i, addr)
	}
	wg.Wait()
	// Drop the hole left if self appeared in the peer list.
	merged := out[:0]
	for _, ns := range out {
		if ns.Node != "" {
			merged = append(merged, ns)
		}
	}
	return merged
}

// scrapePeer fetches one peer's local snapshot, falling back to the
// last-known copy (marked stale) when the peer cannot answer in time.
// Every fetch counts once as a scrape and, if it fails, once as a
// failure, so failures/scrapes is the per-peer failure rate.
func (f *federator) scrapePeer(ctx context.Context, addr string) obs.NodeSnapshot {
	f.scrapes.Inc()
	ctx, cancel := context.WithTimeout(ctx, federationPeerTimeout)
	defer cancel()
	reg, err := f.fetchLocal(ctx, addr)
	if err == nil {
		f.mu.Lock()
		f.lastKnown[addr] = reg
		f.mu.Unlock()
		return obs.NodeSnapshot{
			Node:            addr,
			FetchedUnixNano: time.Now().UnixNano(),
			Snapshot:        reg,
		}
	}
	f.failures.Inc()
	f.mu.Lock()
	last, ok := f.lastKnown[addr]
	f.mu.Unlock()
	if !ok {
		// Never answered: the node still appears in the exposition, as a
		// bare optiwise_node_up 0 row.
		return obs.NodeSnapshot{Node: addr, Stale: true}
	}
	return obs.NodeSnapshot{Node: addr, Stale: true, Snapshot: last}
}

// fetchLocal pulls one peer's own registry snapshot.
func (f *federator) fetchLocal(ctx context.Context, addr string) (obs.RegistrySnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+addr+"/cluster/v1/metrics/local", nil)
	if err != nil {
		return obs.RegistrySnapshot{}, err
	}
	resp, err := f.n.client.Do(req)
	if err != nil {
		return obs.RegistrySnapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for reuse
		return obs.RegistrySnapshot{}, fmt.Errorf("cluster: peer %s answered %s", addr, resp.Status)
	}
	var reg obs.RegistrySnapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&reg); err != nil {
		return obs.RegistrySnapshot{}, err
	}
	return reg, nil
}

// handleFederated serves GET /cluster/v1/metrics: the merged,
// node-labeled exposition. Prometheus text format by default,
// OpenMetrics under the same content negotiation as /v1/metrics, and
// ?format=json for the dashboard's structured view.
func (n *Node) handleFederated(w http.ResponseWriter, r *http.Request) {
	nodes := n.fed.snapshots(r.Context())
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, map[string]any{"self": n.cfg.Self, "nodes": nodes})
		return
	}
	if err := obs.ServeExposition(w, r, nodes); err != nil {
		obs.Warn("cluster: federated exposition write failed", obs.F("err", err.Error()))
	}
}

// handleLocalMetrics serves GET /cluster/v1/metrics/local: this node's
// own registry snapshot in the federation wire format. The scrape unit.
func (n *Node) handleLocalMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, obs.ActiveRegistry().FullSnapshot())
}
