package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"optiwise/internal/fault"
	"optiwise/internal/obs"
	"optiwise/internal/serve"
)

// Result replication and anti-entropy repair (DESIGN.md §13). A durable
// node pushes every newly persisted result to its key's next ring
// successor (Push), so losing one node's disk loses no completed work.
// A push that fails, or finds the successor not alive, only logs: the
// periodic anti-entropy pass is the one repair mechanism. Partners
// exchange their persisted-segment digest maps; each side pushes the
// intact segments an owner-chain partner lacks, and pulls
// (checksum-verified, over the peer-result endpoint) any result it
// should own but holds missing or corrupt — repair moves bytes between
// stores, it never recomputes.

// Push sends a newly persisted result payload to the key's first
// owner-chain member after self (the serve.RingTier half serve calls on
// its own goroutine). The job's trace ID rides along so both ends of
// the transfer appear in the stitched trace.
func (n *Node) Push(key string, payload []byte, checksum, traceID string) {
	target := n.replicaTarget(key)
	if target == "" {
		return // single-node ring, or a successor anti-entropy will reach
	}
	if err := n.sendReplica(target, key, payload, checksum, traceID); err != nil {
		obs.Warn("cluster: replication failed, left to anti-entropy",
			obs.F("peer", target), obs.F("digest", shortKey(key)), obs.F("err", err.Error()))
		return
	}
	n.metrics.replications.Inc()
}

// replicaTarget picks the key's replication destination: the first
// member of the key's owner chain that is not self, provided it looks
// alive (a suspect successor is left to the anti-entropy pass).
func (n *Node) replicaTarget(key string) string {
	for _, m := range n.mem.Ring().Owners(key, n.cfg.ReplicaCount) {
		if m == n.cfg.Self {
			continue
		}
		if st, known := n.mem.peerState(m); known && st == PeerAlive {
			return m
		}
		return ""
	}
	return ""
}

// sendReplica pushes one persisted payload to addr, stamping the
// transfer as a cluster.replicate_send segment when a trace ID is
// known (anti-entropy pushes have none). The cluster.replicate fault
// site injects both outright failures and wire corruption; the
// receiver's checksum gate turns the latter into a rejected transfer,
// never a poisoned replica.
func (n *Node) sendReplica(addr, key string, payload []byte, checksum, traceID string) error {
	if err := fault.Err(fault.SiteClusterReplicate); err != nil {
		return err
	}
	start := time.Now()
	payload = fault.Bytes(fault.SiteClusterReplicate, payload)
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+"/cluster/v1/replicas/"+key, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hdrChecksum, checksum)
	if traceID != "" {
		req.Header.Set("traceparent", "00-"+traceID+"-0000000000000001-01")
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for reuse
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: peer %s answered %s", addr, resp.Status)
	}
	n.recordSegment(traceID, "cluster.replicate_send", start, map[string]string{
		"target": addr, "digest": shortKey(key),
	})
	return nil
}

// handleReplica serves POST /cluster/v1/replicas/{digest}: the
// receiving half of replication. The serve layer checks the key's shape,
// the checksum, and the payload structure before any byte reaches the
// store.
func (n *Node) handleReplica(w http.ResponseWriter, r *http.Request) {
	if !n.srv.Durable() {
		writeJSONError(w, http.StatusNotImplemented, "node has no durable store")
		return
	}
	start := time.Now()
	key := r.PathValue("digest")
	limit := n.srv.Config().MaxBodyBytes * 4
	payload, err := serve.ReadBody(io.LimitReader(r.Body, limit), r.ContentLength, limit)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := n.srv.IngestResult(key, payload, r.Header.Get(hdrChecksum)); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	if tid, perr := obs.ParseTraceparent(r.Header.Get("traceparent")); perr == nil {
		n.recordSegment(tid, "cluster.replicate_recv", start, map[string]string{
			"sender": r.RemoteAddr, "digest": shortKey(key),
		})
	}
	writeJSON(w, http.StatusOK, map[string]string{"stored": key})
}

// handleDigests serves GET /cluster/v1/digests: the node's persisted
// result keys mapped to their payload SHA-256 (empty for segments that
// failed verification — advertised so a partner repairs them). The
// anti-entropy exchange unit.
func (n *Node) handleDigests(w http.ResponseWriter, _ *http.Request) {
	digests, err := n.srv.ResultDigests()
	if err != nil {
		writeJSONError(w, http.StatusNotImplemented, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, digests)
}

// startAntiEntropy launches the periodic repair loop on a durable node.
func (n *Node) startAntiEntropy() {
	if !n.srv.Durable() || n.cfg.AntiEntropyInterval < 0 {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(n.cfg.AntiEntropyInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				n.antiEntropyRound()
			case <-n.stopAE:
				return
			}
		}
	}()
}

// antiEntropyRound runs one full repair pass: exchange digests with
// every live peer and reconcile both directions. Exported to the test
// suite via Node.AntiEntropyNow.
func (n *Node) antiEntropyRound() {
	local, err := n.srv.ResultDigests()
	if err != nil {
		return // not durable
	}
	for _, addr := range n.mem.snapshot().livePeers {
		n.reconcile(addr, local)
	}
}

// AntiEntropyNow forces one synchronous anti-entropy pass (tests and
// operational tooling; the background loop runs the same code).
func (n *Node) AntiEntropyNow() { n.antiEntropyRound() }

// reconcile exchanges digest maps with one partner and repairs both
// directions: keys the partner should hold but does not are pushed;
// keys this node should hold but has missing or corrupt are pulled,
// checksum-verified, and counted as repairs. Two intact-but-different
// digests are logged and left alone — results are content-addressed
// and deterministic, so that state indicates a bug worth a human, not
// something repair should guess about.
func (n *Node) reconcile(addr string, local map[string]string) {
	remote, err := n.fetchDigests(addr)
	if err != nil {
		return // not durable or unreachable; nothing to reconcile
	}
	// Push: results this node holds intact that the partner — a member
	// of the key's owner chain — lacks or holds corrupt.
	for key, sum := range local {
		if sum == "" || remote[key] != "" || !n.inOwners(key, addr) {
			continue
		}
		payload, psum, err := n.srv.ResultPayload(key)
		if err != nil {
			continue
		}
		if err := n.sendReplica(addr, key, payload, psum, ""); err == nil {
			n.metrics.replications.Inc()
		}
	}
	// Pull: results this node should hold (it is in the owner chain) but
	// has missing or corrupt while the partner holds them intact.
	for key, sum := range remote {
		if sum == "" || local[key] == sum || !n.inOwners(key, n.cfg.Self) {
			continue
		}
		if local[key] != "" {
			obs.Warn("cluster: replica digests diverge between intact segments",
				obs.F("peer", addr), obs.F("digest", shortKey(key)))
			continue
		}
		payload, checksum, err := n.fetchFrom(context.Background(), addr, key)
		if err != nil {
			obs.Warn("cluster: anti-entropy pull failed",
				obs.F("peer", addr), obs.F("digest", shortKey(key)), obs.F("err", err.Error()))
			continue
		}
		if err := n.srv.IngestResult(key, payload, checksum); err != nil {
			obs.Warn("cluster: anti-entropy repair rejected",
				obs.F("peer", addr), obs.F("digest", shortKey(key)), obs.F("err", err.Error()))
			continue
		}
		n.metrics.aeRepairs.Inc()
		obs.Info("cluster: replica repaired",
			obs.F("peer", addr), obs.F("digest", shortKey(key)))
	}
}

// inOwners reports whether member is in key's replica owner chain.
func (n *Node) inOwners(key, member string) bool {
	for _, m := range n.mem.Ring().Owners(key, n.cfg.ReplicaCount) {
		if m == member {
			return true
		}
	}
	return false
}

// fetchDigests pulls one partner's persisted digest map.
func (n *Node) fetchDigests(addr string) (map[string]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+addr+"/cluster/v1/digests", nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for reuse
		return nil, fmt.Errorf("cluster: peer %s answered %s", addr, resp.Status)
	}
	var digests map[string]string
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&digests); err != nil {
		return nil, err
	}
	return digests, nil
}
