package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"optiwise/internal/fault"
	"optiwise/internal/obs"
	"optiwise/internal/serve"
)

// A Node is the ring tier of its server's result store
// (serve.RingTier): Fetch pulls a result from the sibling that may hold
// it, Push (replicate.go) sends a newly persisted one to the key's
// replica owner. Payloads are opaque here — the serve layer verifies
// checksums and decodes against the program image, which never travels
// (the fetching node necessarily holds it, because the job key it asks
// about is derived from that image).

// hdrChecksum carries the SHA-256 of a result payload as the sender
// computed it. The receiver recomputes and compares before trusting a
// byte: a corrupted transfer (the cluster.peer.fetch and
// cluster.replicate corrupt faults model one) is rejected, never
// stored.
const hdrChecksum = "X-Optiwise-Checksum"

// errNotHeld is a sibling's clean 404 for a result key.
var errNotHeld = errors.New("cluster: result not held by peer")

// Fetch asks the siblings that may already hold key's finished result
// for its payload. serve calls it from a worker about to simulate key;
// serve's group dedup means at most one call per key per node is in
// flight.
//
// Candidate selection keeps the steady state free: when this node is
// the key's stable owner (current owner, and membership never moved
// the key), there is no candidate and the worker simulates
// immediately. Candidates appear exactly when routing and history
// disagree with local ownership — the current owner when the
// submission landed here anyway (stale client ring, failover), and the
// previous ring's owner right after a rebalance (the node that
// computed the key's result before ownership moved).
func (n *Node) Fetch(ctx context.Context, key string) ([]byte, string, bool) {
	var cands []string
	for _, ring := range []*Ring{n.mem.Ring(), n.mem.PrevRing()} {
		if ring == nil {
			continue
		}
		if o := ring.Owner(key); o != "" && o != n.cfg.Self && !slices.Contains(cands, o) {
			cands = append(cands, o)
		}
	}
	if len(cands) == 0 {
		return nil, "", false
	}
	for _, addr := range cands {
		payload, sum, err := n.fetchFrom(ctx, addr, key)
		if err == nil {
			n.metrics.peerFetchHits.Inc()
			return payload, sum, true
		}
		if !errors.Is(err, errNotHeld) {
			obs.Warn("cluster: peer fetch failed",
				obs.F("peer", addr), obs.F("digest", shortKey(key)), obs.F("err", err.Error()))
		}
	}
	n.metrics.peerFetchMisses.Inc()
	return nil, "", false
}

// fetchFrom GETs key's payload and the sender's checksum from one
// sibling's result store: the transfer behind both Fetch and the
// anti-entropy pull. Errors cover the injected cluster.peer.fetch
// faults, transport failures, and errNotHeld. The job's trace ID (riding
// ctx, when a job is asking) travels as a traceparent header so the
// serving peer's segment lands in the same stitched trace as this
// node's.
func (n *Node) fetchFrom(ctx context.Context, addr, key string) ([]byte, string, error) {
	if err := fault.Err(fault.SiteClusterPeerFetch); err != nil {
		return nil, "", err
	}
	start := time.Now()
	traceID := obs.TraceIDFromContext(ctx)
	ctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+addr+"/cluster/v1/results/"+key, nil)
	if err != nil {
		return nil, "", err
	}
	if traceID != "" {
		req.Header.Set("traceparent", "00-"+traceID+"-0000000000000001-01")
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	n.recordSegment(traceID, "cluster.peer_fetch", start, map[string]string{
		"peer": addr, "digest": shortKey(key), "status": resp.Status,
	})
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for reuse
		if resp.StatusCode == http.StatusNotFound {
			return nil, "", errNotHeld
		}
		return nil, "", fmt.Errorf("cluster: peer %s answered %s", addr, resp.Status)
	}
	limit := n.srv.Config().MaxBodyBytes * 4
	payload, err := serve.ReadBody(io.LimitReader(resp.Body, limit), resp.ContentLength, limit)
	if err != nil {
		return nil, "", err
	}
	return payload, resp.Header.Get(hdrChecksum), nil
}

// handlePeerResult serves GET /cluster/v1/results/{digest} from the
// server's memory or disk tier: the serving half of Fetch and of the
// anti-entropy pull. Only full-fidelity results exist in either tier,
// so a hit is always safe to export. The payload passes through the
// cluster.peer.fetch corrupt fault site after the checksum is taken,
// modelling wire corruption the fetcher must catch.
func (n *Node) handlePeerResult(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	key := r.PathValue("digest")
	payload, sum, err := n.srv.ResultPayload(key)
	if errors.Is(err, serve.ErrBadKey) {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err != nil {
		writeJSONError(w, http.StatusNotFound, "result not held on this node")
		return
	}
	n.metrics.peerServed.Inc()
	if tid, err := obs.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
		n.recordSegment(tid, "cluster.peer_serve", start, map[string]string{
			"requester": r.RemoteAddr, "digest": shortKey(key),
		})
	}
	payload = fault.Bytes(fault.SiteClusterPeerFetch, payload)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(hdrChecksum, sum)
	w.WriteHeader(http.StatusOK)
	w.Write(payload) //nolint:errcheck // client went away
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}
