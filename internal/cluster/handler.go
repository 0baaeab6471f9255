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

// Cluster protocol headers.
const (
	// hdrForwarded marks a submission already routed by a sibling (value:
	// the routing node's advertised address). A forwarded submission is
	// always executed locally — never re-forwarded — so a stale ring can
	// cost one redundant hop, not a loop.
	hdrForwarded = "X-Optiwise-Forwarded"
	// hdrNoProxy marks a job lookup that must be answered from local
	// state only (used by the lookup fan-out to stop recursion).
	hdrNoProxy = "X-Optiwise-No-Proxy"
	// hdrNode names the node that actually handled a request, stamped on
	// routed responses so clients and tests can see where work landed.
	hdrNode = "X-Optiwise-Node"
)

// Handler wraps the server's HTTP API with the cluster layer:
// submissions are routed to their key's ring owner, job lookups are
// proxied to the node that ran the job, and the /cluster/v1 protocol
// endpoints (state, results, ring) are served. Every other route falls
// through to the wrapped server untouched.
func (n *Node) Handler() http.Handler {
	base := n.srv.Handler()
	mux := http.NewServeMux()
	submit := n.submitHandler()
	lookup := n.lookupHandler(base)
	mux.Handle("POST /v1/jobs", submit)
	mux.Handle("GET /v1/jobs/{id}", lookup)
	mux.Handle("GET /v1/jobs/{id}/report", lookup)
	mux.Handle("GET /v1/jobs/{id}/trace", lookup)
	mux.Handle("GET /v1/jobs/{id}/windows", lookup)
	mux.Handle("GET /v1/jobs/{id}/drilldown", lookup)
	mux.Handle("DELETE /v1/jobs/{id}", lookup)
	mux.HandleFunc("GET /cluster/v1/state", n.handleState)
	mux.HandleFunc("GET /cluster/v1/results/{digest}", n.handlePeerResult)
	mux.HandleFunc("GET /cluster/v1/ring", n.handleRing)
	mux.HandleFunc("POST /cluster/v1/replicas/{digest}", n.handleReplica)
	mux.HandleFunc("GET /cluster/v1/digests", n.handleDigests)
	mux.HandleFunc("GET /cluster/v1/metrics", n.handleFederated)
	mux.HandleFunc("GET /cluster/v1/metrics/local", n.handleLocalMetrics)
	mux.HandleFunc("GET /cluster/v1/traces/{traceID}", n.handleTraceSegments)
	mux.Handle("/", base)
	return mux
}

// submitHandler routes POST /v1/jobs. The server reads and decodes the
// body once, and route sends it verbatim to the key's owner; on a
// connection failure the next ring owner is tried (forward failover),
// and when every owner is unreachable the node executes locally —
// accepting work redundantly beats bouncing it. Malformed submissions
// are answered here, exactly as on a single node.
func (n *Node) submitHandler() http.Handler {
	submit := n.srv.SubmitHandler(n.route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A forward that relays the owner's answer renames the node.
		w.Header().Set(hdrNode, n.cfg.Self)
		submit(w, r)
	})
}

// route is the serve.Route of a cluster node: it forwards a submission
// whose key another node owns and reports false when the job runs here.
func (n *Node) route(w http.ResponseWriter, r *http.Request, body []byte, key string) bool {
	ring := n.mem.Ring()
	if r.Header.Get(hdrForwarded) != "" || ring.Size() <= 1 {
		return false
	}
	// Pin the trace ID before routing: the forwarded submission, the
	// owner's spans, and every later hop (peer fetch, replication) must
	// share one ID for the stitched trace to assemble. An incoming
	// traceparent wins; otherwise the router mints.
	traceID, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if err != nil {
		traceID = obs.NewTraceID()
	}
	owners := ring.Owners(key, forwardAttempts)
	for _, owner := range owners {
		if owner == n.cfg.Self {
			return false
		}
		if relayed := n.forward(w, r, owner, body, traceID); relayed {
			return true
		}
		n.metrics.forwardFailovers.Inc()
	}
	obs.Warn("cluster: all ring owners unreachable, executing locally",
		obs.F("digest", shortKey(key)), obs.F("owners", fmt.Sprint(owners)))
	return false
}

// forward relays one submission to owner and, on success, the full
// response back to the client. It reports false when the attempt
// failed before a complete response was buffered — the caller then
// fails over to the next owner with the same body, which is safe
// because submissions are content-addressed (a duplicate accept costs
// a coalesced or cached job, never a double result). The routed-in
// trace ID travels as a traceparent header and the hop is recorded as
// a cluster.forward segment on this node, so the owner's stitched
// trace shows where the submission entered the cluster.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, owner string, body []byte, traceID string) bool {
	if err := fault.Err(fault.SiteClusterForward); err != nil {
		return false
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		"http://"+owner+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hdrForwarded, n.cfg.Self)
	req.Header.Set("traceparent", "00-"+traceID+"-0000000000000001-01")
	resp, err := n.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	// Buffer the whole response before relaying a byte: an owner dying
	// mid-response must remain fail-over-able, which it is not once the
	// client saw a partial answer.
	limit := n.srv.Config().MaxBodyBytes * 4
	respBody, err := serve.ReadBody(io.LimitReader(resp.Body, limit), resp.ContentLength, limit)
	if err != nil {
		return false
	}
	n.metrics.forwards.Inc()
	// Remember where the job lives so status polls skip the fan-out.
	var status struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(respBody, &status) == nil && status.ID != "" {
		n.routes.put(status.ID, owner)
	}
	n.recordSegment(traceID, "cluster.forward", start, map[string]string{
		"target": owner, "status": resp.Status,
	})
	for _, h := range []string{"Content-Type", "Location", "Retry-After", "traceparent"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(hdrNode, owner)
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody) //nolint:errcheck // client went away
	return true
}

// lookupHandler serves the per-job routes (status, report, trace,
// windows, cancel). Jobs this node knows answer locally; anything else
// is proxied to the node that ran the job — found via the route table
// a forward populated, or by fanning the lookup out to live peers.
func (n *Node) lookupHandler(base http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := n.srv.Job(id); ok || r.Header.Get(hdrNoProxy) != "" {
			w.Header().Set(hdrNode, n.cfg.Self)
			base.ServeHTTP(w, r)
			return
		}
		addr, ok := n.routes.get(id)
		if !ok {
			addr, ok = n.locate(r.Context(), id)
		}
		if !ok {
			base.ServeHTTP(w, r) // renders the canonical 404
			return
		}
		if !n.proxy(w, r, addr) {
			n.routes.drop(id)
			base.ServeHTTP(w, r)
		}
	})
}

// locate fans a no-proxy status probe out to the live peers and
// returns the first node that knows the job.
func (n *Node) locate(ctx context.Context, id string) (string, bool) {
	snap := n.mem.snapshot()
	for _, addr := range snap.livePeers {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			"http://"+addr+"/v1/jobs/"+id, nil)
		if err != nil {
			continue
		}
		req.Header.Set(hdrNoProxy, "1")
		resp, err := n.client.Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck // drain for reuse
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			n.routes.put(id, addr)
			return addr, true
		}
	}
	return "", false
}

// proxy relays one job request to addr and the buffered response back.
// False means the peer was unreachable (the caller falls back to the
// local — almost certainly 404 — handling).
func (n *Node) proxy(w http.ResponseWriter, r *http.Request, addr string) bool {
	req, err := http.NewRequestWithContext(r.Context(), r.Method,
		"http://"+addr+r.URL.Path+queryString(r), nil)
	if err != nil {
		return false
	}
	req.Header.Set(hdrNoProxy, "1")
	resp, err := n.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	limit := n.srv.Config().MaxBodyBytes * 4
	respBody, err := serve.ReadBody(io.LimitReader(resp.Body, limit), resp.ContentLength, limit)
	if err != nil {
		return false
	}
	n.metrics.proxiedLookups.Inc()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(hdrNode, addr)
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody) //nolint:errcheck // client went away
	return true
}

func queryString(r *http.Request) string {
	if r.URL.RawQuery == "" {
		return ""
	}
	return "?" + r.URL.RawQuery
}

// handleState answers membership probes with this node's identity and
// known peers (the gossip payload).
func (n *Node) handleState(w http.ResponseWriter, _ *http.Request) {
	snap := n.mem.snapshot()
	writeJSON(w, http.StatusOK, stateResponse{
		Self:  n.cfg.Self,
		Peers: snap.addrs,
	})
}

// ringResponse is the GET /cluster/v1/ring body: the member list and —
// when ?key= asks about a specific digest — that key's owner chain.
// CI smoke jobs use it to find a key owned by a particular node.
type ringResponse struct {
	Self    string   `json:"self"`
	Size    int      `json:"size"`
	Members []string `json:"members"`
	Key     string   `json:"key,omitempty"`
	Owner   string   `json:"owner,omitempty"`
	Owners  []string `json:"owners,omitempty"`
}

func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	ring := n.mem.Ring()
	resp := ringResponse{Self: n.cfg.Self, Size: ring.Size(), Members: ring.Members()}
	if key := r.URL.Query().Get("key"); key != "" {
		resp.Key = key
		resp.Owner = ring.Owner(key)
		resp.Owners = ring.Owners(key, 3)
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
