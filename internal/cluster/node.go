package cluster

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"optiwise/internal/obs"
	"optiwise/internal/serve"
)

// Config tunes a cluster Node. Self is required; everything else
// defaults.
type Config struct {
	// Self is this node's advertised host:port — the identity peers
	// probe, the ring member name, and the address forwards target. It
	// must be reachable by every peer and stable for the node's life.
	Self string
	// Peers seeds the membership table with sibling advertised
	// addresses. Gossip and PeersFile extend it at run time; listing
	// self is harmless (ignored).
	Peers []string
	// PeersFile names a file of peer addresses (one host:port per line,
	// # comments), re-read every probe tick. Deployments whose ports are
	// assigned late — CI booting nodes on :0 — write it after all nodes
	// are up.
	PeersFile string
	// ProbeInterval is the membership probe cadence (default 500ms).
	ProbeInterval time.Duration
	// SuspectAfter and DeadAfter are the consecutive probe failures that
	// demote a peer to suspect (still on the ring) and dead (off the
	// ring) respectively (defaults 2 and 4).
	SuspectAfter int
	DeadAfter    int
	// FetchTimeout bounds one peer-cache fetch request (default 10s —
	// generous because losing the fetch costs a full recomputation).
	FetchTimeout time.Duration
	// ForwardAttempts is how many ring owners a node tries before
	// executing the submission locally as a last resort (default 3).
	ForwardAttempts int
	// Vnodes is the ring's virtual-node count per member (default
	// DefaultVnodes). All nodes must agree on it.
	Vnodes int
	// ReplicaCount is how many ring owners (primary included) should
	// hold each persisted result — completed results replicate to the
	// key's next ReplicaCount-1 successors (default 2). Only meaningful
	// on durable nodes (serve.Config.DataDir).
	ReplicaCount int
	// AntiEntropyInterval is the cadence of the replica repair pass,
	// which exchanges digest maps with live peers and repairs both
	// directions (default 3s; <0 disables the loop — Node.AntiEntropyNow
	// still runs passes on demand).
	AntiEntropyInterval time.Duration
	// Client overrides the HTTP client used for probes, forwards,
	// proxies, and peer fetches (default: a pooled client with a 2s
	// dial/probe timeout; per-request deadlines come from contexts).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter + 2
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 10 * time.Second
	}
	if c.ForwardAttempts <= 0 {
		c.ForwardAttempts = 3
	}
	if c.Vnodes <= 0 {
		c.Vnodes = DefaultVnodes
	}
	if c.ReplicaCount <= 0 {
		c.ReplicaCount = 2
	}
	if c.AntiEntropyInterval == 0 {
		c.AntiEntropyInterval = 3 * time.Second
	}
	return c
}

// Node wires one serve.Server into the cluster: it owns the membership
// view, wraps the server's HTTP handler with submission routing and
// job-lookup proxying, answers the /cluster/v1 protocol, and installs
// itself as the server's result-store ring tier plus the stats hook.
type Node struct {
	cfg    Config
	srv    *serve.Server
	mem    *membership
	client *http.Client

	routes *routeTable
	fed    *federator

	// stopAE ends the anti-entropy loop; wg waits for it on shutdown.
	stopAE chan struct{}
	aeOnce sync.Once
	wg     sync.WaitGroup

	metrics nodeMetrics
}

// nodeMetrics holds the node's counter handles, in its server's
// registry (serve.Server.Registry); clusterStats reads them.
type nodeMetrics struct {
	forwards         *obs.CounterMetric
	forwardFailovers *obs.CounterMetric
	peerFetchHits    *obs.CounterMetric
	peerFetchMisses  *obs.CounterMetric
	peerServed       *obs.CounterMetric
	proxiedLookups   *obs.CounterMetric
	replications     *obs.CounterMetric
	aeRepairs        *obs.CounterMetric
}

// New builds a Node around srv and installs the cluster hooks on it.
// Call Start before serving traffic and Shutdown on the way down.
func New(cfg Config, srv *serve.Server) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self (advertised host:port) is required")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Timeout: 0, // per-request contexts bound forwards and fetches
			Transport: &http.Transport{
				MaxIdleConnsPerHost:   4,
				ResponseHeaderTimeout: 0,
			},
		}
	}
	reg := srv.Registry()
	n := &Node{
		cfg:    cfg,
		srv:    srv,
		client: client,
		routes: newRouteTable(4096),
		stopAE: make(chan struct{}),
		metrics: nodeMetrics{
			forwards:         reg.Counter(obs.MClusterForwards),
			forwardFailovers: reg.Counter(obs.MClusterForwardFailovers),
			peerFetchHits:    reg.Counter(obs.MClusterPeerFetchHits),
			peerFetchMisses:  reg.Counter(obs.MClusterPeerFetchMisses),
			peerServed:       reg.Counter(obs.MClusterPeerServed),
			proxiedLookups:   reg.Counter(obs.MClusterProxiedLookups),
			replications:     reg.Counter(obs.MClusterReplications),
			aeRepairs:        reg.Counter(obs.MClusterAntiEntropyRepairs),
		},
	}
	n.mem = newMembership(cfg, n.probeClient(), reg)
	n.fed = newFederator(n, reg)
	// Stitched traces: local segments plus whatever the live peers
	// recorded for the same trace ID.
	srv.SetClusterHooks(n, n.clusterStats, n.traceSegments)
	return n, nil
}

// probeClient is the short-deadline client membership probes use: a
// probe that cannot answer within half the probe interval (bounded to
// [250ms, 2s]) is a missed probe, not a slow success.
func (n *Node) probeClient() *http.Client {
	d := n.cfg.ProbeInterval / 2
	if d < 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return &http.Client{Timeout: d}
}

// Start launches the membership probe loop (after one synchronous
// probe round, so the ring is populated before the first submission)
// and, on durable nodes, the anti-entropy repair loop.
func (n *Node) Start() {
	n.mem.start()
	n.startAntiEntropy()
}

// Shutdown stops the probe and anti-entropy loops.
func (n *Node) Shutdown() {
	n.aeOnce.Do(func() { close(n.stopAE) })
	n.wg.Wait()
	n.mem.shutdown()
}

// Ring returns the node's current routing ring.
func (n *Node) Ring() *Ring { return n.mem.Ring() }

// clusterStats is the stats hook given to serve.Server.SetClusterHooks:
// the cluster section of /v1/stats and the cluster fields of /readyz.
func (n *Node) clusterStats() *serve.ClusterStats {
	snap := n.mem.snapshot()
	return &serve.ClusterStats{
		Self:               n.cfg.Self,
		RingSize:           n.mem.Ring().Size(),
		PeersLive:          snap.live,
		PeersSuspect:       snap.suspect,
		PeersDead:          snap.dead,
		Forwarded:          n.metrics.forwards.Value(),
		ForwardFailovers:   n.metrics.forwardFailovers.Value(),
		PeerFetchHits:      n.metrics.peerFetchHits.Value(),
		PeerFetchMisses:    n.metrics.peerFetchMisses.Value(),
		PeerServed:         n.metrics.peerServed.Value(),
		ProxiedLookups:     n.metrics.proxiedLookups.Value(),
		Replications:       n.metrics.replications.Value(),
		AntiEntropyRepairs: n.metrics.aeRepairs.Value(),
	}
}

// routeTable remembers which node answered for a job ID, so status
// polls after a forwarded submission go straight to the owning node
// instead of fanning out. Bounded FIFO eviction: job IDs are random,
// recency patterns are weak, and the table only saves a fan-out.
type routeTable struct {
	mu    sync.Mutex
	cap   int
	m     map[string]string
	order []string
}

func newRouteTable(capacity int) *routeTable {
	return &routeTable{cap: capacity, m: make(map[string]string, capacity)}
}

func (t *routeTable) put(id, addr string) {
	if id == "" || addr == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[id]; !ok {
		t.order = append(t.order, id)
		for len(t.order) > t.cap {
			delete(t.m, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.m[id] = addr
}

func (t *routeTable) get(id string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	addr, ok := t.m[id]
	return addr, ok
}

func (t *routeTable) drop(id string) {
	t.mu.Lock()
	delete(t.m, id)
	t.mu.Unlock()
}
