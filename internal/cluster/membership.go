package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optiwise/internal/fault"
	"optiwise/internal/obs"
)

// PeerState classifies a peer's health as seen from this node.
type PeerState string

// Peer states. A peer is alive while its probes answer, suspect after
// Config.SuspectAfter consecutive failures (still on the ring — a
// brief GC pause must not reshuffle key ownership), and dead after
// Config.DeadAfter failures (off the ring until a probe succeeds
// again).
const (
	PeerAlive   PeerState = "alive"
	PeerSuspect PeerState = "suspect"
	PeerDead    PeerState = "dead"
)

// peerInfo is this node's view of one sibling.
type peerInfo struct {
	addr  string
	fails int // consecutive probe failures
	state PeerState
	heard bool // at least one successful probe ever
}

// stateResponse is the GET /cluster/v1/state body — the gossip unit:
// the probed node's identity and everyone it knows about, so
// membership knowledge spreads transitively without a join protocol.
type stateResponse struct {
	Self  string   `json:"self"`
	Peers []string `json:"peers"`
}

// membership maintains this node's view of the cluster: the peer table
// fed by static configuration, the optional peers file (re-read every
// probe tick, so nodes that learned their port late — CI boots with
// :0 — can join after startup), and gossip from probe responses; and
// the two ring snapshots routing needs (current, plus the ring before
// the last change, whose owner is the peer-cache fetch candidate).
type membership struct {
	self   string
	cfg    Config
	client *http.Client

	mu    sync.Mutex
	peers map[string]*peerInfo

	ring atomic.Pointer[Ring]
	prev atomic.Pointer[Ring]

	// reg is the node's server registry (serve.Server.Registry).
	reg *obs.Registry

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newMembership(cfg Config, client *http.Client, reg *obs.Registry) *membership {
	m := &membership{
		self:   cfg.Self,
		cfg:    cfg,
		client: client,
		reg:    reg,
		peers:  make(map[string]*peerInfo),
		stop:   make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		m.addPeerLocked(p)
	}
	m.rebuild()
	return m
}

// addPeerLocked registers a newly learned peer address (no-op for self,
// empties, and known peers). Callers hold m.mu or own m exclusively.
func (m *membership) addPeerLocked(addr string) {
	addr = strings.TrimSpace(addr)
	if addr == "" || addr == m.self {
		return
	}
	if _, ok := m.peers[addr]; ok {
		return
	}
	// New peers start alive: they joined through configuration or
	// gossip, and the probe loop demotes them quickly if they are not
	// really there.
	m.peers[addr] = &peerInfo{addr: addr, state: PeerAlive}
}

// start launches the probe loop. A synchronous first round runs before
// the ticker so a freshly booted node has a populated ring before its
// first submission.
func (m *membership) start() {
	m.proberound()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(m.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.proberound()
			case <-m.stop:
				return
			}
		}
	}()
}

func (m *membership) shutdown() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// proberound runs one membership tick: reload the peers file, probe
// every known peer concurrently, fold in gossip, and rebuild the ring
// if the live member set changed.
func (m *membership) proberound() {
	m.loadPeersFile()
	m.mu.Lock()
	targets := make([]*peerInfo, 0, len(m.peers))
	for _, p := range m.peers {
		targets = append(targets, p)
	}
	m.mu.Unlock()

	results := make([]*stateResponse, len(targets))
	var wg sync.WaitGroup
	for i, p := range targets {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			results[i] = m.probe(addr)
		}(i, p.addr)
	}
	wg.Wait()

	m.mu.Lock()
	for i, p := range targets {
		st := results[i]
		if st == nil {
			p.fails++
			m.reg.Counter(obs.MClusterProbeFailures).Inc()
			switch {
			case p.fails >= m.cfg.DeadAfter:
				p.state = PeerDead
			case p.fails >= m.cfg.SuspectAfter:
				p.state = PeerSuspect
			}
			continue
		}
		p.fails = 0
		p.state = PeerAlive
		p.heard = true
		for _, addr := range st.Peers {
			m.addPeerLocked(addr)
		}
		if st.Self != "" && st.Self != p.addr {
			// The peer advertises a different canonical address (e.g. we
			// reached it through an alias); learn the advertised one too so
			// rings agree across nodes.
			m.addPeerLocked(st.Self)
		}
	}
	m.mu.Unlock()
	m.rebuild()
}

// probe asks one peer for its state. Any failure — the injected
// cluster.probe fault (modelling a partition), a connect error, a
// non-200, a garbled body — counts as a missed probe.
func (m *membership) probe(addr string) *stateResponse {
	if err := fault.Err(fault.SiteClusterProbe); err != nil {
		return nil
	}
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/cluster/v1/state", nil)
	if err != nil {
		return nil
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var st stateResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return nil
	}
	return &st
}

// loadPeersFile merges the peers file (one host:port per line, #
// comments) into the peer table. Missing or unreadable files are not
// errors: the file is how late-bound deployments (CI with :0 ports)
// hand nodes their siblings after startup.
func (m *membership) loadPeersFile() {
	if m.cfg.PeersFile == "" {
		return
	}
	data, err := os.ReadFile(m.cfg.PeersFile)
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		m.addPeerLocked(line)
	}
}

// rebuild recomputes the ring from the current peer table: self plus
// every non-dead peer. The previous ring is snapshotted only when the
// member set actually changed — it is the "who owned this key before
// the rebalance" the peer cache fetches from.
func (m *membership) rebuild() {
	m.mu.Lock()
	members := append(make([]string, 0, len(m.peers)+1), m.self)
	for _, p := range m.peers {
		if p.state != PeerDead {
			members = append(members, p.addr)
		}
	}
	m.mu.Unlock()
	sort.Strings(members)

	cur := m.ring.Load()
	if cur != nil && sameMembers(cur.Members(), members) {
		return
	}
	next := NewRing(m.cfg.Vnodes, members)
	if cur != nil {
		m.prev.Store(cur)
	}
	m.ring.Store(next)
	m.reg.Gauge(obs.MClusterRingSize).Set(int64(next.Size()))
}

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// peerState reports this node's health view of one peer address
// (false for unknown addresses, including self).
func (m *membership) peerState(addr string) (PeerState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[addr]
	if !ok {
		return "", false
	}
	return p.state, true
}

// Ring returns the current routing ring (never nil after construction).
func (m *membership) Ring() *Ring { return m.ring.Load() }

// PrevRing returns the ring before the last membership change, or nil
// when membership never changed.
func (m *membership) PrevRing() *Ring { return m.prev.Load() }

// memberSnapshot is a point-in-time view for stats and the state
// endpoint.
type memberSnapshot struct {
	live, suspect, dead int
	addrs               []string // every known peer, any state
	livePeers           []string // alive+suspect peers (proxy fan-out targets)
}

func (m *membership) snapshot() memberSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s memberSnapshot
	for _, p := range m.peers {
		s.addrs = append(s.addrs, p.addr)
		switch p.state {
		case PeerAlive:
			s.live++
			s.livePeers = append(s.livePeers, p.addr)
		case PeerSuspect:
			s.suspect++
			s.livePeers = append(s.livePeers, p.addr)
		case PeerDead:
			s.dead++
		}
	}
	sort.Strings(s.addrs)
	sort.Strings(s.livePeers)
	m.reg.Gauge(obs.MClusterPeersLive).Set(int64(s.live))
	m.reg.Gauge(obs.MClusterPeersSuspect).Set(int64(s.suspect))
	m.reg.Gauge(obs.MClusterPeersDead).Set(int64(s.dead))
	return s
}
