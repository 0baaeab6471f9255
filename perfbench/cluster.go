package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"optiwise"
	"optiwise/internal/cluster"
	"optiwise/internal/core"
	"optiwise/internal/progen"
	"optiwise/internal/serve"
	"optiwise/internal/workloads"
)

// serve-cluster shape.
const (
	// clusterWarmup fresh submissions run before timing; their results
	// are also the ones scored against ground truth, so the cpi_err
	// metrics are the same for every seed.
	clusterWarmup = 24
	// clusterCacheBytes is each node's result-cache budget: a few dozen
	// of these small results, well below a run's distinct-result bytes,
	// so repeats of older keys rehydrate from the durable store.
	clusterCacheBytes = 1 << 20
	clusterPeriod     = 400
	clusterStreamWin  = 16384
	lineageCount      = 4
	// clusterMaxOps bounds one run's op sequence.
	clusterMaxOps   = 100000
	smokeClusterOps = 12
	// clusterMaxJobs bounds each node's job-status table, so memory (and
	// max_rss_mb) plateaus instead of growing with the op count. Reads
	// target jobs of the last readWindow submissions, which the table
	// always still holds.
	clusterMaxJobs = 256
	readWindow     = 128
)

type opKind int

const (
	kindFresh opKind = iota
	kindRepeat
	kindRead
)

// reportKinds are the renders a read op fetches.
var reportKinds = []string{"report?kind=full", "report?kind=csv", "drilldown"}

// clusterNode is one in-process cluster member behind a loopback
// listener, with its own data directory.
type clusterNode struct {
	addr   string
	srv    *serve.Server
	node   *cluster.Node
	hs     *http.Server
	served chan struct{}
}

func (n *clusterNode) url() string { return "http://" + n.addr }

// startCluster boots two symmetric durable nodes under base and waits
// until each sees the other on its ring.
func startCluster(base string) ([]*clusterNode, error) {
	lns := make([]net.Listener, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
	}
	var nodes []*clusterNode
	fail := func(err error) ([]*clusterNode, error) {
		stopCluster(nodes)
		for _, l := range lns[len(nodes):] {
			l.Close()
		}
		return nil, err
	}
	for i, ln := range lns {
		addr := ln.Addr().String()
		peer := lns[1-i].Addr().String()
		dir := filepath.Join(base, fmt.Sprintf("node%d", i))
		srv, err := serve.NewDurable(serve.Config{
			Workers:    2,
			DataDir:    dir,
			CacheBytes: clusterCacheBytes,
			MaxJobs:    clusterMaxJobs,
		})
		if err != nil {
			return fail(err)
		}
		node, err := cluster.New(cluster.Config{
			Self:                addr,
			Peers:               []string{peer},
			AntiEntropyInterval: -1,
		}, srv)
		if err != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			srv.Shutdown(ctx) //nolint:errcheck // already failing
			cancel()
			return fail(err)
		}
		srv.Start()
		n := &clusterNode{addr: addr, srv: srv, node: node,
			hs: &http.Server{Handler: node.Handler()}, served: make(chan struct{})}
		go func() {
			defer close(n.served)
			n.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
		}()
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		n.node.Start()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := true
		for _, n := range nodes {
			if st := n.srv.Stats(); st.Cluster == nil || st.Cluster.RingSize != 2 {
				ready = false
			}
		}
		if ready {
			return nodes, nil
		}
		if time.Now().After(deadline) {
			stopCluster(nodes)
			return nil, errors.New("cluster ring did not converge")
		}
		// A boot takes a few milliseconds; a coarser poll would round
		// setup_s up to whole poll intervals.
		time.Sleep(100 * time.Microsecond)
	}
}

// stopCluster stops every node and waits for its listener loop to end.
func stopCluster(nodes []*clusterNode) {
	for _, n := range nodes {
		n.hs.Close() //nolint:errcheck // listener teardown only
		<-n.served
		n.node.Shutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		n.srv.Shutdown(ctx) //nolint:errcheck // best-effort drain at exit
		cancel()
	}
}

// freshSpec is one new program version: a lineage's base program with a
// per-version variation, so every fresh submission has a new job key.
type freshSpec struct {
	lineage  int
	version  int
	machine  string
	streamed bool
}

// source renders the version's program.
func (f freshSpec) source() (module, src string) {
	switch f.lineage {
	case 0, 1:
		base := []string{"548.exchange2", "500.perlbench"}[f.lineage]
		s, _ := workloads.SpecByName(base)
		s.Name = base + ".ws32k"
		if s.WorkingSetKB > 32 {
			s.WorkingSetKB = 32
		}
		s.Iterations = 60 + f.version%97
		return s.Name, workloads.Generate(s)
	default:
		cfg := progen.Config{Funcs: 6, BlocksPerFn: 5, OpsPerBlock: 8,
			MaxLoopTrips: 12 + f.version%7, Seed: int64(f.lineage)}
		return fmt.Sprintf("progen%d", f.lineage), progen.Generate(cfg)
	}
}

// keyState is one distinct job key the run created.
type keyState struct {
	body     []byte // the submission, replayed verbatim by repeats
	lastJob  string // the newest job of this key
	jsonSum  [32]byte
	owner    string
	readSums map[string][32]byte
	export   []byte // the miss's JSON export (scored keys only)
	module   string
	src      string
	machine  string
	randSeed uint64
}

// clusterRun is the state of one serve-cluster run.
type clusterRun struct {
	cfg       config
	transport *http.Transport
	client    *http.Client
	front     *clusterNode
	nodes     []*clusterNode
	rng       *rand.Rand
	keys      []*keyState
	// recent holds the keys of the last readWindow submissions, oldest
	// first; reads pick from it.
	recent []*keyState
	fresh  int

	misses, streamedMisses, repeats, repeatHits int
	// lineageVersions counts fresh versions per (owner node, lineage);
	// diffed counts the versions that arrived after a predecessor on
	// their node, each of which the node diffed on arrival.
	lineageVersions map[string]int
	diffed          int
}

// newClusterRun prepares a run against nodes, sending through nodes[0].
func newClusterRun(cfg config, nodes []*clusterNode) *clusterRun {
	transport := &http.Transport{MaxIdleConnsPerHost: 4}
	return &clusterRun{
		cfg:       cfg,
		transport: transport,
		client:    &http.Client{Transport: transport, Timeout: 120 * time.Second},
		front:     nodes[0],
		nodes:     nodes,
		rng:       rand.New(rand.NewSource(cfg.seed)),

		lineageVersions: make(map[string]int),
	}
}

// close drops the run's idle client connections.
func (c *clusterRun) close() { c.transport.CloseIdleConnections() }

type clusterOpTimes struct {
	kind       opKind
	total      time.Duration
	submit     time.Duration // hits: the submission round trip alone
	ownerIsB   bool
	queueWait  time.Duration
	exec       time.Duration
	httpOver   time.Duration
	hasJobTime bool
	spanSum    time.Duration
}

func runServeCluster(cfg config) (*result, error) {
	base := filepath.Join(cfg.out, fmt.Sprintf("cluster-seed%d", cfg.seed))
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var nodes []*clusterNode
	var setups []float64
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(base, fmt.Sprintf("setup%d", i))
		// A boot fsyncs its journals. Flushing first keeps the writeback
		// left by earlier runs and boots out of the fsyncs' latency.
		syscall.Sync()
		t0 := time.Now()
		ns, err := startCluster(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			stopCluster(ns)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		nodes = ns
	}
	defer stopCluster(nodes)

	run := newClusterRun(cfg, nodes)
	defer run.close()
	res := &result{}
	for i := 0; i < clusterWarmup; i++ {
		if _, err := run.op(kindFresh, nil, 0, res); err != nil {
			return nil, fmt.Errorf("warm-up submission %d: %w", i, err)
		}
	}
	startBytes, err := dirBytes(base)
	if err != nil {
		return nil, err
	}
	run.misses, run.streamedMisses = 0, 0
	statsBefore := run.clusterStats()

	var (
		tr               *tracer
		untraced, traced []clusterOpTimes
		before, after    runtime.MemStats
		budget           = time.Duration(cfg.seconds * float64(time.Second))
	)
	if cfg.trace {
		tr = newTracer()
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < clusterMaxOps; i++ {
		if cfg.smoke && i >= smokeClusterOps {
			break
		}
		if !cfg.smoke && time.Since(start) >= budget {
			break
		}
		kind := run.nextKind()
		useTrace := cfg.trace && i%2 == 1
		var t *tracer
		if useTrace {
			t = tr
		}
		times, err := run.op(kind, t, i+1, res)
		if err != nil {
			res.fail("op %d: %v", i, err)
			continue
		}
		if useTrace {
			traced = append(traced, times)
		} else {
			untraced = append(untraced, times)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if len(untraced) == 0 {
		return nil, errors.New("no op completed")
	}

	m := zeroLayerMetrics()
	var total, hit, miss, read []float64
	for _, t := range untraced {
		total = append(total, ms(t.total))
		switch t.kind {
		case kindFresh:
			miss = append(miss, ms(t.total))
		case kindRepeat:
			hit = append(hit, ms(t.total))
		case kindRead:
			read = append(read, ms(t.total))
		}
	}
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}
	m["setup_s"] = percentile(setups, 50)
	m["throughput_ops_s"] = float64(len(untraced)+len(traced)) / elapsed.Seconds()
	m["latency_p50_ms"] = percentile(total, 50)
	m["latency_p90_ms"] = percentile(total, 90)
	m["alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(len(untraced)+len(traced))
	m["max_rss_mb"] = rss
	m["hit_p50_ms"] = percentile(hit, 50)
	m["miss_p50_ms"] = percentile(miss, 50)
	m["read_p50_ms"] = percentile(read, 50)
	if !cfg.trace {
		inst, block, fn, err := run.scoreWarmup()
		if err != nil {
			return nil, err
		}
		m["cpi_err_inst_pct"], m["cpi_err_block_pct"], m["cpi_err_func_pct"] = inst, block, fn
	} else {
		endBytes, err := dirBytes(base)
		if err != nil {
			return nil, err
		}
		run.layerMetrics(m, tr, untraced, traced, statsBefore, endBytes-startBytes)
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops (%d traced: %d misses, %d repeats) in %.1fs\n",
		len(untraced)+len(traced), len(traced), run.misses, run.repeats, elapsed.Seconds())
	res.metrics = m
	return res, nil
}

// nextKind draws the next op's kind: ~25% fresh submissions, ~50%
// repeats, ~25% report reads.
func (c *clusterRun) nextKind() opKind {
	switch u := c.rng.Float64(); {
	case u < 0.25 || len(c.keys) == 0:
		return kindFresh
	case u < 0.75:
		return kindRepeat
	default:
		return kindRead
	}
}

// op performs one operation. Draws from the run's rng happen in a
// fixed order per kind, so the op sequence depends on the seed alone.
func (c *clusterRun) op(kind opKind, tr *tracer, opID int, res *result) (clusterOpTimes, error) {
	res.attempted++
	t := clusterOpTimes{kind: kind}
	var root *span
	if tr != nil {
		root = tr.begin("op", opID, 0)
	}
	var err error
	switch kind {
	case kindFresh:
		err = c.freshOp(tr, root, opID, &t, res)
	case kindRepeat:
		err = c.repeatOp(tr, root, opID, &t, res)
	case kindRead:
		err = c.readOp(tr, root, opID, &t, res)
	}
	if tr != nil {
		tr.finish(root, nil)
	}
	return t, err
}

func (c *clusterRun) freshOp(tr *tracer, root *span, opID int, t *clusterOpTimes, res *result) error {
	// The warm-up submissions, which are also the ones scored against
	// ground truth, do not depend on the seed; later ones pick their
	// lineage and streaming from the seed. Each lineage stays on one
	// machine so its versions are comparable and every arrival is diffed
	// against its predecessor.
	l, streamed := c.fresh%lineageCount, c.fresh%3 == 0
	if c.fresh >= clusterWarmup {
		l, streamed = c.rng.Intn(lineageCount), c.rng.Intn(3) == 0
	}
	c.fresh++
	f := freshSpec{lineage: l, version: c.fresh, machine: []string{"xeon", "n1"}[l%2], streamed: streamed}
	module, src := f.source()
	opts := map[string]any{"sample_period": clusterPeriod, "rand_seed": c.fresh}
	if f.streamed {
		opts["stream_window"] = clusterStreamWin
	}
	body, err := json.Marshal(map[string]any{
		"module": module, "source": src, "machine": f.machine, "options": opts,
		"wait": true, "lineage": fmt.Sprintf("lineage-%d", f.lineage), "timeout_ms": 60000,
	})
	if err != nil {
		return err
	}

	start := time.Now()
	st, owner, err := c.submit(tr, root, opID, body, t)
	if err != nil {
		return err
	}
	if st.Cached || st.Coalesced || st.PeerFetched {
		res.fail("fresh submission %s served from a cache", st.Digest)
	}
	export, err := c.get(tr, root, opID, "/v1/jobs/"+st.ID+"/report?kind=json", t)
	if err != nil {
		return err
	}
	t.total = time.Since(start)

	k := &keyState{body: body, lastJob: st.ID, jsonSum: sha256.Sum256(export),
		owner: owner, readSums: make(map[string][32]byte), module: module, machine: f.machine,
		randSeed: uint64(c.fresh)}
	if len(c.keys) < clusterWarmup {
		k.export, k.src = export, src
	}
	c.keys = append(c.keys, k)
	c.touch(k)
	lk := fmt.Sprintf("%s/%d", owner, f.lineage)
	if c.lineageVersions[lk] > 0 {
		c.diffed++
	}
	c.lineageVersions[lk]++
	c.misses++
	if f.streamed {
		c.streamedMisses++
	}
	return nil
}

func (c *clusterRun) repeatOp(tr *tracer, root *span, opID int, t *clusterOpTimes, res *result) error {
	// Skewed toward recent keys; the tail reaches results long evicted
	// from the memory cache.
	n := len(c.keys)
	k := c.keys[n-1-int(float64(n)*math.Pow(c.rng.Float64(), 3))]
	start := time.Now()
	st, _, err := c.submit(tr, root, opID, k.body, t)
	if err != nil {
		return err
	}
	t.submit = time.Since(start)
	export, err := c.get(tr, root, opID, "/v1/jobs/"+st.ID+"/report?kind=json", t)
	if err != nil {
		return err
	}
	t.total = time.Since(start)
	t.ownerIsB = k.owner != c.front.addr
	c.repeats++
	if st.Cached || st.Coalesced || st.PeerFetched {
		c.repeatHits++
	}
	if sha256.Sum256(export) != k.jsonSum {
		res.fail("repeat of %s returned a JSON export differing from its miss", st.Digest)
	}
	k.lastJob = st.ID
	c.touch(k)
	return nil
}

// touch records a submission of k in the read window.
func (c *clusterRun) touch(k *keyState) {
	c.recent = append(c.recent, k)
	if len(c.recent) > readWindow {
		c.recent = c.recent[1:]
	}
}

func (c *clusterRun) readOp(tr *tracer, root *span, opID int, t *clusterOpTimes, res *result) error {
	// The newest job of a recently submitted key: a miss's own job or a
	// later hit's. Every read of a render must match the key's first.
	k := c.recent[c.rng.Intn(len(c.recent))]
	kind := reportKinds[c.rng.Intn(len(reportKinds))]
	job := k.lastJob
	ref, seen := k.readSums[kind]
	start := time.Now()
	body, err := c.get(tr, root, opID, "/v1/jobs/"+job+"/"+kind, t)
	if err != nil {
		return err
	}
	t.total = time.Since(start)
	sum := sha256.Sum256(body)
	if !seen {
		k.readSums[kind] = sum
	} else if sum != ref {
		res.fail("read %s of job %s differs from an earlier read of the same key", kind, job)
	}
	return nil
}

// submit POSTs a submission through the front node and waits for it.
func (c *clusterRun) submit(tr *tracer, root *span, opID int, body []byte, t *clusterOpTimes) (serve.JobStatus, string, error) {
	var s *span
	if tr != nil {
		s = tr.begin("serve.submit", opID, root.id)
	}
	start := time.Now()
	resp, err := c.client.Post(c.front.url()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, "", err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return serve.JobStatus{}, "", err
	}
	rtt := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return serve.JobStatus{}, "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return serve.JobStatus{}, "", fmt.Errorf("submit: %w", err)
	}
	if st.State != serve.StateDone {
		return st, "", fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var counts map[string]float64
	if st.Started != nil && st.Finished != nil {
		t.queueWait = st.Started.Sub(st.Submitted)
		t.exec = st.Finished.Sub(*st.Started)
		t.hasJobTime = !st.Cached && !st.PeerFetched
	}
	if st.Finished != nil {
		t.httpOver = rtt - st.Finished.Sub(st.Submitted)
	} else {
		t.httpOver = rtt
	}
	if tr != nil {
		counts = map[string]float64{"queue_wait_ms": ms(t.queueWait), "exec_ms": ms(t.exec), "http_ms": ms(t.httpOver)}
		t.spanSum += tr.finish(s, counts).dur()
	}
	return st, resp.Header.Get("X-Optiwise-Node"), nil
}

// get fetches path from the front node.
func (c *clusterRun) get(tr *tracer, root *span, opID int, path string, t *clusterOpTimes) ([]byte, error) {
	var s *span
	if tr != nil {
		s = tr.begin("serve.report", opID, root.id)
	}
	resp, err := c.client.Get(c.front.url() + path)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if tr != nil {
		t.spanSum += tr.finish(s, map[string]float64{"bytes": float64(len(body))}).dur()
	}
	return body, nil
}

// scoreWarmup scores the warm-up misses' results against ground truth.
func (c *clusterRun) scoreWarmup() (inst, block, fn float64, err error) {
	truths := newTruthCache()
	var e cpiError
	for _, k := range c.keys {
		if k.export == nil {
			continue
		}
		prog, err := optiwise.Assemble(k.module, k.src)
		if err != nil {
			return 0, 0, 0, err
		}
		m, err := optiwise.MachineByName(k.machine)
		if err != nil {
			return 0, 0, 0, err
		}
		t, err := truths.get(prog, m, k.randSeed)
		if err != nil {
			return 0, 0, 0, err
		}
		ex, err := core.ReadExport(bytes.NewReader(k.export))
		if err != nil {
			return 0, 0, 0, err
		}
		e.add(t, prog.Raw(), ex.Insts, ex.Blocks, ex.Funcs)
	}
	inst, block, fn = e.pct()
	return inst, block, fn, nil
}

// clusterTotals sums the counters of both nodes.
type clusterTotals struct {
	forwarded, replications, peerFetchHits, windows, regressions uint64
}

func (c *clusterRun) clusterStats() clusterTotals {
	var t clusterTotals
	for i, n := range c.nodes {
		st := n.srv.Stats()
		t.windows += st.WindowsCheckpointed
		t.regressions += st.ProfileRegressions
		if st.Cluster != nil {
			if i == 0 {
				t.forwarded += st.Cluster.Forwarded
			}
			t.replications += st.Cluster.Replications
			t.peerFetchHits += st.Cluster.PeerFetchHits
		}
	}
	return t
}

// layerMetrics derives the serve-cluster per-layer metrics from the
// traced ops' spans, the nodes' counters, and the data directories.
func (c *clusterRun) layerMetrics(m map[string]float64, tr *tracer, untraced, traced []clusterOpTimes, before clusterTotals, grownBytes int64) {
	after := c.clusterStats()
	var qw, ex, hov, spanSum, tracedTotal, untracedTotal, hitA, hitB []float64
	for _, t := range traced {
		if t.kind == kindFresh && t.hasJobTime {
			qw = append(qw, ms(t.queueWait))
			ex = append(ex, ms(t.exec))
		}
		if t.kind != kindRead {
			hov = append(hov, ms(t.httpOver))
		}
		spanSum = append(spanSum, ms(t.spanSum))
		tracedTotal = append(tracedTotal, ms(t.total))
	}
	for _, t := range untraced {
		untracedTotal = append(untracedTotal, ms(t.total))
		if t.kind == kindRepeat {
			if t.ownerIsB {
				hitB = append(hitB, ms(t.submit))
			} else {
				hitA = append(hitA, ms(t.submit))
			}
		}
	}
	misses := float64(c.misses)
	m["serve.queue_wait_ms"] = mean(qw)
	m["serve.exec_ms"] = mean(ex)
	m["serve.http_ms"] = mean(hov)
	m["serve.cache_hit_ratio"] = ratio(float64(c.repeatHits), float64(c.repeats))
	m["serve.repeat_submissions"] = float64(c.repeats)
	m["durable.bytes_per_miss"] = ratio(float64(grownBytes), misses)
	m["durable.windows_checkpointed"] = float64(after.windows - before.windows)
	m["cluster.forwarded_ratio"] = ratio(float64(after.forwarded-before.forwarded), float64(len(untraced)+len(traced))-countReads(untraced)-countReads(traced))
	m["cluster.replications_per_miss"] = ratio(float64(after.replications-before.replications), misses)
	m["cluster.peer_fetch_hits"] = float64(after.peerFetchHits - before.peerFetchHits)
	if len(hitA) > 0 && len(hitB) > 0 {
		m["cluster.hop_ms"] = percentile(hitB, 50) - percentile(hitA, 50)
	}
	m["stream.windows_per_op"] = ratio(float64(after.windows-before.windows), float64(c.streamedMisses))
	m["diff.versions_diffed"] = float64(c.diffed)
	m["diff.regressions"] = float64(after.regressions)
	m["unaccounted_ms"] = mean(untracedTotal) - mean(spanSum)
	m["unaccounted_pct"] = 100 * ratio(mean(untracedTotal)-mean(spanSum), mean(untracedTotal))
	m["trace.overhead_pct"] = 100 * ratio(mean(tracedTotal)-mean(untracedTotal), mean(untracedTotal))
}

func countReads(ts []clusterOpTimes) float64 {
	n := 0
	for _, t := range ts {
		if t.kind == kindRead {
			n++
		}
	}
	return float64(n)
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil // renamed or removed by a concurrent segment rotation
		}
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
