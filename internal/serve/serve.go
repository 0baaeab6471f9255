// Package serve implements a long-running profiling service around the
// OptiWISE pipeline: clients POST programs (OWISA source or OWX binary
// images) plus profiling options, a bounded queue feeds a fixed worker
// pool that runs the sample → instrument → combine pipeline with
// cooperative cancellation, and a content-addressed cache keyed by
// SHA-256 of (program, machine, options) serves repeated submissions
// without re-simulating. Identical submissions that arrive while a
// matching execution is queued or running coalesce onto it, so a burst
// of N identical jobs costs one simulation.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"optiwise"
	"optiwise/internal/diff"
	"optiwise/internal/durable"
	"optiwise/internal/fault"
	"optiwise/internal/obs"
)

// Sentinel errors surfaced by Submit; the HTTP layer maps them to 429
// and 503 respectively.
var (
	// ErrQueueFull reports that the bounded job queue had no free slot.
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrDraining reports that the server is shutting down and no longer
	// accepts submissions.
	ErrDraining = errors.New("serve: server is draining")
)

// Config tunes a Server. The zero value selects the documented
// defaults.
type Config struct {
	// Workers is the number of concurrent pipeline executions
	// (default GOMAXPROCS). Each execution occupies exactly one worker
	// slot even though the pipeline internally overlaps its sampling
	// and instrumentation passes on two goroutines and fans the
	// combining analysis out over short-lived shards: admission control
	// is per job, not per goroutine, so the queue depth and worker
	// count keep their meaning regardless of intra-job parallelism.
	Workers int
	// QueueDepth bounds the number of queued (not yet running)
	// executions; submissions beyond it fail with ErrQueueFull
	// (default 64).
	QueueDepth int
	// CacheBytes is the memory tier's byte budget (default 256 MiB); <0
	// disables it. An entry counts its payload's length, about a quarter
	// of the result's export-JSON size; the decoded results behind a full
	// budget take about 3.5× the budget in heap (DESIGN.md §6).
	CacheBytes int64
	// MaxBodyBytes caps an HTTP submission body (default 32 MiB).
	MaxBodyBytes int64
	// DefaultTimeout is the per-job deadline applied when a submission
	// does not choose one (default 60s). MaxTimeout caps client-chosen
	// deadlines (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxJobCycles bounds every execution's Options.MaxCycles: jobs
	// with no bound (or a larger one) are clamped so a runaway program
	// cannot pin a worker forever (default 2^32; <0 disables clamping).
	MaxJobCycles int64
	// RetryAfter is the Retry-After hint attached to 429/503 responses
	// (default 1s).
	RetryAfter time.Duration
	// MaxJobs bounds the job-status retention table; the oldest
	// finished jobs are forgotten first (default 4096).
	MaxJobs int
	// RetryBudget is the number of times a worker re-runs an execution
	// after a transient failure (injected transient faults and recovered
	// panics) before giving up — so one unlucky fault does not fail a
	// whole job when a clean re-run would succeed (default 2; <0
	// disables retries). Permanent failures (validation, cancellation,
	// deterministic simulator errors) are never retried.
	RetryBudget int
	// RetryBaseDelay and RetryMaxDelay bound the capped exponential
	// backoff between retry attempts: attempt n sleeps
	// min(base << (n-1), max) with ±50% jitter (defaults 50ms and 1s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// FlightDumpDir, when set, makes the server write every flight-
	// recorder dump (worker panics, failed jobs, degraded results,
	// manual POST /debug/flightrecorder/dump) as a timestamped JSON file
	// into this directory, in addition to retaining the most recent
	// dumps in memory. Setting it ensures a process-global flight
	// recorder is installed.
	FlightDumpDir string
	// FlightRecorderSize is the flight-recorder ring capacity to ensure
	// at construction (rounded up to a power of two). 0 installs the
	// default-sized recorder only when FlightDumpDir is set; <0 never
	// installs one (dumps are then empty unless the embedding process
	// installed a recorder itself).
	FlightRecorderSize int
	// DataDir, when set, makes the server durable (DESIGN.md §13): every
	// accepted execution is journaled to a WAL under this directory,
	// completed full-fidelity results and submitted program images are
	// persisted as checksummed segments, and a restarting server replays
	// the journal — result cache index, lineage histories, and
	// regression counters are rebuilt, and incomplete jobs (streamed or
	// not) are re-enqueued to re-run deterministically from the start.
	// Empty runs fully in memory.
	DataDir string
	// UI mounts the embedded drill-down dashboard (internal/dash) at
	// /ui/ on the server's handler. Off by default so embedded and test
	// servers stay API-only; the serve command enables it unless
	// -ui=false.
	UI bool
}

// ClusterStats is the cluster section of a Stats snapshot, produced by
// the internal/cluster node wrapping this server: the node's
// membership view plus the forwarding and peer-cache traffic counters
// dashboards and smoke jobs assert on.
type ClusterStats struct {
	Self         string `json:"self"`
	RingSize     int    `json:"ring_size"`
	PeersLive    int    `json:"peers_live"`
	PeersSuspect int    `json:"peers_suspect"`
	PeersDead    int    `json:"peers_dead"`
	// Forwarded counts submissions this node routed to their key's
	// owner on another node; ForwardFailovers counts forwards re-routed
	// to a backup owner after a peer connection failure.
	Forwarded        uint64 `json:"forwarded"`
	ForwardFailovers uint64 `json:"forward_failovers"`
	// PeerFetchHits / PeerFetchMisses count ring fetches a sibling
	// answered with a payload (or not) — Stats.JobsPeerFetched counts
	// the ones that verified and served a job; PeerServed counts results
	// this node served to siblings; ProxiedLookups counts job lookups
	// relayed to the node owning the job.
	PeerFetchHits   uint64 `json:"peer_fetch_hits"`
	PeerFetchMisses uint64 `json:"peer_fetch_misses"`
	PeerServed      uint64 `json:"peer_results_served"`
	ProxiedLookups  uint64 `json:"proxied_lookups"`
	// Replications counts persisted results this node pushed to ring
	// successors; AntiEntropyRepairs counts missing or corrupt replicas
	// this node pulled back from partners, checksum-verified.
	Replications       uint64 `json:"replications"`
	AntiEntropyRepairs uint64 `json:"antientropy_repairs"`
}

// maxRetainedDumps bounds the in-memory flight-dump history.
const maxRetainedDumps = 8

// Lineage policy: each lineage key retains lineageDepth profile
// versions, oldest evicted first; the server tracks maxLineages keys,
// least-recently touched evicted first; and a newly recorded version
// whose CPI regresses by regressionThreshold (10%) or more counts as a
// regression: the optiwise_profile_regressions_total counter moves and
// a flight record is written. regressionThreshold is also the diff
// endpoint's default threshold.
const (
	lineageDepth        = 8
	maxLineages         = 256
	regressionThreshold = 0.10
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxJobCycles == 0 {
		c.MaxJobCycles = 1 << 32
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2
	} else if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 50 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = time.Second
	}
	return c
}

// Server is the profiling service: a bounded queue of deduplicated
// executions, a fixed worker pool, a job-status table, and the tiered
// result store (store.go). Construct with New, launch workers with
// Start, serve HTTP via Handler, and stop with Shutdown.
type Server struct {
	cfg      Config
	queue    chan *group
	lineages *lineageStore
	reg      *obs.Registry // the server's own; metrics holds its handles
	metrics  serverMetrics
	// programs memoizes the programs HTTP submissions decode to.
	programs programMemo
	// The result store's tiers: cache is memory; store is the durable
	// layer (nil without Config.DataDir) — the disk tier plus the job
	// journal and program segments; ring is the cluster tier
	// (nil on a single node). pending holds the executions journal
	// replay proved incomplete, re-enqueued by Start.
	cache   resultCache
	store   *durable.Store
	ring    RingTier
	pending []pendingReplay
	// clusterStats and traceSegments are the cluster layer's hooks (see
	// SetClusterHooks); nil on a single node.
	clusterStats  func() *ClusterStats
	traceSegments func(traceID string) []obs.TraceSegment

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for retention trimming
	groups   map[string]*group
	draining bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// dumpMu guards the retained flight-dump history (newest last).
	// Each retained dump gets a process-unique ID so the listing
	// endpoint (GET /debug/flightrecorder) can address it.
	// dumpedCounters are the counters the last dump's deltas reached.
	dumpMu         sync.Mutex
	dumps          []retainedDump
	nextDumpID     int
	dumpedCounters map[string]uint64

	// start anchors the uptime surfaced in Stats and the dashboard
	// header; build is the process build identity.
	start time.Time
	build obs.BuildInfo
}

// retainedDump is one in-memory flight dump plus its listing ID.
type retainedDump struct {
	id   int
	dump obs.FlightDump
}

// DumpInfo is the listing form of one retained flight dump.
type DumpInfo struct {
	ID      int       `json:"id"`
	TakenAt time.Time `json:"taken_at"`
	Reason  string    `json:"reason"`
	TraceID string    `json:"trace_id,omitempty"`
	Records int       `json:"records"`
	Dropped uint64    `json:"dropped,omitempty"`
}

// New builds a Server; call Start to launch its workers. When
// Config.DataDir is set and the durable store cannot be opened, New
// panics — running in-memory after the operator asked for durability
// would silently drop the guarantee; callers that want the error use
// NewDurable.
func New(cfg Config) *Server {
	s, err := NewDurable(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewDurable is New returning the durable store's open/replay error
// instead of panicking. The only error source is Config.DataDir; with
// it empty, NewDurable never fails.
func NewDurable(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.FlightRecorderSize > 0 || (cfg.FlightRecorderSize == 0 && cfg.FlightDumpDir != "") {
		obs.EnsureFlightRecorder(cfg.FlightRecorderSize)
	}
	// The server's registry carries its build identity and uptime.
	reg := obs.NewRegistry()
	build := obs.ReadBuildInfo()
	reg.EnableRuntimeInfo(build)
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *group, cfg.QueueDepth),
		cache:    newResultCache(cfg.CacheBytes, reg),
		programs: newProgramMemo(),
		lineages: newLineageStore(lineageDepth, maxLineages),
		reg:      reg,
		metrics:  newServerMetrics(reg),
		jobs:     make(map[string]*Job),
		groups:   make(map[string]*group),
		stop:     make(chan struct{}),
		start:    time.Now(),
		build:    build,
	}
	if cfg.DataDir != "" {
		store, sum, err := durable.Open(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		s.store = store
		s.replayJournal(sum)
	}
	return s, nil
}

// Config returns the server's effective (default-resolved) config.
func (s *Server) Config() Config { return s.cfg }

// SetClusterHooks installs the cluster layer: the result store's ring
// tier; stats, which contributes the cluster section of Stats and the
// cluster fields on /readyz; and segments, which returns every
// cross-node trace segment recorded for a trace ID (local and fetched
// from live peers) so GET /v1/jobs/{id}/trace can stitch one span tree
// naming every node the job touched. A nil segments falls back to the
// local obs segment store. The cluster node is built around an
// existing Server, so none of these can be part of the
// construction-time Config; call this after New and before Start.
func (s *Server) SetClusterHooks(ring RingTier, stats func() *ClusterStats, segments func(traceID string) []obs.TraceSegment) {
	s.ring = ring
	s.clusterStats = stats
	s.traceSegments = segments
}

// segmentsFor collects the cross-node segments for a trace ID via
// the cluster hook, falling back to the local obs segment store.
func (s *Server) segmentsFor(traceID string) []obs.TraceSegment {
	if traceID == "" {
		return nil
	}
	if s.traceSegments != nil {
		return s.traceSegments(traceID)
	}
	return obs.SegmentsFor(traceID)
}

// selfNode returns the cluster-advertised node address, or "" on
// single-node servers.
func (s *Server) selfNode() string {
	if s.clusterStats == nil {
		return ""
	}
	if cs := s.clusterStats(); cs != nil {
		return cs.Self
	}
	return ""
}

// Start launches the worker pool (and, on a durable server, re-enqueues
// the executions journal replay proved incomplete). It must be called
// exactly once.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.store != nil && len(s.pending) > 0 {
		go s.resubmitPending()
	}
}

// Shutdown stops accepting submissions, drains queued and in-flight
// jobs, and waits for the workers to exit or ctx to expire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.store != nil {
			if err := s.store.Close(); err != nil {
				obs.Warn("serve: durable store close failed", obs.F("err", err.Error()))
			}
		}
		return nil
	case <-ctx.Done():
		// Forced exit: workers may still be writing. Leave the store open
		// (every acknowledged journal record is already fsynced) but put a
		// final barrier on the active segment.
		if s.store != nil {
			if err := s.store.Journal().Sync(); err != nil {
				obs.Warn("serve: journal sync failed", obs.F("err", err.Error()))
			}
		}
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// Submit validates and enqueues one profiling job. The returned Job is
// immediately Done when the result cache already holds the profile;
// otherwise it either coalesces onto an identical in-flight execution
// or occupies a fresh queue slot. timeout bounds the job end to end
// (0 selects Config.DefaultTimeout). The job's trace ID is minted
// here; use SubmitTraced to propagate a client-supplied one.
func (s *Server) Submit(prog *optiwise.Program, opts optiwise.Options, timeout time.Duration) (*Job, error) {
	return s.SubmitTraced(prog, opts, timeout, "")
}

// SubmitTraced is Submit with an explicit trace identity: traceID (a
// 32-hex W3C trace ID, typically extracted from a traceparent header
// via obs.ParseTraceparent) becomes the job's TraceID, stamped on every
// span, warning log, flight record, and latency exemplar the execution
// produces. An empty traceID mints a fresh one; a malformed one is
// rejected rather than silently replaced.
func (s *Server) SubmitTraced(prog *optiwise.Program, opts optiwise.Options, timeout time.Duration, traceID string) (*Job, error) {
	return s.SubmitWith(prog, opts, Submission{Timeout: timeout, TraceID: traceID})
}

// Submission bundles the optional per-submission attributes beyond the
// program and its profiling options.
type Submission struct {
	// Timeout bounds the job end to end (0 = Config.DefaultTimeout).
	Timeout time.Duration
	// TraceID propagates a caller-chosen trace identity (see
	// SubmitTraced).
	TraceID string
	// Lineage keys the job into the server's profile-lineage history:
	// when set and the job completes with a full-fidelity result, the
	// combined profile is recorded as the lineage's newest version,
	// diffed against the previous one for CPI regressions
	// (regressionThreshold, 10%), and served by the
	// GET /v1/lineages/{key} endpoints. Empty opts out.
	Lineage string
}

// SubmitWith is the full submission entry point: Submit and SubmitTraced
// delegate here. Beyond validation and canonicalization it carries the
// one submission attribute that is deliberately NOT part of the job's
// content address, the lineage key, on the job.
func (s *Server) SubmitWith(prog *optiwise.Program, opts optiwise.Options, sub Submission) (*Job, error) {
	opts, key, err := s.canonicalKey(prog, opts)
	if err != nil {
		return nil, err
	}
	return s.submitKeyed(prog, opts, key, sub)
}

// submitKeyed submits prog under opts, already validated and
// canonicalized by canonicalKey, which also derived key.
func (s *Server) submitKeyed(prog *optiwise.Program, opts optiwise.Options, key string, sub Submission) (*Job, error) {
	timeout, traceID := sub.Timeout, sub.TraceID
	if traceID != "" && !obs.ValidTraceID(traceID) {
		return nil, fmt.Errorf("serve: malformed trace ID %q (want 32 lowercase hex digits, non-zero)", traceID)
	}
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	j := newJob(key, prog.Module(), opts.Machine.Name, traceID)
	j.lineage = sub.Lineage

	// Fast path: memory or disk already holds this exact profile. The
	// cached result still records into the job's lineage — the version
	// history tracks what was submitted, not what was simulated — where
	// the consecutive-digest dedup keeps resubmissions from flooding it.
	if res, ok := s.getResult(key, prog); ok {
		j.mu.Lock()
		j.cached = true
		j.mu.Unlock()
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil, ErrDraining
		}
		s.registerLocked(j)
		s.mu.Unlock()
		j.finish(res, "")
		s.recordLineage(j, res)
		s.journalLineageHit(j, res)
		s.metrics.submitted.Inc()
		s.metrics.cacheHits.Inc()
		s.metrics.completed.Inc()
		return j, nil
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if g := s.groups[key]; g != nil {
		if g.add(j) {
			j.mu.Lock()
			j.coalesced = true
			j.mu.Unlock()
			s.registerLocked(j)
			s.mu.Unlock()
			s.metrics.submitted.Inc()
			s.metrics.cacheHits.Inc()
			j.armDeadline(timeout, s.onDeadline)
			return j, nil
		}
		// The group finished between our cache probe and now; replace it.
		delete(s.groups, key)
	}
	g := newGroup(key, prog, opts, j)
	if s.store != nil {
		g.ready = make(chan struct{})
	}
	select {
	case s.queue <- g:
	default:
		s.mu.Unlock()
		s.metrics.rejected.Inc()
		return nil, ErrQueueFull
	}
	s.groups[key] = g
	s.registerLocked(j)
	s.mu.Unlock()
	// Durability point: the queue accepted the execution, so make it
	// recoverable before the client hears about it. A crash inside this
	// window loses only a job whose acceptance was never acknowledged.
	s.persistSubmission(g, j, sub, timeout)
	s.metrics.submitted.Inc()
	s.metrics.cacheMiss.Inc()
	s.metrics.queueDepth.Set(int64(len(s.queue)))
	j.armDeadline(timeout, s.onDeadline)
	return j, nil
}

// canonicalKey validates opts, canonicalizes them and derives the job
// key. Every job key — a library submission's and a decoded HTTP
// body's, which the cluster routes on — comes from here, so routing and
// caching agree about a job's identity.
func (s *Server) canonicalKey(prog *optiwise.Program, opts optiwise.Options) (optiwise.Options, string, error) {
	if err := opts.Validate(); err != nil {
		return opts, "", err
	}
	opts = s.canonicalize(opts)
	key, err := jobKey(prog, opts)
	return opts, key, err
}

// canonicalize applies the server's option normalization: Canonical()
// strips observation-channel attributes from the content address, then
// MaxCycles is clamped by Config.MaxJobCycles. Nodes must share
// MaxJobCycles for their keys to agree.
func (s *Server) canonicalize(opts optiwise.Options) optiwise.Options {
	opts = opts.Canonical()
	if s.cfg.MaxJobCycles > 0 &&
		(opts.MaxCycles == 0 || opts.MaxCycles > uint64(s.cfg.MaxJobCycles)) {
		opts.MaxCycles = uint64(s.cfg.MaxJobCycles)
	}
	return opts
}

// onDeadline records a deadline expiry in the failure counter.
func (s *Server) onDeadline() { s.metrics.failed.Inc() }

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel terminates a queued or running job on the client's behalf.
// The second result reports whether the job existed; the first whether
// this call performed the cancellation (false when it already reached
// a terminal state).
func (s *Server) Cancel(id string) (canceled, found bool) {
	j, ok := s.Job(id)
	if !ok {
		return false, false
	}
	if j.terminate(StateCanceled, "canceled by client") {
		s.metrics.canceled.Inc()
		return true, true
	}
	return false, true
}

// registerLocked records j in the retention table. Callers hold s.mu.
func (s *Server) registerLocked(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	for len(s.order) > s.cfg.MaxJobs {
		old := s.jobs[s.order[0]]
		if old != nil && !old.Status().State.Terminal() {
			break // never forget a live job; trim resumes once it ends
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
}

// worker runs queued executions until the stop signal, then drains the
// remaining queue (graceful shutdown never abandons an accepted job).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case g := <-s.queue:
			s.metrics.queueDepth.Set(int64(len(s.queue)))
			s.runGroup(g)
		case <-s.stop:
			for {
				select {
				case g := <-s.queue:
					s.metrics.queueDepth.Set(int64(len(s.queue)))
					s.runGroup(g)
				default:
					return
				}
			}
		}
	}
}

// runGroup executes one deduplicated profiling job and fans the
// outcome out to every member. The execution is skipped entirely when
// all members expired while queued, and canceled mid-flight when the
// last member leaves (see group.remove). Service jobs run the same
// two-pass pipeline as Profile, holding this one worker slot for the
// job's whole duration.
//
// Transient failures — injected transient faults and recovered panics
// — are retried in place with capped exponential backoff, up to
// Config.RetryBudget attempts beyond the first; the job's members never
// observe the intermediate failures, only the final outcome and the
// retry count. Permanent failures and cancellations break out
// immediately.
func (s *Server) runGroup(g *group) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !g.begin(cancel) {
		// Every member expired while queued: terminal without executing.
		g.awaitSubmit()
		s.appendJournal(durable.RecCancel, "", g.key, nil)
		s.dropGroup(g)
		return
	}
	// The result segment's file is created while the passes run; the
	// admission below commits it, and every other outcome aborts it.
	var reserved chan *durable.Reservation
	if s.store != nil {
		reserved = make(chan *durable.Reservation, 1)
		go func() {
			r, err := s.store.ReserveResult(g.key)
			if err != nil {
				obs.Warn("serve: persist result failed", obs.F("digest", shortDigest(g.key)), obs.F("err", err.Error()))
			}
			reserved <- r
		}()
	}
	// Every execution gets its own tracer, stamped with the group's
	// trace identity and parented through the context, so concurrent
	// jobs never interleave on the global ambient span stack and
	// GET /v1/jobs/{id}/trace exports exactly this job's span tree.
	tracer := obs.NewTracer()
	tracer.SetTraceID(g.traceID)
	g.setTracer(tracer)
	span := tracer.Start("serve.job")
	span.SetAttr("module", g.prog.Module())
	span.SetAttr("digest", shortDigest(g.key))
	runCtx := obs.ContextWithTraceID(obs.ContextWithSpan(ctx, span), g.traceID)
	s.metrics.inflight.Add(1)

	var res *optiwise.Result
	var err error
	attempts := 0
	// Ring tier: before burning a simulation, ask whether a sibling node
	// already finished this key (ring rebalances move ownership; the
	// result may live on the previous owner). A fetched result arrives
	// encoded and verified, and flows through the normal admission and
	// fan-out below without being encoded again.
	var w wire
	peerFetched := false
	if s.ring != nil && ctx.Err() == nil {
		if fetched, fw, ok := s.fetchResult(runCtx, g.key, g.prog); ok {
			res, w, peerFetched = fetched, fw, true
			s.metrics.peerFetched.Inc()
			span.SetAttr("peer_fetched", true)
		}
	}
	for !peerFetched {
		res, err = s.executeOnce(runCtx, g)
		if err == nil || ctx.Err() != nil ||
			attempts >= s.cfg.RetryBudget || !transient(err) {
			break
		}
		attempts++
		s.metrics.retries.Inc()
		g.awaitSubmit()
		s.appendJournal(durable.RecRetry, "", g.key, nil)
		select {
		case <-time.After(backoffDelay(s.cfg.RetryBaseDelay, s.cfg.RetryMaxDelay, attempts)):
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}

	s.metrics.inflight.Add(-1)
	span.SetAttr("failed", err != nil)
	if attempts > 0 {
		span.SetAttr("retries", attempts)
	}
	span.End()

	var seg *durable.Reservation
	if reserved != nil {
		seg = <-reserved
	}
	defer seg.Abort() // a no-op once putResult committed it
	// Nothing below may make the outcome visible or journal it before the
	// submit record is on disk.
	g.awaitSubmit()
	// Admission (memory, then the disk segment) precedes dropGroup, so a
	// submission arriving after the group is gone finds the result.
	eligible := cacheEligible(res, err, ctx.Err())
	persisted := false
	if eligible {
		w, persisted = s.putResult(g.key, res, w, seg)
	}
	if err == nil && res != nil && res.Degraded {
		s.metrics.degraded.Inc()
	}
	// A failed or degraded execution snapshots the flight recorder: the
	// dump carries the job's trace ID plus the spans, warnings, fault
	// activations, and metric deltas leading up to the outcome.
	switch {
	case err != nil && ctx.Err() == nil:
		s.dumpFlight("job_failed", g.traceID)
	case err == nil && res != nil && res.Degraded:
		s.dumpFlight("degraded_result", g.traceID)
	}
	s.dropGroup(g)
	members := g.end()
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	// Journal the terminal outcome. A cache-eligible result's segment
	// landed before its complete record; a degraded success is terminal
	// too (re-running it on restart would re-degrade), but its partial
	// result is never persisted or cached.
	switch {
	case persisted:
		s.persistCompleted(g, res, w, members)
	case eligible:
		// No segment (no disk tier, or the write failed): no record, so
		// a durable replay re-runs the key.
	case ctx.Err() != nil:
		s.appendJournal(durable.RecCancel, "", g.key, nil)
	case err != nil:
		s.appendJournal(durable.RecFail, "", g.key, journalFail{Error: errMsg})
	default:
		s.appendJournal(durable.RecComplete, "", g.key, nil)
	}
	for _, j := range members {
		j.setRetries(attempts)
		if peerFetched {
			j.markPeerFetched()
		}
		// The lineage version (and any regress record) is journaled before
		// the job reads done, so a restart right after keeps what the
		// client saw.
		if err == nil {
			s.recordLineage(j, res)
		}
		if !j.finish(res, errMsg) {
			continue // lost the race against its deadline or a cancel
		}
		if err != nil {
			s.metrics.failed.Inc()
		} else {
			s.metrics.completed.Inc()
		}
		j.mu.Lock()
		lat := j.finished.Sub(j.submitted)
		j.mu.Unlock()
		// The exemplar links a slow latency bucket back to this trace.
		s.metrics.latencyUS.ObserveTrace(uint64(lat.Microseconds()), j.TraceID)
	}
}

// dumpFlight snapshots the process-global flight recorder (when one is
// installed): metric deltas are folded in first so the dump carries the
// counter movement since the previous dump, the dump joins the retained
// in-memory history, and — when Config.FlightDumpDir is set — it is
// also written as a timestamped JSON file. Returns the dump and whether
// a recorder was installed.
func (s *Server) dumpFlight(reason, trace string) (obs.FlightDump, bool) {
	fr := obs.ActiveFlight()
	if fr == nil {
		return obs.FlightDump{}, false
	}
	s.dumpMu.Lock()
	cur := s.MetricsSnapshot().Counters
	fr.RecordMetricDeltas(s.dumpedCounters, cur)
	s.dumpedCounters = cur
	d := fr.Dump(reason, trace)
	s.reg.Counter(obs.MFlightDumps).Inc()
	s.nextDumpID++
	s.dumps = append(s.dumps, retainedDump{id: s.nextDumpID, dump: d})
	if len(s.dumps) > maxRetainedDumps {
		s.dumps = s.dumps[len(s.dumps)-maxRetainedDumps:]
	}
	s.dumpMu.Unlock()
	if s.cfg.FlightDumpDir != "" {
		s.writeDumpFile(d)
	}
	return d, true
}

// DumpFlight snapshots the flight recorder on demand (see dumpFlight):
// the operator-facing entry point behind POST /debug/flightrecorder/dump
// and the serve command's SIGQUIT handler. Returns false when no flight
// recorder is installed.
func (s *Server) DumpFlight(reason string) (obs.FlightDump, bool) {
	return s.dumpFlight(reason, "")
}

// Dumps returns the retained flight-dump history, oldest first.
func (s *Server) Dumps() []obs.FlightDump {
	s.dumpMu.Lock()
	defer s.dumpMu.Unlock()
	out := make([]obs.FlightDump, len(s.dumps))
	for i, rd := range s.dumps {
		out[i] = rd.dump
	}
	return out
}

// DumpInfos lists the retained dumps (id, timestamp, trigger), newest
// first — the discoverable side of the POST-to-dump endpoint.
func (s *Server) DumpInfos() []DumpInfo {
	s.dumpMu.Lock()
	defer s.dumpMu.Unlock()
	out := make([]DumpInfo, 0, len(s.dumps))
	for i := len(s.dumps) - 1; i >= 0; i-- {
		rd := s.dumps[i]
		out = append(out, DumpInfo{
			ID:      rd.id,
			TakenAt: rd.dump.TakenAt,
			Reason:  rd.dump.Reason,
			TraceID: rd.dump.Trace,
			Records: len(rd.dump.Records),
			Dropped: rd.dump.Dropped,
		})
	}
	return out
}

// DumpByID fetches one retained dump by its listing ID.
func (s *Server) DumpByID(id int) (obs.FlightDump, bool) {
	s.dumpMu.Lock()
	defer s.dumpMu.Unlock()
	for _, rd := range s.dumps {
		if rd.id == id {
			return rd.dump, true
		}
	}
	return obs.FlightDump{}, false
}

// JobList returns the most recent limit job statuses, newest first
// (limit <= 0 selects 100). The dashboard's job table reads it.
func (s *Server) JobList(limit int) []JobStatus {
	if limit <= 0 {
		limit = 100
	}
	s.mu.Lock()
	ids := make([]string, 0, limit)
	for i := len(s.order) - 1; i >= 0 && len(ids) < limit; i-- {
		ids = append(ids, s.order[i])
	}
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// writeDumpFile persists one dump into Config.FlightDumpDir, through
// the shared atomic temp+rename+fsync path so a crash mid-dump never
// leaves a torn file for the next tool to choke on. Failures are
// logged, never fatal: the dump still lives in the in-memory history
// and losing a file must not fail the job that triggered it.
func (s *Server) writeDumpFile(d obs.FlightDump) {
	name := fmt.Sprintf("flight-%s-%s.json",
		d.TakenAt.Format("20060102T150405.000000000"), sanitizeReason(d.Reason))
	path := filepath.Join(s.cfg.FlightDumpDir, name)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		obs.Warn("serve: flight dump write failed", obs.F("path", path), obs.F("err", err.Error()))
		return
	}
	if err := durable.AtomicWrite(path, buf.Bytes(), 0o644); err != nil {
		obs.Warn("serve: flight dump write failed", obs.F("path", path), obs.F("err", err.Error()))
	}
}

// sanitizeReason makes a dump reason filename-safe.
func sanitizeReason(reason string) string {
	out := []byte(reason)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			out[i] = '-'
		}
	}
	if len(out) == 0 {
		return "dump"
	}
	return string(out)
}

// executeOnce runs the pipeline once for g, converting any escaped
// panic — the pipeline already contains panics from its own pass
// goroutines, so this catches rendering-layer and injected worker
// panics — into a structured job failure with the stack captured, so
// one poisoned job cannot take down its worker (the pool keeps
// serving) and the panic is visible in /v1/stats and metrics.
func (s *Server) executeOnce(ctx context.Context, g *group) (res *optiwise.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.metrics.workerPanics.Inc()
			stack := debug.Stack()
			trace := obs.TraceIDFromContext(ctx)
			if lg := obs.ActiveLogger(); lg != nil {
				lg.Error("serve: worker panic recovered",
					obs.F("digest", shortDigest(g.key)), obs.F("panic", fmt.Sprint(v)),
					obs.F("trace_id", trace))
			}
			obs.Flight("mark", "worker_panic", trace,
				obs.F("digest", shortDigest(g.key)), obs.F("panic", fmt.Sprint(v)))
			err = &workerPanicError{value: v, stack: stack}
			res = nil
		}
	}()
	if err := fault.Err(fault.SiteWorker); err != nil {
		return nil, fmt.Errorf("serve: worker: %w", err)
	}
	opts := g.opts
	if opts.Window > 0 {
		// Every execution with a window streams it. Each attempt — first
		// run, in-process retry, or journal replay after a restart — gets
		// a fresh combiner and re-runs from cycle 0: both passes are
		// deterministic, so the re-run emits the same windows and ends
		// byte-identical to an uninterrupted run, and a half-streamed
		// failed attempt never double-counts into the next.
		comb := optiwise.NewStreamCombiner(g.prog)
		g.setCombiner(comb)
		opts.OnIncrement = func(inc optiwise.Increment) {
			if err := comb.Add(inc); err != nil {
				obs.Warn("serve: profile window dropped",
					obs.F("digest", shortDigest(g.key)), obs.F("err", err.Error()))
				return
			}
			s.metrics.windowsAbsorbed.Inc()
		}
	}
	return optiwise.ProfileContext(ctx, g.prog, opts)
}

// workerPanicError is a panic recovered at the worker boundary,
// carrying the goroutine stack for diagnostics. Treated as transient:
// a re-run may well succeed (injected panics, races).
type workerPanicError struct {
	value any
	stack []byte
}

func (e *workerPanicError) Error() string {
	return fmt.Sprintf("serve: job panicked: %v", e.value)
}

// Stack returns the captured goroutine stack.
func (e *workerPanicError) Stack() []byte { return e.stack }

// transient classifies err for the retry loop: injected faults marked
// transient, and panics recovered at either the pass or worker
// boundary. Everything else — validation errors, cancellations,
// deterministic simulator failures — is permanent and retrying would
// only repeat it.
func transient(err error) bool {
	if fault.IsTransient(err) {
		return true
	}
	var wp *workerPanicError
	if errors.As(err, &wp) {
		return true
	}
	var pp *optiwise.PanicError
	return errors.As(err, &pp)
}

// backoffDelay computes the capped exponential backoff for the given
// 1-based attempt, with ±50% jitter so coordinated retries decohere.
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter in [d/2, 3d/2).
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// recordLineage records a finished job's combined profile as the newest
// version of its lineage (when the submission carried a lineage key) and
// diffs it against the previous version for CPI regressions. Degraded
// results never enter a lineage — a partial profile diffed against a
// full one would report phantom deltas. A significant regression at or
// past regressionThreshold (10%) moves the
// optiwise_profile_regressions_total counter and writes a flight record
// carrying the lineage, module, and worst relative delta; the versions
// stay recorded either way, so GET /v1/lineages/{key}/diff can replay
// the comparison on demand.
func (s *Server) recordLineage(j *Job, res *optiwise.Result) {
	if j.lineage == "" || res == nil || res.Degraded {
		return
	}
	exp := res.Export()
	prev, added := s.lineages.record(j.lineage, lineageVersion{
		Digest:  j.Digest,
		Module:  j.Module,
		JobID:   j.ID,
		TraceID: j.TraceID,
		Seen:    time.Now(),
		Cycles:  exp.TotalCycles,
		IPC:     exp.IPC,
		export:  exp,
	})
	if !added || prev == nil {
		return
	}
	rep, err := diff.Compute(prev, exp, diff.Options{Threshold: regressionThreshold})
	if err != nil {
		// Incomparable versions (options changed between submissions) are
		// recorded but not judged; the diff endpoint surfaces the same
		// error to anyone asking.
		obs.Warn("serve: lineage versions not comparable",
			obs.F("lineage", j.lineage), obs.F("err", err.Error()))
		return
	}
	if !rep.Regressed {
		return
	}
	s.metrics.regressions.Inc()
	// The regress record restores this counter at replay, keeping
	// /v1/stats continuous across restarts.
	s.appendJournal(durable.RecRegress, j.ID, j.Digest, nil)
	obs.Warn("serve: profile regression detected",
		obs.F("lineage", j.lineage), obs.F("module", j.Module),
		obs.F("regressions", rep.Regressions),
		obs.F("worst_pct", 100*rep.MaxRegression),
		obs.F("trace_id", j.TraceID))
	obs.Flight("mark", "profile_regression", j.TraceID,
		obs.F("lineage", j.lineage), obs.F("module", j.Module),
		obs.F("digest", shortDigest(j.Digest)),
		obs.F("regressions", rep.Regressions),
		obs.F("worst_pct", 100*rep.MaxRegression))
}

// cacheEligible decides whether a finished execution may enter the
// result cache. Admission demands full success: a real result, no
// error, no cancellation racing the completion (a canceled run may
// have been torn down mid-analysis), and a non-degraded profile — a
// partial view must never satisfy a later full-fidelity request
// (DESIGN.md §8).
func cacheEligible(res *optiwise.Result, err, ctxErr error) bool {
	return err == nil && res != nil && !res.Degraded && ctxErr == nil
}

// dropGroup removes g from the dedup index (if it is still the indexed
// group for its key), so later identical submissions start fresh.
func (s *Server) dropGroup(g *group) {
	s.mu.Lock()
	if s.groups[g.key] == g {
		delete(s.groups, g.key)
	}
	s.mu.Unlock()
}

// shortDigest abbreviates a hex digest for span attributes.
func shortDigest(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

// Stats is a point-in-time operational snapshot, served at /v1/stats.
type Stats struct {
	Workers      int   `json:"workers"`
	QueueDepth   int   `json:"queue_depth"`
	Inflight     int64 `json:"inflight"`
	Jobs         int   `json:"jobs"`
	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	Draining     bool  `json:"draining"`
	// WorkerPanics counts panics recovered at the worker boundary,
	// Retries counts transient-failure re-executions, and
	// DegradedResults counts single-pass (degraded) jobs served —
	// all since the server started.
	WorkerPanics    uint64 `json:"worker_panics"`
	Retries         uint64 `json:"retries"`
	DegradedResults uint64 `json:"degraded_results"`
	// LineageKeys counts tracked profile lineages;
	// ProfileRegressions counts newly recorded lineage versions that
	// regressed significantly past the configured threshold.
	LineageKeys        int    `json:"lineage_keys"`
	ProfileRegressions uint64 `json:"profile_regressions"`
	// JobsPeerFetched counts executions satisfied from a sibling node's
	// cache instead of a local simulation (always 0 on single-node
	// servers).
	JobsPeerFetched uint64 `json:"jobs_peer_fetched"`
	// Durable reports whether the server persists to a data dir
	// (Config.DataDir). JournalReplays counts journal segments replayed
	// at the last startup, RecordsTruncated the corrupt or torn journal
	// records discarded by replay.
	Durable          bool   `json:"durable,omitempty"`
	JournalReplays   uint64 `json:"journal_replays,omitempty"`
	RecordsTruncated uint64 `json:"records_truncated,omitempty"`
	// WindowsCheckpointed counts the windows (sampling and
	// instrumentation) absorbed by executions with a window since
	// startup, on every server, durable or not. Nothing is
	// checkpointed; the field keeps its old name only because the
	// benchmark harness reads it under that name.
	WindowsCheckpointed uint64 `json:"windows_checkpointed,omitempty"`
	// Cluster is the routing and membership view contributed by the
	// cluster layer; omitted on single-node servers.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// Build is the process build identity (version, Go toolchain,
	// commit); UptimeSeconds is time since the server was constructed.
	// The dashboard header renders both.
	Build         obs.BuildInfo `json:"build"`
	UptimeSeconds float64       `json:"uptime_seconds"`
}

// Stats returns the current operational snapshot.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	jobs := len(s.jobs)
	draining := s.draining
	s.mu.Unlock()
	st := Stats{
		Workers:             s.cfg.Workers,
		QueueDepth:          len(s.queue),
		Inflight:            s.metrics.inflight.Value(),
		Jobs:                jobs,
		CacheEntries:        s.cache.len(),
		CacheBytes:          s.cache.usedBytes(),
		Draining:            draining,
		WorkerPanics:        s.metrics.workerPanics.Value(),
		Retries:             s.metrics.retries.Value(),
		DegradedResults:     s.metrics.degraded.Value(),
		LineageKeys:         s.lineages.keys(),
		ProfileRegressions:  s.metrics.regressions.Value(),
		JobsPeerFetched:     s.metrics.peerFetched.Value(),
		Durable:             s.store != nil,
		JournalReplays:      s.metrics.journalReplays.Value(),
		RecordsTruncated:    s.metrics.recordsTruncated.Value(),
		WindowsCheckpointed: s.metrics.windowsAbsorbed.Value(),
		Build:               s.build,
		UptimeSeconds:       time.Since(s.start).Seconds(),
	}
	if s.clusterStats != nil {
		st.Cluster = s.clusterStats()
	}
	return st
}
