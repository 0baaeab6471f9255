package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// CounterMetric is a monotonically increasing counter. The nil counter
// is a valid no-op, so hot paths fetch a handle once and call Add/Inc
// unconditionally: disabled observability costs one pointer compare.
type CounterMetric struct {
	name string
	help string
	v    atomic.Uint64
}

// Inc adds 1. Nil-safe.
func (c *CounterMetric) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. Nil-safe.
func (c *CounterMetric) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *CounterMetric) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// GaugeMetric is a value that can go up and down (code-cache size,
// in-flight work). Nil-safe like CounterMetric.
type GaugeMetric struct {
	name string
	help string
	v    atomic.Int64
}

// Set stores v. Nil-safe.
func (g *GaugeMetric) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative). Nil-safe.
func (g *GaugeMetric) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *GaugeMetric) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of fixed log₂ buckets: bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// Bucket 0 holds v == 0.
const histBuckets = 65

// Exemplar links one histogram bucket back to a trace that landed in
// it — the OpenMetrics device that turns "the p99 bucket is hot" into
// "job trace 4bf9… is why". Each bucket keeps its most recent exemplar,
// published with a single atomic pointer store.
type Exemplar struct {
	Bucket   int    // log₂ bucket index
	Value    uint64 // the observed value
	TraceID  string
	UnixNano int64
}

// HistogramMetric is a histogram over uint64 observations with fixed
// log₂ bucket boundaries — cheap enough for per-sample hot paths
// (bits.Len64 + one atomic add), expressive enough for latency and
// weight distributions. Nil-safe like CounterMetric.
type HistogramMetric struct {
	name      string
	help      string
	buckets   [histBuckets]atomic.Uint64
	exemplars [histBuckets]atomic.Pointer[Exemplar]
	sum       atomic.Uint64
	count     atomic.Uint64
}

// Observe records one observation. Nil-safe.
func (h *HistogramMetric) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveTrace records one observation and, when traceID is non-empty,
// stamps it as the bucket's exemplar so a slow bucket links back to an
// offending trace. Nil-safe; with an empty traceID it is exactly
// Observe.
func (h *HistogramMetric) ObserveTrace(v uint64, traceID string) {
	if h == nil {
		return
	}
	b := bits.Len64(v)
	h.buckets[b].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if traceID != "" {
		h.exemplars[b].Store(&Exemplar{
			Bucket:   b,
			Value:    v,
			TraceID:  traceID,
			UnixNano: nowNanos(),
		})
	}
}

// nowNanos is a test seam for exemplar timestamps.
var nowNanos = func() int64 { return time.Now().UnixNano() }

// Count returns the number of observations (0 on nil).
func (h *HistogramMetric) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *HistogramMetric) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry holds named metrics. Lookup is mutex-guarded (cold path,
// done once per run); the returned handles update lock-free.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*CounterMetric
	gauges map[string]*GaugeMetric
	hists  map[string]*HistogramMetric

	// Runtime-info families, enabled once by EnableRuntimeInfo: a
	// labeled optiwise_build_info sample and an uptime gauge computed
	// from start at exposition time.
	buildInfo *BuildInfo
	start     time.Time
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*CounterMetric),
		gauges: make(map[string]*GaugeMetric),
		hists:  make(map[string]*HistogramMetric),
		start:  time.Now(),
	}
}

// EnableRuntimeInfo turns on the optiwise_build_info and
// optiwise_uptime_seconds families: build_info exports bi as constant
// version/go_version/commit labels with value 1, uptime is computed
// from the registry's creation time at each exposition. Idempotent and
// nil-safe; the first call wins.
func (r *Registry) EnableRuntimeInfo(bi BuildInfo) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buildInfo == nil {
		r.buildInfo = &bi
	}
}

// Counter returns (creating if needed) the named counter. Nil-safe:
// a nil registry yields a nil, no-op counter.
func (r *Registry) Counter(name string) *CounterMetric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &CounterMetric{name: name, help: helpFor(name)}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil-safe.
func (r *Registry) Gauge(name string) *GaugeMetric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &GaugeMetric{name: name, help: helpFor(name)}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. Nil-safe.
func (r *Registry) Histogram(name string) *HistogramMetric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &HistogramMetric{name: name, help: helpFor(name)}
		r.hists[name] = h
	}
	return h
}

// counterValues returns a snapshot of all counter values by name, used
// by the flight recorder to log metric deltas at dump time. Nil-safe.
func (r *Registry) counterValues() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.counts))
	for name, c := range r.counts {
		out[name] = c.Value()
	}
	return out
}

// Well-known metric names fed by the pipeline's hot paths. Centralized
// so exporters, dashboards, and tests agree on spelling.
const (
	MSimCycles        = "optiwise_sim_cycles_total"
	MSimInstructions  = "optiwise_sim_instructions_total"
	MSimMispredicts   = "optiwise_sim_mispredicts_total"
	MSimBranches      = "optiwise_sim_branches_total"
	MSamplesTaken     = "optiwise_sampler_samples_total"
	MSamplesDropped   = "optiwise_sampler_samples_dropped_total"
	MSampleWeight     = "optiwise_sampler_sample_weight_cycles"
	MDBIBlocksFound   = "optiwise_dbi_blocks_discovered_total"
	MDBICodeCacheSize = "optiwise_dbi_code_cache_blocks"
	MDBIBlockExecs    = "optiwise_dbi_block_execs_total"
	MDBICleanCalls    = "optiwise_dbi_clean_calls_total"
	MDBIInstrEquiv    = "optiwise_dbi_instr_equivalents_total"
	MUnmatchedSamples = "optiwise_combine_unmatched_samples_total"
	MCombineInsts     = "optiwise_combine_inst_records_total"
	MCombineLoops     = "optiwise_combine_loop_records_total"
	MDomComputations  = "optiwise_loops_dominator_computations_total"

	// Concurrent-pipeline metrics: the two profiling passes overlap in
	// ProfileContext, and the combining analysis fans out over a worker
	// pool (see DESIGN.md §7).
	MProfileParallelRuns = "optiwise_profile_parallel_runs_total"
	MProfileOverlapPct   = "optiwise_profile_pass_overlap_pct"
	MAnalyzeShards       = "optiwise_analyze_shard_count"

	// Profiling-service (internal/serve) metrics.
	MServeJobsSubmitted  = "optiwise_serve_jobs_submitted_total"
	MServeJobsCompleted  = "optiwise_serve_jobs_completed_total"
	MServeJobsFailed     = "optiwise_serve_jobs_failed_total"
	MServeJobsRejected   = "optiwise_serve_jobs_rejected_total"
	MServeJobsCanceled   = "optiwise_serve_jobs_canceled_total"
	MServeQueueDepth     = "optiwise_serve_queue_depth"
	MServeInflightJobs   = "optiwise_serve_inflight_jobs"
	MServeCacheHits      = "optiwise_serve_cache_hits_total"
	MServeCacheMisses    = "optiwise_serve_cache_misses_total"
	MServeCacheEvictions = "optiwise_serve_cache_evictions_total"
	MServeCacheBytes     = "optiwise_serve_cache_bytes"
	MServeJobLatency     = "optiwise_serve_job_latency_us"

	// Robustness metrics: the deterministic fault-injection registry
	// (internal/fault) and the serve layer's failure handling
	// (DESIGN.md §8).
	MFaultInjections   = "optiwise_fault_injections_total"
	MServeWorkerPanics = "optiwise_serve_worker_panics_total"
	MServeJobRetries   = "optiwise_serve_job_retries_total"
	MServeJobsDegraded = "optiwise_serve_jobs_degraded_total"
	MProfileDegraded   = "optiwise_profile_degraded_total"

	// Observability-v2 metrics (PR 5).
	MFlightDumps = "optiwise_flight_dumps_total"

	// Differential-profiling metrics: the serve layer's per-lineage
	// regression detection (DESIGN.md §10).
	MProfileRegressions = "optiwise_profile_regressions_total"

	// Cluster metrics (internal/cluster, DESIGN.md §11): consistent-hash
	// routing between nodes, membership health, and the peer-aware
	// result cache.
	MClusterRingSize         = "optiwise_cluster_ring_size"
	MClusterPeersLive        = "optiwise_cluster_peers_live"
	MClusterPeersSuspect     = "optiwise_cluster_peers_suspect"
	MClusterPeersDead        = "optiwise_cluster_peers_dead"
	MClusterForwards         = "optiwise_cluster_forwards_total"
	MClusterForwardFailovers = "optiwise_cluster_forward_failovers_total"
	MClusterProbeFailures    = "optiwise_cluster_probe_failures_total"
	MClusterPeerFetchHits    = "optiwise_cluster_peer_fetch_hits_total"
	MClusterPeerFetchMisses  = "optiwise_cluster_peer_fetch_misses_total"
	MClusterPeerServed       = "optiwise_cluster_peer_results_served_total"
	MClusterProxiedLookups   = "optiwise_cluster_proxied_lookups_total"
	MServeJobsPeerFetched    = "optiwise_serve_jobs_peer_fetched_total"

	// Durability metrics (internal/durable, DESIGN.md §13): the WAL job
	// journal and cluster replication/anti-entropy.
	MDurableJournalReplays     = "optiwise_durable_journal_replays_total"
	MDurableRecordsTruncated   = "optiwise_durable_records_truncated_total"
	MClusterReplications       = "optiwise_cluster_replications_total"
	MClusterAntiEntropyRepairs = "optiwise_cluster_antientropy_repairs_total"

	// Observability-v3 metrics (DESIGN.md §14): runtime info, the
	// federated cluster-wide metrics view, and dashboard push channels.
	MBuildInfo                 = "optiwise_build_info"
	MUptimeSeconds             = "optiwise_uptime_seconds"
	MNodeUp                    = "optiwise_node_up"
	MClusterFederationScrapes  = "optiwise_cluster_federation_scrapes_total"
	MClusterFederationFailures = "optiwise_cluster_federation_failures_total"
	MClusterFederationStale    = "optiwise_cluster_federation_stale_total"
	MServeSSEClients           = "optiwise_serve_sse_clients"
)

// CacheHits names the hit counter of one simulated cache level; the
// level name ("L1", "L2", ...) is lowercased to satisfy metric naming
// conventions.
func CacheHits(level string) string {
	return "optiwise_cache_" + lower(level) + "_hits_total"
}

// CacheMisses returns the miss-counter name for a cache level.
func CacheMisses(level string) string {
	return "optiwise_cache_" + lower(level) + "_misses_total"
}

// lower is an ASCII-only strings.ToLower, avoiding the unicode tables
// on a hot-adjacent path.
func lower(s string) string {
	out := []byte(s)
	for i, c := range out {
		if c >= 'A' && c <= 'Z' {
			out[i] = c + 'a' - 'A'
		}
	}
	return string(out)
}

// helpFor maps well-known metric names to HELP strings; unknown names
// get a generic line so exposition stays valid.
func helpFor(name string) string {
	switch name {
	case MSimCycles:
		return "Simulated cycles executed across all pipeline-simulator runs."
	case MSimInstructions:
		return "Instructions retired by the simulated machine."
	case MSimMispredicts:
		return "Branch mispredicts observed by the simulated machine."
	case MSimBranches:
		return "Branches committed by the simulated machine."
	case MSamplesTaken:
		return "Samples recorded by the perf-like sampler."
	case MSamplesDropped:
		return "Samples dropped because the PC fell outside the module."
	case MSampleWeight:
		return "Distribution of per-sample weights (user cycles since previous sample)."
	case MDBIBlocksFound:
		return "Dynamic basic blocks discovered by the DBI engine."
	case MDBICodeCacheSize:
		return "Current DBI code-cache size in blocks."
	case MDBIBlockExecs:
		return "Dynamic block executions under instrumentation."
	case MDBICleanCalls:
		return "Expensive clean calls servicing indirect branches."
	case MDBIInstrEquiv:
		return "Modelled instrumentation cost in instruction equivalents."
	case MUnmatchedSamples:
		return "Samples at offsets the instrumented run never executed."
	case MCombineInsts:
		return "Per-instruction records produced by the combiner."
	case MCombineLoops:
		return "Merged-loop records produced by the combiner."
	case MDomComputations:
		return "Dominator-tree computations during loop analysis."
	case MProfileParallelRuns:
		return "Profiling pipelines that overlapped their sampling and instrumentation passes."
	case MProfileOverlapPct:
		return "Distribution of the pass-overlap ratio: percent of the shorter profiling pass hidden under the longer one."
	case MAnalyzeShards:
		return "Worker shards used by the most recent combining analysis."
	case MServeJobsSubmitted:
		return "Profiling jobs accepted by the service (including cache hits)."
	case MServeJobsCompleted:
		return "Profiling jobs that finished successfully."
	case MServeJobsFailed:
		return "Profiling jobs that failed or exceeded their deadline."
	case MServeJobsRejected:
		return "Submissions rejected with 429 because the job queue was full."
	case MServeJobsCanceled:
		return "Profiling jobs canceled by the client."
	case MServeQueueDepth:
		return "Jobs currently waiting in the service's bounded queue."
	case MServeInflightJobs:
		return "Jobs currently executing on the worker pool."
	case MServeCacheHits:
		return "Submissions served without a new simulation (result cache or coalesced onto an identical in-flight job)."
	case MServeCacheMisses:
		return "Submissions that required a new simulation."
	case MServeCacheEvictions:
		return "Results evicted from the content-addressed cache by the LRU byte budget."
	case MServeCacheBytes:
		return "Bytes currently held by the content-addressed result cache."
	case MServeJobLatency:
		return "Distribution of job latency (submit to completion) in microseconds."
	case MFaultInjections:
		return "Faults fired by the deterministic injection registry (internal/fault)."
	case MServeWorkerPanics:
		return "Worker panics recovered into structured job failures (the process keeps serving)."
	case MServeJobRetries:
		return "Job attempts re-run after a transient failure (capped exponential backoff with jitter)."
	case MServeJobsDegraded:
		return "Jobs that completed in degraded single-pass mode (cache-ineligible)."
	case MProfileDegraded:
		return "Profiling runs that fell back to a single-pass degraded result."
	case MFlightDumps:
		return "Flight-recorder dumps taken (panic, fault, degraded result, signal, or explicit request)."
	case MProfileRegressions:
		return "New lineage versions whose CPI regressed significantly past the configured threshold."
	case MClusterRingSize:
		return "Members currently on the node's consistent-hash ring."
	case MClusterPeersLive:
		return "Peers currently believed alive by the membership prober."
	case MClusterPeersSuspect:
		return "Peers with recent failed probes, not yet declared dead."
	case MClusterPeersDead:
		return "Peers declared dead and removed from the hash ring."
	case MClusterForwards:
		return "Submissions forwarded to their content-address owner on another node."
	case MClusterForwardFailovers:
		return "Forwards re-routed to a backup owner after a peer connection failure."
	case MClusterProbeFailures:
		return "Failed membership health probes."
	case MClusterPeerFetchHits:
		return "Ring fetches a sibling node answered with a result payload (verified by the fetcher before use)."
	case MClusterPeerFetchMisses:
		return "Ring fetch attempts that found no sibling holding the result and fell back to recomputation."
	case MClusterPeerServed:
		return "Cached results served to sibling nodes over the peer-cache endpoint."
	case MClusterProxiedLookups:
		return "Job lookups proxied to the node that owns the job."
	case MServeJobsPeerFetched:
		return "Jobs satisfied from a sibling node's result cache instead of a local simulation."
	case MDurableJournalReplays:
		return "Journal segments replayed at restart to rebuild service state."
	case MDurableRecordsTruncated:
		return "Journal records dropped during replay because a torn tail was truncated or mid-file corruption failed closed."
	case MClusterReplications:
		return "Completed results replicated to the key's ring successor, by the completion push or an anti-entropy pass."
	case MClusterAntiEntropyRepairs:
		return "Replica divergences repaired by the anti-entropy pass via the checksum-verified peer-fetch path."
	case MBuildInfo:
		return "Build metadata as constant labels (version, go_version, commit); value is always 1."
	case MUptimeSeconds:
		return "Seconds since this node's metrics registry was created."
	case MNodeUp:
		return "1 when the node's registry snapshot in a federated exposition is fresh, 0 when it is a stale last-known copy."
	case MClusterFederationScrapes:
		return "Peer registry snapshots fetched by the federated metrics endpoint."
	case MClusterFederationFailures:
		return "Peer registry scrapes that failed and fell back to a stale snapshot."
	case MClusterFederationStale:
		return "Federated responses that included at least one stale peer snapshot."
	case MServeSSEClients:
		return "Server-sent-event streams currently open (job events and cluster view)."
	}
	return "OptiWISE metric " + name + "."
}
