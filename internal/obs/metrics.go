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
	Value    uint64 `json:"value"` // the observed value
	TraceID  string `json:"trace_id"`
	UnixNano int64  `json:"unix_nano"`
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
	MServeJobsSubmitted   = "optiwise_serve_jobs_submitted_total"
	MServeJobsCompleted   = "optiwise_serve_jobs_completed_total"
	MServeJobsFailed      = "optiwise_serve_jobs_failed_total"
	MServeJobsRejected    = "optiwise_serve_jobs_rejected_total"
	MServeJobsCanceled    = "optiwise_serve_jobs_canceled_total"
	MServeQueueDepth      = "optiwise_serve_queue_depth"
	MServeInflightJobs    = "optiwise_serve_inflight_jobs"
	MServeCacheHits       = "optiwise_serve_cache_hits_total"
	MServeCacheMisses     = "optiwise_serve_cache_misses_total"
	MServeCacheEvictions  = "optiwise_serve_cache_evictions_total"
	MServeCacheBytes      = "optiwise_serve_cache_bytes"
	MServeJobLatency      = "optiwise_serve_job_latency_us"
	MServeWindowsAbsorbed = "optiwise_serve_windows_absorbed_total"

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

// help holds the HELP strings of the well-known metric names.
var help = map[string]string{
	MSimCycles:                 "Simulated cycles executed across all pipeline-simulator runs.",
	MSimInstructions:           "Instructions retired by the simulated machine.",
	MSimMispredicts:            "Branch mispredicts observed by the simulated machine.",
	MSimBranches:               "Branches committed by the simulated machine.",
	MSamplesTaken:              "Samples recorded by the perf-like sampler.",
	MSamplesDropped:            "Samples dropped because the PC fell outside the module.",
	MSampleWeight:              "Distribution of per-sample weights (user cycles since previous sample).",
	MDBIBlocksFound:            "Dynamic basic blocks discovered by the DBI engine.",
	MDBICodeCacheSize:          "Current DBI code-cache size in blocks.",
	MDBIBlockExecs:             "Dynamic block executions under instrumentation.",
	MDBICleanCalls:             "Expensive clean calls servicing indirect branches.",
	MDBIInstrEquiv:             "Modelled instrumentation cost in instruction equivalents.",
	MUnmatchedSamples:          "Samples at offsets the instrumented run never executed.",
	MCombineInsts:              "Per-instruction records produced by the combiner.",
	MCombineLoops:              "Merged-loop records produced by the combiner.",
	MDomComputations:           "Dominator-tree computations during loop analysis.",
	MProfileParallelRuns:       "Profiling pipelines that overlapped their sampling and instrumentation passes.",
	MProfileOverlapPct:         "Distribution of the pass-overlap ratio: percent of the shorter profiling pass hidden under the longer one.",
	MAnalyzeShards:             "Worker shards used by the most recent combining analysis.",
	MServeJobsSubmitted:        "Profiling jobs accepted by the service (including cache hits).",
	MServeJobsCompleted:        "Profiling jobs that finished successfully.",
	MServeJobsFailed:           "Profiling jobs that failed or exceeded their deadline.",
	MServeJobsRejected:         "Submissions rejected with 429 because the job queue was full.",
	MServeJobsCanceled:         "Profiling jobs canceled by the client.",
	MServeQueueDepth:           "Jobs currently waiting in the service's bounded queue.",
	MServeInflightJobs:         "Jobs currently executing on the worker pool.",
	MServeCacheHits:            "Submissions served without a new simulation (result cache or coalesced onto an identical in-flight job).",
	MServeCacheMisses:          "Submissions that required a new simulation.",
	MServeCacheEvictions:       "Results evicted from the content-addressed cache by the LRU byte budget.",
	MServeCacheBytes:           "Bytes currently held by the content-addressed result cache.",
	MServeJobLatency:           "Distribution of job latency (submit to completion) in microseconds.",
	MServeWindowsAbsorbed:      "Windows (sampling and instrumentation) absorbed by executions with a window.",
	MFaultInjections:           "Faults fired by the deterministic injection registry (internal/fault).",
	MServeWorkerPanics:         "Worker panics recovered into structured job failures (the process keeps serving).",
	MServeJobRetries:           "Job attempts re-run after a transient failure (capped exponential backoff with jitter).",
	MServeJobsDegraded:         "Jobs that completed in degraded single-pass mode (cache-ineligible).",
	MProfileDegraded:           "Profiling runs that fell back to a single-pass degraded result.",
	MFlightDumps:               "Flight-recorder dumps taken (panic, fault, degraded result, signal, or explicit request).",
	MProfileRegressions:        "New lineage versions whose CPI regressed significantly past the configured threshold.",
	MClusterRingSize:           "Members currently on the node's consistent-hash ring.",
	MClusterPeersLive:          "Peers currently believed alive by the membership prober.",
	MClusterPeersSuspect:       "Peers with recent failed probes, not yet declared dead.",
	MClusterPeersDead:          "Peers declared dead and removed from the hash ring.",
	MClusterForwards:           "Submissions forwarded to their content-address owner on another node.",
	MClusterForwardFailovers:   "Forwards re-routed to a backup owner after a peer connection failure.",
	MClusterProbeFailures:      "Failed membership health probes.",
	MClusterPeerFetchHits:      "Ring fetches a sibling node answered with a result payload (verified by the fetcher before use).",
	MClusterPeerFetchMisses:    "Ring fetch attempts that found no sibling holding the result and fell back to recomputation.",
	MClusterPeerServed:         "Cached results served to sibling nodes over the peer-cache endpoint.",
	MClusterProxiedLookups:     "Job lookups proxied to the node that owns the job.",
	MServeJobsPeerFetched:      "Jobs satisfied from a sibling node's result cache instead of a local simulation.",
	MDurableJournalReplays:     "Journal segments replayed at restart to rebuild service state.",
	MDurableRecordsTruncated:   "Journal records dropped during replay because a torn tail was truncated or mid-file corruption failed closed.",
	MClusterReplications:       "Completed results replicated to the key's ring successor, by the completion push or an anti-entropy pass.",
	MClusterAntiEntropyRepairs: "Replica divergences repaired by the anti-entropy pass via the checksum-verified peer-fetch path.",
	MBuildInfo:                 "Build metadata as constant labels (version, go_version, commit); value is always 1.",
	MUptimeSeconds:             "Seconds since this node's metrics registry was created.",
	MNodeUp:                    "1 when the node's registry snapshot in a federated exposition is fresh, 0 when it is a stale last-known copy.",
	MClusterFederationScrapes:  "Peer registry snapshots fetched by the federated metrics endpoint.",
	MClusterFederationFailures: "Peer registry scrapes that failed and fell back to a stale snapshot.",
	MServeSSEClients:           "Server-sent-event streams currently open (job events and cluster view).",
}

// helpFor returns name's HELP string; unknown names get a generic line
// so exposition stays valid.
func helpFor(name string) string {
	if h, ok := help[name]; ok {
		return h
	}
	return "OptiWISE metric " + name + "."
}
