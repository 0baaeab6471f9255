package serve

import "optiwise/internal/obs"

// serverMetrics holds the service's metric handles, fetched once at
// construction from the server's own registry, so each server counts
// its own events even when several share a process. Stats reads the
// same handles.
type serverMetrics struct {
	submitted  *obs.CounterMetric
	completed  *obs.CounterMetric
	failed     *obs.CounterMetric
	rejected   *obs.CounterMetric
	canceled   *obs.CounterMetric
	cacheHits  *obs.CounterMetric
	cacheMiss  *obs.CounterMetric
	queueDepth *obs.GaugeMetric
	inflight   *obs.GaugeMetric
	latencyUS  *obs.HistogramMetric

	workerPanics    *obs.CounterMetric
	retries         *obs.CounterMetric
	degraded        *obs.CounterMetric
	regressions     *obs.CounterMetric
	peerFetched     *obs.CounterMetric
	windowsAbsorbed *obs.CounterMetric

	journalReplays   *obs.CounterMetric
	recordsTruncated *obs.CounterMetric
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		submitted:  reg.Counter(obs.MServeJobsSubmitted),
		completed:  reg.Counter(obs.MServeJobsCompleted),
		failed:     reg.Counter(obs.MServeJobsFailed),
		rejected:   reg.Counter(obs.MServeJobsRejected),
		canceled:   reg.Counter(obs.MServeJobsCanceled),
		cacheHits:  reg.Counter(obs.MServeCacheHits),
		cacheMiss:  reg.Counter(obs.MServeCacheMisses),
		queueDepth: reg.Gauge(obs.MServeQueueDepth),
		inflight:   reg.Gauge(obs.MServeInflightJobs),
		latencyUS:  reg.Histogram(obs.MServeJobLatency),

		workerPanics:    reg.Counter(obs.MServeWorkerPanics),
		retries:         reg.Counter(obs.MServeJobRetries),
		degraded:        reg.Counter(obs.MServeJobsDegraded),
		regressions:     reg.Counter(obs.MProfileRegressions),
		peerFetched:     reg.Counter(obs.MServeJobsPeerFetched),
		windowsAbsorbed: reg.Counter(obs.MServeWindowsAbsorbed),

		journalReplays:   reg.Counter(obs.MDurableJournalReplays),
		recordsTruncated: reg.Counter(obs.MDurableRecordsTruncated),
	}
}

// Registry returns the server's own metrics registry. A cluster node
// built around the server counts into it too, so /metrics, the
// federation scrape and Stats read one count per event.
func (s *Server) Registry() *obs.Registry { return s.reg }

// MetricsSnapshot is the one read view of the server's metrics: its
// registry's families plus, when a process registry is installed, the
// library families (sim, sampler, dbi, combine) the profiling pipeline
// counts there. /metrics, the federation scrape, flight dumps and the
// serve command's -metrics file all read it.
func (s *Server) MetricsSnapshot() obs.RegistrySnapshot {
	snap := s.reg.FullSnapshot()
	if lib := obs.ActiveRegistry(); lib != nil {
		snap.Merge(lib.FullSnapshot())
	}
	return snap
}
