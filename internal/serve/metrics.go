package serve

import "optiwise/internal/obs"

// serverMetrics holds the service's metric handles, fetched once at
// construction. Every handle is nil-safe, so a server running without
// an active obs registry pays one pointer compare per update.
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

	workerPanics *obs.CounterMetric
	retriesM     *obs.CounterMetric
	degraded     *obs.CounterMetric
	regressions  *obs.CounterMetric
	peerFetched  *obs.CounterMetric

	journalReplays   *obs.CounterMetric
	recordsTruncated *obs.CounterMetric
}

func newServerMetrics() serverMetrics {
	return serverMetrics{
		submitted:  obs.Counter(obs.MServeJobsSubmitted),
		completed:  obs.Counter(obs.MServeJobsCompleted),
		failed:     obs.Counter(obs.MServeJobsFailed),
		rejected:   obs.Counter(obs.MServeJobsRejected),
		canceled:   obs.Counter(obs.MServeJobsCanceled),
		cacheHits:  obs.Counter(obs.MServeCacheHits),
		cacheMiss:  obs.Counter(obs.MServeCacheMisses),
		queueDepth: obs.Gauge(obs.MServeQueueDepth),
		inflight:   obs.Gauge(obs.MServeInflightJobs),
		latencyUS:  obs.Histogram(obs.MServeJobLatency),

		workerPanics: obs.Counter(obs.MServeWorkerPanics),
		retriesM:     obs.Counter(obs.MServeJobRetries),
		degraded:     obs.Counter(obs.MServeJobsDegraded),
		regressions:  obs.Counter(obs.MProfileRegressions),
		peerFetched:  obs.Counter(obs.MServeJobsPeerFetched),

		journalReplays:   obs.Counter(obs.MDurableJournalReplays),
		recordsTruncated: obs.Counter(obs.MDurableRecordsTruncated),
	}
}
