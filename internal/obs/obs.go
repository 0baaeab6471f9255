// Package obs is the observability layer of the OptiWISE reproduction:
// hierarchical span tracing, a metrics registry, a structured event
// logger, and self-profiling hooks, threaded through the whole pipeline
// (root package, sampler, DBI engine, combiner, report writers).
//
// The paper sells OptiWISE partly on its own cost envelope (§V-A:
// sampling ≈1.01×, instrumentation geomean ≈7.1×, analysis "minutes"),
// so this reproduction must be able to watch itself. Every future
// scaling PR (sharding, batching, caching) reports through this seam.
//
// # Always compiled in, nearly free when off
//
// Following the LTT/Kreutzer school of always-compiled-in tracing, the
// instrumentation points are unconditional in the source but gate on a
// single nil check at run time:
//
//   - obs.Start(name) returns a nil *Span when no tracer is installed;
//     all *Span methods are nil-safe no-ops.
//   - obs.Counter(name) returns a nil *Counter when no registry is
//     installed; Counter/Gauge/Histogram methods are nil-safe no-ops.
//
// Hot paths fetch their metric handles once and then pay one pointer
// compare per event in the disabled case (see BenchmarkObsDisabled).
//
// # Exporters
//
// A Tracer exports Chrome trace-event JSON (loadable in chrome://tracing
// and Perfetto). A Registry exports Prometheus text exposition. The
// Logger writes JSONL structured events (or human-readable text for
// terminal diagnostics). Config/BindFlags wire all of it to the
// -trace/-metrics/-log/-progress/-pprof CLI flags.
package obs

import "sync/atomic"

// The installed global instruments. Access is atomic so profiled code
// can read them from any goroutine without locks; nil means disabled.
var (
	activeTracer   atomic.Pointer[Tracer]
	activeRegistry atomic.Pointer[Registry]
	activeLogger   atomic.Pointer[Logger]
)

// SetTracer installs t as the process-global tracer (nil disables
// tracing). It returns the previously installed tracer.
func SetTracer(t *Tracer) *Tracer { return activeTracer.Swap(t) }

// SetRegistry installs r as the process-global metrics registry (nil
// disables metrics). It returns the previously installed registry.
func SetRegistry(r *Registry) *Registry { return activeRegistry.Swap(r) }

// ActiveRegistry returns the installed registry, or nil when disabled.
func ActiveRegistry() *Registry { return activeRegistry.Load() }

// setLogger installs l as the process-global structured logger (nil
// disables logging). It returns the previously installed logger.
func setLogger(l *Logger) *Logger { return activeLogger.Swap(l) }

// ActiveLogger returns the installed logger, or nil when disabled.
func ActiveLogger() *Logger { return activeLogger.Load() }

// Start opens a span on the global tracer. When tracing is disabled it
// returns nil, and every *Span method no-ops, so call sites never need
// to guard.
func Start(name string) *Span {
	t := activeTracer.Load()
	if t == nil {
		return nil
	}
	return t.Start(name)
}

// Counter returns the named counter from the global registry, or nil
// when metrics are disabled. Fetch once, then Add/Inc freely.
func Counter(name string) *CounterMetric {
	r := activeRegistry.Load()
	if r == nil {
		return nil
	}
	return r.Counter(name)
}

// Gauge returns the named gauge from the global registry, or nil when
// metrics are disabled.
func Gauge(name string) *GaugeMetric {
	r := activeRegistry.Load()
	if r == nil {
		return nil
	}
	return r.Gauge(name)
}

// Histogram returns the named histogram from the global registry, or
// nil when metrics are disabled.
func Histogram(name string) *HistogramMetric {
	r := activeRegistry.Load()
	if r == nil {
		return nil
	}
	return r.Histogram(name)
}
