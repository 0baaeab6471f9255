package obs

import (
	"expvar"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"
)

// publishOnce guards the expvar publication of the metrics registry.
var publishOnce sync.Once

// startPprofServer serves net/http/pprof and expvar on addr (e.g.
// "localhost:6060") in a background goroutine, for self-profiling the
// analysis pipeline the same way the paper self-reports its overhead.
// It returns the bound address (useful with ":0").
//
// /debug/pprof/ — CPU, heap, goroutine, mutex profiles.
// /debug/vars   — expvar JSON, including an "optiwise_metrics" snapshot
// of the installed registry.
func startPprofServer(addr string) (string, error) {
	publishOnce.Do(func() {
		expvar.Publish("optiwise_metrics", expvar.Func(func() any {
			r := ActiveRegistry()
			if r == nil {
				return map[string]any{}
			}
			return r.Snapshot()
		}))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, nil) //nolint:errcheck // best-effort debug server
	return ln.Addr().String(), nil
}

// Snapshot returns a flat name→value view of the registry: counters and
// gauges directly, histograms as _sum/_count pairs. Used by the expvar
// endpoint and handy in tests.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counts)+len(r.gauges)+2*len(r.hists))
	for name, c := range r.counts {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+"_sum"] = h.Sum()
		out[name+"_count"] = h.Count()
	}
	return out
}
