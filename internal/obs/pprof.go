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
// /debug/vars   — expvar JSON, including the installed registry's
// RegistrySnapshot as "optiwise_metrics".
func startPprofServer(addr string) (string, error) {
	publishOnce.Do(func() {
		expvar.Publish("optiwise_metrics", expvar.Func(func() any {
			return ActiveRegistry().FullSnapshot()
		}))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, nil) //nolint:errcheck // best-effort debug server
	return ln.Addr().String(), nil
}
