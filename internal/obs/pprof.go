package obs

import (
	_ "expvar" // registers /debug/vars on the default mux
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
)

// startPprofServer serves net/http/pprof and expvar on addr (e.g.
// "localhost:6060") in a background goroutine, for self-profiling the
// analysis pipeline the same way the paper self-reports its overhead.
// It returns the bound address (useful with ":0").
//
// /debug/pprof/ — CPU, heap, goroutine, mutex profiles.
// /debug/vars   — the stock expvar JSON (cmdline, memstats). Metrics
// are read from /metrics, not here.
func startPprofServer(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, nil) //nolint:errcheck // best-effort debug server
	return ln.Addr().String(), nil
}
