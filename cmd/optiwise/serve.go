package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"optiwise/internal/cluster"
	"optiwise/internal/durable"
	"optiwise/internal/obs"
	"optiwise/internal/serve"
)

// exitDrainForced is the serve exit code when the -drain deadline
// expired before all jobs finished: the process still exits, but the
// operator (and any supervisor) can tell a forced exit from a clean
// drain (0) and from ordinary errors (1).
const exitDrainForced = 3

// drainForcedError marks a shutdown cut short by the drain deadline.
// main maps it to exitDrainForced via the ExitCode method.
type drainForcedError struct{ err error }

func (e *drainForcedError) Error() string {
	return fmt.Sprintf("serve: drain deadline forced exit: %v", e.err)
}
func (e *drainForcedError) Unwrap() error { return e.err }
func (e *drainForcedError) ExitCode() int { return exitDrainForced }

// cmdServe runs the long-lived profiling service: an HTTP JSON API in
// front of a bounded job queue, a fixed worker pool, and a
// content-addressed result cache. SIGINT/SIGTERM trigger a graceful
// drain: queued and in-flight jobs complete, new submissions get 503.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	addrFile := fs.String("addr-file", "", "write the bound address (host:port) to this file once listening; with -addr :0 this is the reliable way for scripts to discover the port")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue", 64, "bounded job-queue depth")
	cacheMB := fs.Int64("cache-mb", 256, "result-cache budget in MiB (negative disables)")
	timeout := fs.Duration("timeout", 60*time.Second, "default per-job deadline")
	maxTimeout := fs.Duration("max-timeout", 10*time.Minute, "cap on client-chosen deadlines")
	maxCycles := fs.Int64("max-cycles", 1<<32, "per-execution cycle bound (negative disables)")
	drainWait := fs.Duration("drain", 2*time.Minute, "max time to drain jobs on shutdown; exceeding it forces exit code 3")
	dataDir := fs.String("data-dir", "", "durable state directory (WAL job journal, program and result segments); empty keeps all state in memory")
	retries := fs.Int("retries", 0, "transient-failure retry budget per job (0 = default 2, negative disables)")
	flightDir := fs.String("flight-dir", "", "directory for flight-recorder dumps (panics, failed jobs, degraded results, SIGQUIT); empty keeps dumps in memory only")
	flightSize := fs.Int("flight-size", 0, "flight-recorder ring capacity in records (0 = default 4096, negative disables)")
	peers := fs.String("peers", "", "comma-separated sibling addresses (host:port) forming a profiling cluster")
	peersFile := fs.String("peers-file", "", "file of sibling addresses (one host:port per line), re-read periodically — use when peer ports are assigned late")
	advertise := fs.String("advertise", "", "address peers should reach this node at (default: the bound listen address)")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "cluster membership probe cadence")
	ui := fs.Bool("ui", true, "serve the embedded dashboard at /ui/")
	obsCfg := obs.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments")
	}
	flush, err := obsCfg.Activate()
	if err != nil {
		return err
	}
	// The server counts into a registry of its own; /metrics adds the
	// pipeline's library families from the process registry, so install
	// one even when no -metrics file was requested.
	if obs.ActiveRegistry() == nil {
		obs.SetRegistry(obs.NewRegistry())
	}

	// The serve daemon keeps its flight recorder (the crash "black box")
	// on by default: -flight-size 0 means the default ring, and only a
	// negative size opts out.
	if *flightSize == 0 {
		*flightSize = obs.DefaultFlightRecorderSize
	}
	srv, err := serve.NewDurable(serve.Config{
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		CacheBytes:         *cacheMB << 20,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		MaxJobCycles:       *maxCycles,
		RetryBudget:        *retries,
		FlightDumpDir:      *flightDir,
		FlightRecorderSize: *flightSize,
		DataDir:            *dataDir,
		UI:                 *ui,
	})
	if err != nil {
		return err
	}
	obsCfg.MetricsFrom(srv.MetricsSnapshot)
	if *dataDir != "" {
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "optiwise: durable state in %s (replayed %d journal records, %d truncated, %d cached results)\n",
			*dataDir, st.JournalReplays, st.RecordsTruncated, st.CacheEntries)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	// Cluster mode: -peers or -peers-file turns this process
	// into one node of a sharded profiling cluster (DESIGN.md §11). The
	// node must exist before Start so its peer-fetch hook is installed
	// before the first worker dequeues.
	var node *cluster.Node
	if *peers != "" || *peersFile != "" {
		self := *advertise
		if self == "" {
			self = ln.Addr().String()
		}
		node, err = cluster.New(cluster.Config{
			Self:          self,
			Peers:         splitAddrs(*peers),
			PeersFile:     *peersFile,
			ProbeInterval: *probeInterval,
		}, srv)
		if err != nil {
			ln.Close()
			return err
		}
	}
	srv.Start()

	// SIGQUIT snapshots the flight recorder without killing the server:
	// the operator's "what just happened" lever. (Go's default SIGQUIT
	// goroutine-dump-and-exit is traded for this; use -flight-size -1 to
	// keep the runtime default.)
	if *flightSize > 0 {
		quitc := make(chan os.Signal, 1)
		signal.Notify(quitc, syscall.SIGQUIT)
		go func() {
			for range quitc {
				if d, ok := srv.DumpFlight("sigquit"); ok {
					fmt.Fprintf(os.Stderr, "optiwise: SIGQUIT flight dump: %d records at %s\n",
						len(d.Records), d.TakenAt.Format(time.RFC3339Nano))
				}
			}
		}()
	}

	if *addrFile != "" {
		// Atomic temp+rename+fsync so a watching script never reads a
		// partial address: the file appears fully written, only after
		// the listener is bound, and survives a crash right after.
		if err := durable.AtomicWrite(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("serve: write -addr-file: %w", err)
		}
	}
	handler := srv.Handler()
	if node != nil {
		handler = node.Handler()
	}
	httpSrv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	if node != nil {
		node.Start()
		fmt.Fprintf(os.Stderr, "optiwise: serving on http://%s as cluster node (workers=%d queue=%d ring=%d)\n",
			ln.Addr(), srv.Config().Workers, srv.Config().QueueDepth, node.Ring().Size())
	} else {
		fmt.Fprintf(os.Stderr, "optiwise: serving on http://%s (workers=%d queue=%d)\n",
			ln.Addr(), srv.Config().Workers, srv.Config().QueueDepth)
	}
	if *ui {
		fmt.Fprintf(os.Stderr, "optiwise: dashboard at http://%s/ui/\n", ln.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "optiwise: %s received, draining\n", sig)
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if node != nil {
		node.Shutdown()
	}
	drainErr := srv.Shutdown(ctx)
	httpErr := httpSrv.Shutdown(ctx)
	// Final flight dump: the black box's last words, taken after the
	// drain so a forced exit records which jobs were cut short. With a
	// -flight-dir it lands on disk next to the crash dumps.
	if *flightSize > 0 {
		if d, ok := srv.DumpFlight("shutdown"); ok {
			fmt.Fprintf(os.Stderr, "optiwise: shutdown flight dump: %d records at %s\n",
				len(d.Records), d.TakenAt.Format(time.RFC3339Nano))
		}
	}
	if drainErr != nil {
		return &drainForcedError{drainErr}
	}
	if httpErr != nil {
		return &drainForcedError{httpErr}
	}
	fmt.Fprintln(os.Stderr, "optiwise: drained, exiting")
	return flush()
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// apiClient talks to a profiling service through one or more base URLs
// with connection-error failover: every request walks the address list
// starting from the last base that answered, so a killed cluster node
// costs one retry, not a failed submission. HTTP error statuses are
// answers, not failures — only transport errors fail over.
type apiClient struct {
	addrs []string
	cur   int
}

func newAPIClient(addrList string) (*apiClient, error) {
	addrs := splitAddrs(addrList)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no service address given")
	}
	for i, a := range addrs {
		if !strings.Contains(a, "://") {
			addrs[i] = "http://" + a
		}
	}
	return &apiClient{addrs: addrs}, nil
}

// do runs f against base URLs until one answers.
func (c *apiClient) do(f func(base string) (*http.Response, error)) (*http.Response, error) {
	var lastErr error
	for i := 0; i < len(c.addrs); i++ {
		idx := (c.cur + i) % len(c.addrs)
		resp, err := f(c.addrs[idx])
		if err == nil {
			c.cur = idx
			return resp, nil
		}
		lastErr = err
		if len(c.addrs) > 1 {
			fmt.Fprintf(os.Stderr, "optiwise: %s unreachable (%v), failing over\n", c.addrs[idx], err)
		}
	}
	return nil, lastErr
}

// base returns the URL of the last service address that answered.
func (c *apiClient) base() string { return c.addrs[c.cur] }

func (c *apiClient) get(path string) (*http.Response, error) {
	return c.do(func(base string) (*http.Response, error) { return http.Get(base + path) })
}

func (c *apiClient) post(path string, body []byte) (*http.Response, error) {
	return c.do(func(base string) (*http.Response, error) {
		return http.Post(base+path, "application/json", bytes.NewReader(body))
	})
}

// cmdSubmit sends one program to a running profiling service and
// prints the selected report.
func cmdSubmit(args []string) error {
	c := newFlags("submit")
	fs := c.fs
	addr := fs.String("addr", "http://127.0.0.1:8077", "service base URL, or a comma-separated list tried in order on connection failure (cluster frontends)")
	kind := fs.String("report", "full", "report kind: full, functions, loops, annotated, callgraph, csv, loops-csv, json")
	fn := fs.String("func", "", "function for -report annotated (default: hottest)")
	timeout := fs.Duration("timeout", 0, "per-job deadline (0 = server default)")
	poll := fs.Bool("poll", false, "poll job status instead of a blocking submit")
	traceID := fs.String("trace-id", "", "propagate a caller-chosen trace ID (32 lowercase hex digits; default: server-minted)")
	traceOut := fs.String("trace-out", "", "after completion, download the job's Chrome trace JSON to this file")
	open := fs.Bool("open", false, "print the job's dashboard drill-down URL after submission")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := c.options()
	if err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("submit wants exactly one program file")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	req := map[string]any{
		"machine": opts.Machine.Name,
		"options": map[string]any{
			"sample_period":  opts.SamplePeriod,
			"precise":        opts.Precise,
			"no_stack":       opts.DisableStackProfiling,
			"loop_threshold": opts.LoopThreshold,
			"attribution":    *c.attr,
			"allow_degraded": opts.AllowDegraded,
			"tiered":         opts.Tiered,
			"hot_threshold":  opts.HotThreshold,
			"stream_window":  opts.Window,
		},
		"wait": !*poll,
	}
	if *traceID != "" {
		req["trace_id"] = *traceID
	}
	if *timeout > 0 {
		req["timeout_ms"] = timeout.Milliseconds()
	}
	if len(data) >= 4 && string(data[:4]) == "OWX\x01" {
		req["binary"] = data
	} else {
		req["module"] = moduleName(fs.Arg(0))
		req["source"] = string(data)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	api, err := newAPIClient(*addr)
	if err != nil {
		return err
	}
	resp, err := api.post("/v1/jobs", body)
	if err != nil {
		return err
	}
	st, err := decodeJobStatus(resp)
	if err != nil {
		return err
	}
	if *open {
		fmt.Fprintf(os.Stderr, "optiwise: dashboard: %s/ui/#/jobs/%s\n", api.base(), st.ID)
	}
	if *poll {
		for !st.State.Terminal() {
			time.Sleep(200 * time.Millisecond)
			r, err := api.get("/v1/jobs/" + st.ID)
			if err != nil {
				return err
			}
			if st, err = decodeJobStatus(r); err != nil {
				return err
			}
		}
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if st.Degraded {
		fmt.Fprintf(os.Stderr, "optiwise: warning: degraded result (%s pass failed)\n", st.FailedPass)
	}
	if *traceOut != "" {
		if err := fetchTrace(api, st.ID, *traceOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "optiwise: wrote Chrome trace for job %s (trace %s) to %s\n",
			st.ID, st.TraceID, *traceOut)
	}
	path := "/v1/jobs/" + st.ID + "/report?kind=" + *kind
	if *fn != "" {
		path += "&func=" + *fn
	}
	rep, err := api.get(path)
	if err != nil {
		return err
	}
	defer rep.Body.Close()
	if rep.StatusCode != http.StatusOK {
		return fmt.Errorf("report: %s", readAPIError(rep))
	}
	_, err = io.Copy(os.Stdout, rep.Body)
	return err
}

// fetchTrace downloads GET /v1/jobs/{id}/trace into path.
func fetchTrace(api *apiClient, id, path string) error {
	resp, err := api.get("/v1/jobs/" + id + "/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace: %s", readAPIError(resp))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeJobStatus parses a job-status response, converting API error
// payloads into Go errors.
func decodeJobStatus(resp *http.Response) (serve.JobStatus, error) {
	defer resp.Body.Close()
	var st serve.JobStatus
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("service: %s", readAPIError(resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode status: %w", err)
	}
	return st, nil
}

// readAPIError extracts the {"error": ...} payload, falling back to
// the HTTP status line.
func readAPIError(resp *http.Response) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e); err == nil && e.Error != "" {
		return fmt.Sprintf("%s (%s)", e.Error, resp.Status)
	}
	return resp.Status
}
