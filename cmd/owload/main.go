// Command owload is the cluster load generator: thousands of
// concurrent synthetic clients submitting mixed workloads (drawn from
// the internal/workloads suite) against one or more optiwise serve
// frontends, with a configurable duplicate-key ratio exercising the
// cluster's cross-node dedup. It records sustained throughput, the
// job-latency percentile curve, and the dedup/cache counters the
// cluster claims (cached / coalesced / peer-fetched shares, forwards),
// and can merge labelled runs into one JSON file so a single-node
// baseline and a cluster run sit side by side.
//
// Usage:
//
//	owload -addr 127.0.0.1:8077,127.0.0.1:8078 -clients 200 -duration 30s \
//	       -dup 0.5 -label cluster3 -out owload.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"optiwise/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "owload:", err)
		os.Exit(1)
	}
}

type config struct {
	addrs    []string
	clients  int
	duration time.Duration
	dup      float64
	nSpecs   int
	scale    float64
	timeout  time.Duration
	seed     int64
	label    string
	out      string
	dupPool  int
	jsonOut  bool
	push     bool
}

func run(args []string) error {
	fs := flag.NewFlagSet("owload", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "comma-separated frontend addresses (host:port or URLs); clients spread across them and fail over on connection errors")
	clients := fs.Int("clients", 64, "concurrent synthetic clients")
	duration := fs.Duration("duration", 20*time.Second, "load duration")
	dup := fs.Float64("dup", 0.5, "duplicate-key ratio: probability a submission reuses a seed from the shared pool (identical job key) instead of a fresh one")
	dupPool := fs.Int("dup-pool", 16, "size of the shared duplicate-seed pool")
	nSpecs := fs.Int("workloads", 6, "distinct workload specs in the mix (from the synthetic suite)")
	scale := fs.Float64("scale", 0.02, "workload iteration scale factor (keep jobs short)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-job deadline")
	seed := fs.Int64("seed", 1, "base RNG seed")
	label := fs.String("label", "run", "label for this run in the output JSON")
	out := fs.String("out", "", "merge this run's results into a JSON file keyed by label; empty prints to stdout")
	jsonOut := fs.Bool("json", false, "print the per-run summary JSON to stdout even when -out is set (the dashboard-ingestion shape)")
	push := fs.Bool("push", false, "POST the per-run summary to each frontend's /api/v1/owload so the dashboard's cluster view renders it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := config{
		addrs:    splitAddrs(*addr),
		clients:  *clients,
		duration: *duration,
		dup:      *dup,
		nSpecs:   *nSpecs,
		scale:    *scale,
		timeout:  *timeout,
		seed:     *seed,
		label:    *label,
		out:      *out,
		dupPool:  *dupPool,
		jsonOut:  *jsonOut,
		push:     *push,
	}
	if len(cfg.addrs) == 0 {
		return fmt.Errorf("-addr wants at least one address")
	}
	if cfg.clients < 1 || cfg.nSpecs < 1 || cfg.dupPool < 1 {
		return fmt.Errorf("-clients, -workloads, and -dup-pool want >= 1")
	}
	if cfg.dup < 0 || cfg.dup > 1 {
		return fmt.Errorf("-dup wants a ratio in [0,1]")
	}
	res, err := drive(cfg)
	if err != nil {
		return err
	}
	return emit(cfg, res)
}

func splitAddrs(s string) []string {
	var out []string
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	for _, a := range fields {
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		out = append(out, strings.TrimRight(a, "/"))
	}
	return out
}

// prepared is one workload's ready-to-send submission template.
type prepared struct {
	name   string
	source string
}

// clientStats is one client's tally, merged after the run.
type clientStats struct {
	done, failed, rejected, transport uint64
	cached, coalesced, peerFetched    uint64
	latencies                         []float64 // ms, successful jobs only
	// computedBy counts, per job digest, how many of this client's
	// successful jobs were computed fresh (not cached, coalesced, or
	// peer-fetched) — the cross-client merge proves each duplicate key
	// computed exactly once.
	computedBy map[string]int
}

// runResult is the merged outcome written to the output JSON.
type runResult struct {
	Label        string      `json:"label"`
	Addrs        []string    `json:"addrs"`
	Clients      int         `json:"clients"`
	DurationSec  float64     `json:"duration_sec"`
	CPUs         int         `json:"cpus"`
	Workloads    []string    `json:"workloads"`
	DupRatio     float64     `json:"dup_ratio"`
	JobsDone     uint64      `json:"jobs_done"`
	JobsFailed   uint64      `json:"jobs_failed"`
	Rejected     uint64      `json:"rejected_429"`
	Transport    uint64      `json:"transport_errors"`
	Throughput   float64     `json:"throughput_jobs_per_sec"`
	Cached       uint64      `json:"served_cached"`
	Coalesced    uint64      `json:"served_coalesced"`
	PeerFetched  uint64      `json:"served_peer_fetched"`
	UniqueKeys   int         `json:"unique_keys"`
	MaxComputes  int         `json:"max_computations_per_key"`
	LatencyMS    latencies   `json:"latency_ms"`
	Nodes        []nodeTally `json:"nodes,omitempty"`
	GeneratedCmd string      `json:"command"`
}

type latencies struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// nodeTally is the slice of each node's /v1/stats the benchmark cares
// about, scraped after the run.
type nodeTally struct {
	Addr            string `json:"addr"`
	Inflight        int64  `json:"inflight,omitempty"`
	Jobs            int    `json:"jobs"`
	CacheEntries    int    `json:"cache_entries"`
	JobsPeerFetched uint64 `json:"jobs_peer_fetched"`
	Forwarded       uint64 `json:"forwarded,omitempty"`
	Failovers       uint64 `json:"forward_failovers,omitempty"`
	PeerFetchHits   uint64 `json:"peer_fetch_hits,omitempty"`
	PeerServed      uint64 `json:"peer_results_served,omitempty"`
	RingSize        int    `json:"ring_size,omitempty"`
}

func drive(cfg config) (*runResult, error) {
	specs := workloads.Suite()
	if cfg.nSpecs < len(specs) {
		specs = specs[:cfg.nSpecs]
	}
	progs := make([]prepared, len(specs))
	for i, s := range specs {
		progs[i] = prepared{name: s.Name, source: workloads.Generate(s.Scale(cfg.scale))}
	}

	client := &http.Client{Timeout: cfg.timeout + 30*time.Second}
	deadline := time.Now().Add(cfg.duration)
	tallies := make([]*clientStats, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c] = runClient(cfg, client, progs, c, deadline)
		}(c)
	}
	wg.Wait()

	res := &runResult{
		Label:       cfg.label,
		Addrs:       cfg.addrs,
		Clients:     cfg.clients,
		DurationSec: cfg.duration.Seconds(),
		CPUs:        runtime.NumCPU(),
		DupRatio:    cfg.dup,
	}
	for _, p := range progs {
		res.Workloads = append(res.Workloads, p.name)
	}
	computed := make(map[string]int)
	var all []float64
	for _, t := range tallies {
		res.JobsDone += t.done
		res.JobsFailed += t.failed
		res.Rejected += t.rejected
		res.Transport += t.transport
		res.Cached += t.cached
		res.Coalesced += t.coalesced
		res.PeerFetched += t.peerFetched
		all = append(all, t.latencies...)
		for k, v := range t.computedBy {
			computed[k] += v
		}
	}
	res.UniqueKeys = len(computed)
	for _, v := range computed {
		if v > res.MaxComputes {
			res.MaxComputes = v
		}
	}
	res.Throughput = float64(res.JobsDone) / cfg.duration.Seconds()
	res.LatencyMS = summarize(all)
	for _, addr := range cfg.addrs {
		if nt, ok := scrapeStats(client, addr); ok {
			res.Nodes = append(res.Nodes, nt)
		}
	}
	return res, nil
}

// runClient is one synthetic client: submit, wait, tally, repeat until
// the deadline.
func runClient(cfg config, client *http.Client, progs []prepared, id int, deadline time.Time) *clientStats {
	t := &clientStats{computedBy: make(map[string]int)}
	rng := rand.New(rand.NewSource(cfg.seed + int64(id)*7919))
	addrIdx := id % len(cfg.addrs)
	var unique int64 = int64(id) << 32 // disjoint per-client fresh-seed space
	for time.Now().Before(deadline) {
		p := progs[rng.Intn(len(progs))]
		var randSeed uint64
		if rng.Float64() < cfg.dup {
			// Shared pool: many clients submit this exact (program, seed)
			// pair, so its job key collides cluster-wide.
			randSeed = uint64(rng.Intn(cfg.dupPool)) + 1
		} else {
			unique++
			randSeed = uint64(unique) | 1<<62
		}
		body, err := json.Marshal(map[string]any{
			"module": p.name,
			"source": p.source,
			"options": map[string]any{
				"rand_seed": randSeed,
			},
			"timeout_ms": cfg.timeout.Milliseconds(),
			"wait":       true,
		})
		if err != nil {
			t.failed++
			continue
		}
		start := time.Now()
		status, outcome := submit(client, cfg.addrs, &addrIdx, body, deadline)
		switch outcome {
		case outcomeOK:
			t.done++
			t.latencies = append(t.latencies, float64(time.Since(start).Microseconds())/1000)
			key := status.Digest
			switch {
			case status.Cached:
				t.cached++
			case status.Coalesced:
				t.coalesced++
			case status.PeerFetched:
				t.peerFetched++
			default:
				t.computedBy[key]++
			}
			if _, ok := t.computedBy[key]; !ok {
				t.computedBy[key] = 0 // count the key even when it never computed here
			}
		case outcomeRejected:
			t.rejected++
		case outcomeTransport:
			t.transport++
		default:
			t.failed++
		}
	}
	return t
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeFailed
	outcomeRejected
	outcomeTransport
)

// jobStatus is the subset of the serve job status owload reads.
type jobStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Digest      string `json:"digest"`
	Cached      bool   `json:"cached"`
	Coalesced   bool   `json:"coalesced"`
	PeerFetched bool   `json:"peer_fetched"`
}

// submit POSTs one job with frontend failover and 429 backoff. The
// addr index rotates on transport errors so a killed frontend is
// abandoned by all its clients after one failed request each.
func submit(client *http.Client, addrs []string, addrIdx *int, body []byte, deadline time.Time) (jobStatus, outcome) {
	var st jobStatus
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) && attempt > 0 {
			return st, outcomeTransport
		}
		addr := addrs[*addrIdx%len(addrs)]
		resp, err := client.Post(addr+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			*addrIdx++
			if attempt >= len(addrs) {
				return st, outcomeTransport
			}
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st)
			resp.Body.Close()
			if err != nil || st.State != "done" {
				return st, outcomeFailed
			}
			return st, outcomeOK
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Backpressure: honour Retry-After (capped — this is a load
			// generator, not a polite client) and try again. The retry
			// itself is the measurement: a saturated single node keeps
			// clients in this loop while a cluster absorbs them.
			wait := time.Second
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				wait = time.Duration(ra) * time.Second
			}
			if wait > 2*time.Second {
				wait = 2 * time.Second
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain
			resp.Body.Close()
			time.Sleep(wait)
			return st, outcomeRejected
		default:
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain
			resp.Body.Close()
			return st, outcomeFailed
		}
	}
}

func summarize(ms []float64) latencies {
	if len(ms) == 0 {
		return latencies{}
	}
	sort.Float64s(ms)
	var sum float64
	for _, v := range ms {
		sum += v
	}
	pick := func(q float64) float64 {
		i := int(q * float64(len(ms)-1))
		return ms[i]
	}
	return latencies{
		P50:  pick(0.50),
		P90:  pick(0.90),
		P99:  pick(0.99),
		Mean: sum / float64(len(ms)),
		Max:  ms[len(ms)-1],
	}
}

// scrapeStats pulls the relevant counters from one node's /v1/stats.
func scrapeStats(client *http.Client, addr string) (nodeTally, bool) {
	nt := nodeTally{Addr: addr}
	resp, err := client.Get(addr + "/v1/stats")
	if err != nil {
		return nt, false
	}
	defer resp.Body.Close()
	var stats struct {
		Inflight        int64  `json:"inflight"`
		Jobs            int    `json:"jobs"`
		CacheEntries    int    `json:"cache_entries"`
		JobsPeerFetched uint64 `json:"jobs_peer_fetched"`
		Cluster         *struct {
			RingSize      int    `json:"ring_size"`
			Forwarded     uint64 `json:"forwarded"`
			Failovers     uint64 `json:"forward_failovers"`
			PeerFetchHits uint64 `json:"peer_fetch_hits"`
			PeerServed    uint64 `json:"peer_results_served"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&stats); err != nil {
		return nt, false
	}
	nt.Inflight = stats.Inflight
	nt.Jobs = stats.Jobs
	nt.CacheEntries = stats.CacheEntries
	nt.JobsPeerFetched = stats.JobsPeerFetched
	if stats.Cluster != nil {
		nt.RingSize = stats.Cluster.RingSize
		nt.Forwarded = stats.Cluster.Forwarded
		nt.Failovers = stats.Cluster.Failovers
		nt.PeerFetchHits = stats.Cluster.PeerFetchHits
		nt.PeerServed = stats.Cluster.PeerServed
	}
	return nt, true
}

// emit writes the run result: merged into -out under the run label
// (read-modify-write so successive runs accumulate), or to stdout.
func emit(cfg config, res *runResult) error {
	res.GeneratedCmd = fmt.Sprintf("owload -addr %s -clients %d -duration %s -dup %g -workloads %d -scale %g",
		strings.Join(res.Addrs, ","), cfg.clients, cfg.duration, cfg.dup, cfg.nSpecs, cfg.scale)
	fmt.Fprintf(os.Stderr,
		"owload[%s]: %d done (%.1f jobs/s), %d failed, %d rejected, %d transport; latency p50=%.0fms p90=%.0fms p99=%.0fms; %d unique keys, max %d computations/key (cached=%d coalesced=%d peer=%d)\n",
		cfg.label, res.JobsDone, res.Throughput, res.JobsFailed, res.Rejected, res.Transport,
		res.LatencyMS.P50, res.LatencyMS.P90, res.LatencyMS.P99,
		res.UniqueKeys, res.MaxComputes, res.Cached, res.Coalesced, res.PeerFetched)
	if cfg.push {
		pushRun(res)
	}
	if cfg.out == "" || cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	}
	if cfg.out == "" {
		return nil
	}
	all := map[string]*runResult{}
	if data, err := os.ReadFile(cfg.out); err == nil {
		_ = json.Unmarshal(data, &all) //nolint:errcheck // a fresh file replaces garbage
	}
	all[cfg.label] = res
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.out, append(data, '\n'), 0o644)
}

// pushRun POSTs the summary to every frontend's owload-ingestion
// endpoint so any node's dashboard can render the run. Push failures
// warn and move on — the load numbers were already measured.
func pushRun(res *runResult) {
	body, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "owload: push encode failed: %v\n", err)
		return
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for _, addr := range res.Addrs {
		resp, err := client.Post(addr+"/api/v1/owload", "application/json", bytes.NewReader(body))
		if err != nil {
			fmt.Fprintf(os.Stderr, "owload: push to %s failed: %v\n", addr, err)
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "owload: push to %s answered %s\n", addr, resp.Status)
			continue
		}
		fmt.Fprintf(os.Stderr, "owload: run %q pushed to %s/api/v1/owload\n", res.Label, addr)
	}
}
