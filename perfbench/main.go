// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": 140, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// benchmark-side tracing. With -trace 1 the run interleaves untraced and
// traced operations, times every layer call from outside with spans, and
// reports the per-layer metrics derived from those spans; the span tree is
// written to a trace file under -out when the run ends.
//
// Workloads (see README.md for why each exists):
//
//	profile        ProfileContext + report render, over pointer-chasing
//	               programs whose simulated core mostly waits on misses
//	               (full mode) and cache-resident, branch- and
//	               indirect-dense programs (full and tiered mode)
//	serve-cluster  HTTP traffic into a 2-node durable loopback cluster
//
// Any failed operation or correctness check makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef declares one reported metric: its name and unit. The two
// tables below are the benchmark's contract; BENCHMARK.json at the
// repository root lists the same names and units (the smoke test checks).
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
	{"cpi_err_inst_pct", "%"},
	{"cpi_err_block_pct", "%"},
	{"cpi_err_func_pct", "%"},
	{"hit_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
}

// perLayer are the traced metrics every workload reports; a layer the
// workload's operations never call reports 0.
var perLayer = []metricDef{
	{"asm.busy_ms_per_program", "ms"},
	{"ooo.busy_ms_per_op", "ms"},
	{"ooo.mcycles_s", "Mcycles/s"},
	{"ooo.minst_s", "Minst/s"},
	{"ooo.ipc", "inst/cycle"},
	{"ooo.stall_ms_per_op", "ms"},
	{"ooo.stall_ipc", "inst/cycle"},
	{"ooo.compute_ms_per_op", "ms"},
	{"ooo.compute_ipc", "inst/cycle"},
	{"dbi.busy_ms_per_op", "ms"},
	{"dbi.minst_s", "Minst/s"},
	{"dbi.instrumented_pct", "%"},
	{"dbi.critical_pct", "%"},
	{"core.busy_ms_per_op", "ms"},
	{"core.blocks_per_op", "count"},
	{"report.busy_ms_per_op", "ms"},
	{"report.kb_per_op", "KB"},
	{"serve.wire_ms_per_op", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.repeat_submissions", "count"},
	{"durable.bytes_per_miss", "B"},
	{"durable.windows_checkpointed", "count"},
	{"cluster.forwarded_ratio", "ratio"},
	{"cluster.replications_per_miss", "count"},
	{"cluster.peer_fetch_hits", "count"},
	{"cluster.hop_ms", "ms"},
	{"stream.windows_per_op", "count"},
	{"diff.versions_diffed", "count"},
	{"diff.regressions", "count"},
	{"unaccounted_ms", "ms"},
	{"unaccounted_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out holds everything the run writes: cluster data directories and
	// the trace file.
	out string
	// smoke shrinks every workload to a few small operations (tests).
	smoke bool
}

// result is what a workload hands back: op counts, failure messages, and
// the metrics of the requested mode.
type result struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloadRuns = map[string]func(config) (*result, error){
	"profile":       runProfile,
	"serve-cluster": runServeCluster,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outputJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// run executes cfg's workload and shapes its output line.
func run(cfg config) (outputJSON, error) {
	w, ok := workloadRuns[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloadRuns))
		for n := range workloadRuns {
			names = append(names, n)
		}
		sort.Strings(names)
		return outputJSON{}, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, names)
	}
	res, err := w(cfg)
	if err != nil {
		return outputJSON{}, err
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := outputJSON{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return outputJSON{}, fmt.Errorf("workload %s did not report metric %s", cfg.workload, d.name)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: profile, serve-cluster")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured run length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports traced per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for data directories and trace files")
	flag.Parse()
	cfg.trace = traceFlag != 0
	if abs, err := filepath.Abs(cfg.out); err == nil {
		cfg.out = abs
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	start := time.Now()
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v took %.1fs\n",
		cfg.workload, cfg.seed, cfg.trace, time.Since(start).Seconds())
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}
