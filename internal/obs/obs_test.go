package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeTracer returns a tracer whose clock advances 100µs per reading,
// giving deterministic span timestamps for golden tests.
func fakeTracer() *Tracer {
	t := NewTracer()
	var tick time.Duration
	t.clock = func() time.Duration {
		tick += 100 * time.Microsecond
		return tick
	}
	return t
}

func TestChromeTraceGolden(t *testing.T) {
	tr := fakeTracer()
	root := tr.Start("profile").SetAttr("module", "demo")
	child := tr.Start("sample").SetAttr("period", 2000)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, "", nil); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `{
 "traceEvents": [
  {
   "name": "profile",
   "ph": "X",
   "ts": 100,
   "dur": 300,
   "pid": 1,
   "tid": 1,
   "args": {
    "module": "demo"
   }
  },
  {
   "name": "sample",
   "ph": "X",
   "ts": 200,
   "dur": 100,
   "pid": 1,
   "tid": 1,
   "args": {
    "period": 2000
   }
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if got != want {
		t.Errorf("chrome trace mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The file must be valid JSON (what Perfetto's legacy JSON importer
	// checks first) with the traceEvents array present.
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 2 {
		t.Fatalf("want 2 trace events, got %d", len(parsed.TraceEvents))
	}
	for _, ev := range parsed.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("trace event missing required field %q: %v", key, ev)
			}
		}
	}
}

func TestSpanNesting(t *testing.T) {
	tr := fakeTracer()
	a := tr.Start("a")
	b := tr.Start("b")
	c := tr.Start("c")
	c.End()
	b.End()
	d := tr.Start("d") // sibling of b, child of a
	d.End()
	a.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("want 4 spans, got %d", len(spans))
	}
	parents := map[string]int{}
	ids := map[string]int{}
	for _, s := range spans {
		parents[s.Name] = s.Parent
		ids[s.Name] = s.ID
	}
	if parents["a"] != -1 {
		t.Errorf("a should be a root, parent=%d", parents["a"])
	}
	if parents["b"] != ids["a"] || parents["d"] != ids["a"] {
		t.Errorf("b and d should nest under a: %v", parents)
	}
	if parents["c"] != ids["b"] {
		t.Errorf("c should nest under b: %v", parents)
	}
}

func TestSpanDoubleEndAndOutOfOrder(t *testing.T) {
	tr := fakeTracer()
	a := tr.Start("a")
	b := tr.Start("b")
	a.End() // out of order: a ends while b is open
	b.End()
	b.End() // double end is a no-op
	if n := len(tr.Spans()); n != 2 {
		t.Fatalf("want 2 spans, got %d", n)
	}
}

func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(MDBICleanCalls).Add(42)
	r.Gauge(MDBICodeCacheSize).Set(17)
	h := r.Histogram(MSampleWeight)
	h.Observe(0)    // bucket 0
	h.Observe(1)    // bucket 1 (le 1)
	h.Observe(5)    // bucket 3 (le 7)
	h.Observe(2000) // bucket 11 (le 2047)

	var buf bytes.Buffer
	if err := WriteExposition(&buf, local(r), false); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# HELP optiwise_dbi_clean_calls_total Expensive clean calls servicing indirect branches.
# TYPE optiwise_dbi_clean_calls_total counter
optiwise_dbi_clean_calls_total 42
# HELP optiwise_dbi_code_cache_blocks Current DBI code-cache size in blocks.
# TYPE optiwise_dbi_code_cache_blocks gauge
optiwise_dbi_code_cache_blocks 17
# HELP optiwise_sampler_sample_weight_cycles Distribution of per-sample weights (user cycles since previous sample).
# TYPE optiwise_sampler_sample_weight_cycles histogram
optiwise_sampler_sample_weight_cycles_bucket{le="0"} 1
optiwise_sampler_sample_weight_cycles_bucket{le="1"} 2
optiwise_sampler_sample_weight_cycles_bucket{le="3"} 2
optiwise_sampler_sample_weight_cycles_bucket{le="7"} 3
optiwise_sampler_sample_weight_cycles_bucket{le="15"} 3
optiwise_sampler_sample_weight_cycles_bucket{le="31"} 3
optiwise_sampler_sample_weight_cycles_bucket{le="63"} 3
optiwise_sampler_sample_weight_cycles_bucket{le="127"} 3
optiwise_sampler_sample_weight_cycles_bucket{le="255"} 3
optiwise_sampler_sample_weight_cycles_bucket{le="511"} 3
optiwise_sampler_sample_weight_cycles_bucket{le="1023"} 3
optiwise_sampler_sample_weight_cycles_bucket{le="2047"} 4
optiwise_sampler_sample_weight_cycles_bucket{le="+Inf"} 4
optiwise_sampler_sample_weight_cycles_sum 2006
optiwise_sampler_sample_weight_cycles_count 4
`
	if got != want {
		t.Errorf("prometheus exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPrometheusExpositionShape validates structural rules of the text
// format: every sample line's metric family has HELP and TYPE lines,
// histograms end with _sum and _count, bucket counts are cumulative.
func TestPrometheusExpositionShape(t *testing.T) {
	r := NewRegistry()
	r.Counter(MSimCycles).Add(123456)
	r.Counter(CacheHits("L1")).Add(99)
	r.Counter(CacheMisses("L1")).Add(1)
	r.Histogram("optiwise_test_latency").Observe(77)

	var buf bytes.Buffer
	if err := WriteExposition(&buf, local(r), false); err != nil {
		t.Fatal(err)
	}
	typed := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[fields[2]] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				family = strings.TrimSuffix(name, suffix)
			}
		}
		if !typed[family] && !typed[name] {
			t.Errorf("sample %q has no TYPE line", line)
		}
	}
	if !typed["optiwise_cache_l1_hits_total"] {
		t.Error("cache hit counter family missing from exposition")
	}
}

func TestJSONLLogger(t *testing.T) {
	var buf bytes.Buffer
	l := newJSONLLogger(&buf, LevelInfo)
	l.now = func() time.Time { return time.Unix(1700000000, 0) }
	l.Debug("dropped") // below min level
	l.Info("hello", F("k", "v"), F("n", 3))
	l.Warn("careful")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 log lines, got %d: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line not valid JSON: %v", err)
	}
	if rec["msg"] != "hello" || rec["level"] != "info" || rec["k"] != "v" {
		t.Errorf("unexpected record: %v", rec)
	}
	if _, ok := rec["ts"]; !ok {
		t.Error("record missing ts")
	}
}

func TestTextLogger(t *testing.T) {
	var buf bytes.Buffer
	l := newTextLogger(&buf, LevelWarn)
	l.Info("dropped")
	l.Warn("watch out", F("module", "505.mcf"))
	got := buf.String()
	if got != "warn: watch out module=505.mcf\n" {
		t.Errorf("unexpected text log output: %q", got)
	}
}

// TestNilSafety proves every handle is a no-op when observability is
// disabled — the contract that lets hot paths skip guarding.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	sp.SetAttr("k", 1)
	sp.End()
	if tr.Spans() != nil {
		t.Error("nil tracer should have no spans")
	}

	var r *Registry
	r.Counter("c").Add(1)
	r.Counter("c").Inc()
	r.Gauge("g").Set(5)
	r.Gauge("g").Add(-1)
	r.Histogram("h").Observe(9)
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 ||
		r.Histogram("h").Count() != 0 || r.Histogram("h").Sum() != 0 {
		t.Error("nil metrics should read zero")
	}
	if s := r.FullSnapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil || s.Build != nil {
		t.Errorf("nil registry snapshot should be empty: %+v", s)
	}

	var l *Logger
	l.Info("x")
	l.Warn("y", F("a", 1))

	// Global accessors with nothing installed.
	SetTracer(nil)
	SetRegistry(nil)
	Start("noop").SetAttr("a", 1).End()
	Counter("noop").Inc()
	Gauge("noop").Set(1)
	Histogram("noop").Observe(1)
}

func TestGlobalInstallUninstall(t *testing.T) {
	tr := NewTracer()
	prev := SetTracer(tr)
	defer SetTracer(prev)
	Start("global-span").End()
	if len(tr.Spans()) != 1 {
		t.Fatal("global Start did not reach the installed tracer")
	}

	r := NewRegistry()
	prevR := SetRegistry(r)
	defer SetRegistry(prevR)
	Counter(MSamplesTaken).Add(7)
	if r.Counter(MSamplesTaken).Value() != 7 {
		t.Fatal("global Counter did not reach the installed registry")
	}
	snap := r.FullSnapshot().Counters
	if snap[MSamplesTaken] != 7 {
		t.Fatalf("snapshot mismatch: %v", snap)
	}
}

func TestStopwatchMonotonic(t *testing.T) {
	sw := StartTimer()
	prev := 0.0
	for i := 0; i < 1000; i++ {
		s := sw.Seconds()
		if s < prev {
			t.Fatalf("stopwatch went backwards: %v < %v", s, prev)
		}
		prev = s
	}
	if sw.Elapsed() < 0 {
		t.Fatal("negative elapsed")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h HistogramMetric
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(4)
	// bits.Len64: 0→0, 1→1, 2,3→2, 4→3
	wantBuckets := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1}
	for i, want := range wantBuckets {
		if got := h.buckets[i].Load(); got != want {
			t.Errorf("bucket %d: got %d want %d", i, got, want)
		}
	}
	if h.Count() != 5 || h.Sum() != 10 {
		t.Errorf("count/sum: got %d/%d want 5/10", h.Count(), h.Sum())
	}
}

func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	c := &Config{}
	c.setProgressWriter(&buf)
	if c.progressW == nil {
		t.Fatal("progress should be enabled")
	}
	c.Progressf("[%d/%d] %s", 1, 23, "505.mcf")
	if buf.String() != "[1/23] 505.mcf\n" {
		t.Errorf("unexpected progress output: %q", buf.String())
	}
	c.setProgressWriter(nil)
	c.Progressf("dropped")
	if strings.Contains(buf.String(), "dropped") {
		t.Error("disabled progress still wrote")
	}
	// Two configs own independent writers: concurrent serve jobs cannot
	// interleave progress lines through a shared global.
	var other bytes.Buffer
	c2 := &Config{}
	c2.setProgressWriter(&other)
	c2.Progressf("elsewhere")
	if buf.String() != "[1/23] 505.mcf\n" || other.String() != "elsewhere\n" {
		t.Errorf("progress writers not independent: %q / %q", buf.String(), other.String())
	}
	// Nil config is a no-op.
	var nilCfg *Config
	nilCfg.Progressf("ignored")
}
