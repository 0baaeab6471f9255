package obs

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestOpenMetricsExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(MServeJobLatency)
	defer func(prev func() int64) { nowNanos = prev }(nowNanos)
	nowNanos = func() int64 { return 1700000000_123000000 }
	h.ObserveTrace(1500, "4bf92f3577b34da6a3ce929d0e0e4736")
	h.ObserveTrace(7, "") // empty trace: plain observation, no exemplar
	r.Counter(MSamplesTaken).Add(3)

	var om bytes.Buffer
	if err := WriteExposition(&om, local(r), true); err != nil {
		t.Fatal(err)
	}
	got := om.String()
	if !strings.HasSuffix(got, "# EOF\n") {
		t.Error("OpenMetrics output must terminate with # EOF")
	}
	wantExemplar := `le="2047"} 2 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 1500 1700000000.123`
	if !strings.Contains(got, wantExemplar) {
		t.Errorf("missing bucket exemplar:\nwant substring %q\ngot:\n%s", wantExemplar, got)
	}
	if strings.Count(got, "# {") != 1 {
		t.Errorf("want exactly one exemplar (empty trace IDs attach none), got:\n%s", got)
	}

	// The 0.0.4 format carries neither exemplars nor the EOF marker.
	var prom bytes.Buffer
	if err := WriteExposition(&prom, local(r), false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), "# {") || strings.Contains(prom.String(), "# EOF") {
		t.Errorf("Prometheus 0.0.4 output leaked OpenMetrics syntax:\n%s", prom.String())
	}
	// Sample lines are otherwise identical between the two formats.
	strip := func(s string) string {
		var b strings.Builder
		for _, line := range strings.Split(s, "\n") {
			if line == "# EOF" {
				continue
			}
			if i := strings.Index(line, " # {"); i >= 0 {
				line = line[:i]
			}
			b.WriteString(line + "\n")
		}
		return b.String()
	}
	if strip(om.String()) != strip(prom.String())+"\n" && strip(om.String()) != strip(prom.String()) {
		t.Errorf("formats diverge beyond exemplars/EOF:\nopenmetrics:\n%s\nprometheus:\n%s", om.String(), prom.String())
	}
}

func TestEscapeLabelValue(t *testing.T) {
	in := "line1\nwith \"quotes\" and \\slashes"
	want := `line1\nwith \"quotes\" and \\slashes`
	if got := escapeLabelValue(in); got != want {
		t.Errorf("escapeLabelValue = %q, want %q", got, want)
	}
}

// TestPrometheusLint validates the full /metrics exposition against the
// text-format grammar: HELP then TYPE then samples per family, families
// sorted and unique, names and label syntax well-formed, histograms
// cumulative with +Inf == count. It runs against a registry populated
// the way a busy server's would be.
func TestPrometheusLint(t *testing.T) {
	r := NewRegistry()
	r.Counter(MSamplesTaken).Add(1234)
	r.Counter(MDBICleanCalls).Add(7)
	r.Counter(MFlightDumps).Inc()
	r.Counter(CacheHits("L1")).Add(100)
	r.Counter(CacheMisses("L1")).Add(3)
	r.Gauge(MDBICodeCacheSize).Set(42)
	h := r.Histogram(MServeJobLatency)
	h.ObserveTrace(1, "4bf92f3577b34da6a3ce929d0e0e4736")
	h.Observe(100)
	h.Observe(100000)
	r.Histogram(MSampleWeight).Observe(2000)

	var buf bytes.Buffer
	if err := WriteExposition(&buf, local(r), false); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, buf.String(), false)

	buf.Reset()
	if err := WriteExposition(&buf, local(r), true); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, buf.String(), true)
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRE     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9]+)( # \{trace_id="[0-9a-f]{32}"\} [0-9]+ [0-9]+\.[0-9]{3})?$`)
	labelPairRE  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(,|$)`)
)

// parseLabels validates one {k="v",...} block — well-formed pairs, keys
// sorted and unique — and returns the label map (nil for a bare name).
func parseLabels(t *testing.T, lineNo int, block string) map[string]string {
	t.Helper()
	if block == "" {
		return nil
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(block, "{"), "}")
	labels := map[string]string{}
	prevKey := ""
	consumed := 0
	for _, m := range labelPairRE.FindAllStringSubmatchIndex(inner, -1) {
		if m[0] != consumed {
			break // gap: something between pairs did not parse as a pair
		}
		consumed = m[1]
		key := inner[m[2]:m[3]]
		if _, dup := labels[key]; dup {
			t.Errorf("line %d: duplicate label %q in %q", lineNo, key, block)
		}
		if key <= prevKey {
			t.Errorf("line %d: label keys not sorted in %q", lineNo, block)
		}
		prevKey = key
		labels[key] = inner[m[4]:m[5]]
	}
	if consumed != len(inner) {
		t.Errorf("line %d: malformed label block %q", lineNo, block)
	}
	return labels
}

// lintExposition enforces the exposition-format grammar on a full
// /metrics payload — single-registry or federated, where every family
// carries per-node sample groups and histogram buckets restart for
// each node label value.
func lintExposition(t *testing.T, text string, openMetrics bool) {
	t.Helper()
	type histState struct {
		lastLE  float64
		lastCum uint64
		infSeen bool
		sum     bool
		count   uint64
		hasCnt  bool
	}
	type famState struct {
		help, typ bool
		samples   int
		hist      map[string]*histState // keyed by node label ("" single-registry)
	}
	fams := map[string]*famState{}
	seen := map[string]bool{} // name+labels uniqueness across the payload
	var order []string
	cur := ""
	family := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			f := strings.TrimSuffix(name, suffix)
			if f != name {
				if st, ok := fams[f]; ok && st.typ {
					return f
				}
			}
		}
		return name
	}
	lines := strings.Split(text, "\n")
	if lines[len(lines)-1] != "" {
		t.Error("exposition must end with a newline")
	}
	lines = lines[:len(lines)-1]
	sawEOF := false
	for i, line := range lines {
		if sawEOF {
			t.Fatalf("line %d: content after # EOF: %q", i+1, line)
		}
		switch {
		case line == "# EOF":
			if !openMetrics {
				t.Error("# EOF in 0.0.4 output")
			}
			sawEOF = true
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			sp := strings.IndexByte(rest, ' ')
			if sp <= 0 {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
			name := rest[:sp]
			if !metricNameRE.MatchString(name) {
				t.Errorf("line %d: bad metric name %q", i+1, name)
			}
			if help := rest[sp+1:]; strings.TrimSpace(help) == "" {
				t.Errorf("line %d: empty HELP text for %s", i+1, name)
			}
			if fams[name] != nil {
				t.Errorf("line %d: duplicate family %q", i+1, name)
			}
			fams[name] = &famState{help: true, hist: map[string]*histState{}}
			order = append(order, name)
			cur = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			name, typ := fields[2], fields[3]
			st := fams[name]
			if st == nil || !st.help {
				t.Errorf("line %d: TYPE before HELP for %q", i+1, name)
				continue
			}
			if st.typ {
				t.Errorf("line %d: duplicate TYPE for %q", i+1, name)
			}
			if name != cur {
				t.Errorf("line %d: TYPE %q interleaves another family (%q open)", i+1, name, cur)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("line %d: unknown type %q", i+1, typ)
			}
			st.typ = true
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unexpected comment %q", i+1, line)
		default:
			m := sampleRE.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: sample does not match grammar: %q", i+1, line)
			}
			if m[4] != "" && !openMetrics {
				t.Errorf("line %d: exemplar in 0.0.4 output: %q", i+1, line)
			}
			name := m[1]
			labels := parseLabels(t, i+1, m[2])
			if seen[name+m[2]] {
				t.Errorf("line %d: duplicate sample %s%s", i+1, name, m[2])
			}
			seen[name+m[2]] = true
			fam := family(name)
			st := fams[fam]
			if st == nil || !st.typ {
				t.Errorf("line %d: sample %q before HELP/TYPE", i+1, line)
				continue
			}
			if fam != cur {
				t.Errorf("line %d: sample for %q interleaves family %q", i+1, name, cur)
			}
			st.samples++
			node := labels["node"]
			hs := st.hist[node]
			if hs == nil {
				hs = &histState{lastLE: -1}
				st.hist[node] = hs
			}
			val, _ := strconv.ParseUint(m[3], 10, 64)
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if hs.infSeen {
					t.Errorf("line %d: bucket after +Inf", i+1)
				}
				le := labels["le"]
				if le == "+Inf" {
					hs.infSeen = true
					hs.count = val
					hs.hasCnt = true
				} else {
					f, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Errorf("line %d: bad le %q", i+1, le)
					}
					if f <= hs.lastLE {
						t.Errorf("line %d: le %q not increasing (prev %v)", i+1, le, hs.lastLE)
					}
					hs.lastLE = f
				}
				if val < hs.lastCum {
					t.Errorf("line %d: bucket counts not cumulative: %d < %d", i+1, val, hs.lastCum)
				}
				hs.lastCum = val
			case strings.HasSuffix(name, "_sum") && fam != name:
				hs.sum = true
			case strings.HasSuffix(name, "_count") && fam != name:
				if !hs.hasCnt || val != hs.count {
					t.Errorf("line %d: _count %d != +Inf bucket %d", i+1, val, hs.count)
				}
			}
		}
	}
	if openMetrics && !sawEOF {
		t.Error("OpenMetrics output missing # EOF")
	}
	if !sortedStrings(order) {
		t.Errorf("families not sorted: %v", order)
	}
	for name, st := range fams {
		if st.samples == 0 {
			t.Errorf("family %q has no samples", name)
		}
		for node, hs := range st.hist {
			if hs.hasCnt && !hs.sum {
				t.Errorf("histogram %q (node %q) missing _sum", name, node)
			}
		}
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// TestChromeTraceCounterTracks: counter samples ride on a dedicated
// "telemetry" process so Perfetto draws them as counter tracks under
// the span timeline; a tracer without counters emits none of this
// (keeping the plain-trace golden byte-identical).
func TestChromeTraceCounterTracks(t *testing.T) {
	tr := fakeTracer()
	tr.Start("profile").End()
	tr.AddCounter("sim ipc", 0, map[string]float64{"ipc": 1.5})
	tr.AddCounter("sim ipc", 10.24, map[string]float64{"ipc": 2.25})
	tr.AddCounter("sim stalls", 0, map[string]float64{"memory": 3, "frontend": 1})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, "", nil); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		`"ph": "C"`,
		`"name": "sim ipc"`,
		`"name": "sim stalls"`,
		`"process_name"`,
		`"telemetry"`,
		`"ipc": 2.25`,
		`"memory": 3`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("chrome trace missing %s:\n%s", want, got)
		}
	}
	if n := strings.Count(got, `"ph": "C"`); n != 3 {
		t.Errorf("want 3 counter events, got %d", n)
	}
	// With no node and no segments the export names no local process
	// and tags no span with a node.
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" && ev.Pid == 1 {
			t.Errorf("pid-1 process_name event without a node: %+v", ev)
		}
		if _, ok := ev.Args["node"]; ok {
			t.Errorf("node arg without a node: %+v", ev)
		}
	}
}

func TestHistogramExemplars(t *testing.T) {
	var h HistogramMetric
	h.ObserveTrace(5, "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
	h.ObserveTrace(6, "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb") // same bucket: replaces
	h.ObserveTrace(1000, "cccccccccccccccccccccccccccccccc")
	var ex []Exemplar
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			ex = append(ex, *e)
		}
	}
	if len(ex) != 2 {
		t.Fatalf("want 2 exemplars, got %d: %+v", len(ex), ex)
	}
	if ex[0].TraceID != "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb" || ex[0].Value != 6 {
		t.Errorf("bucket exemplar should keep the most recent observation: %+v", ex[0])
	}
	if ex[1].TraceID != "cccccccccccccccccccccccccccccccc" {
		t.Errorf("unexpected second exemplar: %+v", ex[1])
	}
	// The nil path stays inert.
	var nilH *HistogramMetric
	nilH.ObserveTrace(1, "x")
}
