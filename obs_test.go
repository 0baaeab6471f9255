package optiwise

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"optiwise/internal/obs"
)

// TestProfileEmitsSpans runs the full pipeline with a tracer installed
// and checks the span hierarchy the ISSUE specifies: profile →
// sample/instrument/analyze, and analyze → combine sub-phases
// (cfg_build, dominators, loop_merge, attribution, aggregation).
func TestProfileEmitsSpans(t *testing.T) {
	tr := obs.NewTracer()
	prev := obs.SetTracer(tr)
	defer obs.SetTracer(prev)

	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Profile(p, Options{SamplePeriod: 500}); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byName := map[string][]obs.SpanData{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, want := range []string{
		"profile", "sample", "instrument", "analyze", "combine",
		"cfg_build", "attribution", "aggregation", "funcs", "loop_merge",
		"lines", "blocks", "dominators",
	} {
		if len(byName[want]) == 0 {
			t.Errorf("missing span %q (have: %v)", want, names(spans))
		}
	}
	// Nesting: sample/instrument/analyze under profile; combine under
	// analyze; sub-phases under combine or aggregation.
	profileID := byName["profile"][0].ID
	for _, stage := range []string{"sample", "instrument", "analyze"} {
		if got := byName[stage][0].Parent; got != profileID {
			t.Errorf("span %q parent = %d, want profile (%d)", stage, got, profileID)
		}
	}
	combine := byName["combine"][0]
	if combine.Parent != byName["analyze"][0].ID {
		t.Errorf("combine parent = %d, want analyze (%d)",
			combine.Parent, byName["analyze"][0].ID)
	}
	if got := byName["cfg_build"][0].Parent; got != combine.ID {
		t.Errorf("cfg_build parent = %d, want combine (%d)", got, combine.ID)
	}
	if got := byName["loop_merge"][0].Parent; got != byName["aggregation"][0].ID {
		t.Errorf("loop_merge parent = %d, want aggregation (%d)",
			got, byName["aggregation"][0].ID)
	}

	// The Chrome trace export of a real pipeline run must be valid JSON
	// with the required event fields (what Perfetto checks on load).
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, "", nil); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != len(spans) {
		t.Errorf("trace has %d events, want %d", len(parsed.TraceEvents), len(spans))
	}
}

func names(spans []obs.SpanData) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestProfileFeedsMetrics runs the pipeline with a registry installed
// and checks the DBI, sampler, simulator, and cache counters the ISSUE
// names, plus the Prometheus export of a real run.
func TestProfileFeedsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetRegistry(reg)
	defer obs.SetRegistry(prev)

	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(p, Options{SamplePeriod: 500})
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter(obs.MSamplesTaken).Value(); got != prof.TotalSamples {
		t.Errorf("samples counter = %d, profile says %d", got, prof.TotalSamples)
	}
	if reg.Counter(obs.MSimCycles).Value() == 0 {
		t.Error("simulated-cycles counter not fed")
	}
	if reg.Counter(obs.MDBIBlocksFound).Value() == 0 {
		t.Error("dbi blocks-discovered counter not fed")
	}
	if reg.Gauge(obs.MDBICodeCacheSize).Value() == 0 {
		t.Error("dbi code-cache gauge not fed")
	}
	if reg.Histogram(obs.MSampleWeight).Count() != prof.TotalSamples {
		t.Error("sample-weight histogram not fed per sample")
	}
	if reg.Counter(obs.CacheHits("L1")).Value() == 0 {
		t.Error("l1 hit counter not fed")
	}

	var buf bytes.Buffer
	if err := obs.WriteExposition(&buf, []obs.NodeSnapshot{{Snapshot: reg.FullSnapshot()}}, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE optiwise_sim_cycles_total counter",
		"# TYPE optiwise_dbi_blocks_discovered_total counter",
		"# TYPE optiwise_cache_l1_hits_total counter",
		"# TYPE optiwise_sampler_sample_weight_cycles histogram",
		"optiwise_sampler_sample_weight_cycles_bucket{le=\"+Inf\"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestPipelineDisabledByDefault documents the zero-cost contract: with
// no instruments installed, profiling must not record anything and must
// not panic anywhere along the instrumented paths.
func TestPipelineDisabledByDefault(t *testing.T) {
	obs.SetTracer(nil)
	obs.SetRegistry(nil)
	p, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Profile(p, Options{SamplePeriod: 500}); err != nil {
		t.Fatal(err)
	}
}
