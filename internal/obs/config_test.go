package obs

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBindFlagsDefaultsOff(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Enabled() {
		t.Fatal("zero config should be disabled")
	}
	flush, err := c.Activate()
	if err != nil {
		t.Fatal(err)
	}
	if activeTracer.Load() != nil || ActiveRegistry() != nil {
		t.Fatal("disabled config must not install instruments")
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigActivateWritesFiles(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	metrics := filepath.Join(dir, "metrics.prom")
	logPath := filepath.Join(dir, "events.jsonl")

	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := BindFlags(fs)
	if err := fs.Parse([]string{
		"-trace", trace, "-metrics", metrics, "-log", logPath,
	}); err != nil {
		t.Fatal(err)
	}
	if !c.Enabled() {
		t.Fatal("config should be enabled")
	}
	flush, err := c.Activate()
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a traced, metered, logged pipeline.
	Start("profile").SetAttr("module", "demo").End()
	Counter(MSamplesTaken).Add(3)
	Info("pipeline stage done", F("stage", "sample"))

	if err := flush(); err != nil {
		t.Fatal(err)
	}
	// flush restores the previous (nil) instruments.
	if activeTracer.Load() != nil || ActiveRegistry() != nil || ActiveLogger() != nil {
		t.Error("flush should uninstall the global instruments")
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace file not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) != 1 || tr.TraceEvents[0].Name != "profile" {
		t.Errorf("unexpected trace contents: %s", raw)
	}

	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), MSamplesTaken+" 3") {
		t.Errorf("metrics file missing counter: %s", prom)
	}

	events, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), `"stage":"sample"`) {
		t.Errorf("log file missing structured event: %s", events)
	}
}

// parseConfig binds the obs flags on a throwaway FlagSet and parses
// args, failing the test on parse errors.
func parseConfig(t *testing.T, args ...string) *Config {
	t.Helper()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConfigActivateUnwritableTrace: trace files are created eagerly,
// so a path inside a nonexistent directory fails Activate up front and
// leaves the global instruments untouched.
func TestConfigActivateUnwritableTrace(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "trace.json")
	c := parseConfig(t, "-trace", bad)
	_, err := c.Activate()
	if err == nil {
		t.Fatal("Activate with unwritable -trace path should fail")
	}
	if !strings.Contains(err.Error(), "obs: trace output") {
		t.Errorf("error %q should identify the trace output", err)
	}
	if activeTracer.Load() != nil || ActiveRegistry() != nil || ActiveFlight() != nil {
		t.Error("failed Activate must not leave instruments installed")
	}
}

// TestConfigActivateUnwritableFlightRestores: when the flight file
// cannot be created, the tracer installed earlier in the same Activate
// call is rolled back to whatever was active before.
func TestConfigActivateUnwritableFlightRestores(t *testing.T) {
	sentinel := NewTracer()
	prev := SetTracer(sentinel)
	t.Cleanup(func() { SetTracer(prev) })

	dir := t.TempDir()
	bad := filepath.Join(dir, "no-such-dir", "flight.json")
	c := parseConfig(t, "-trace", filepath.Join(dir, "trace.json"), "-flight", bad)
	_, err := c.Activate()
	if err == nil {
		t.Fatal("Activate with unwritable -flight path should fail")
	}
	if !strings.Contains(err.Error(), "obs: flight output") {
		t.Errorf("error %q should identify the flight output", err)
	}
	if activeTracer.Load() != sentinel {
		t.Error("failed Activate must restore the previously installed tracer")
	}
	if ActiveFlight() != nil {
		t.Error("failed Activate must not leave a flight recorder installed")
	}
}

// TestConfigActivateBadPprofAddr: an unbindable -pprof address fails
// Activate and rolls back the registry it had already installed.
func TestConfigActivateBadPprofAddr(t *testing.T) {
	c := parseConfig(t, "-pprof", "256.256.256.256:0")
	_, err := c.Activate()
	if err == nil {
		t.Fatal("Activate with unbindable -pprof addr should fail")
	}
	if !strings.Contains(err.Error(), "obs: pprof server") {
		t.Errorf("error %q should identify the pprof server", err)
	}
	if ActiveRegistry() != nil {
		t.Error("failed Activate must restore the previous (nil) registry")
	}
}

// TestStartPprofServerBindsEphemeral: ":0" binds an ephemeral port and
// the returned address serves pprof and the stock expvar variables.
// Metrics are /metrics' business: /debug/vars carries no registry.
func TestStartPprofServerBindsEphemeral(t *testing.T) {
	addr, err := startPprofServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" || strings.HasSuffix(addr, ":0") {
		t.Fatalf("bound address %q should carry the resolved port", addr)
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		return body
	}
	if body := get("/debug/pprof/"); !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ does not list the goroutine profile:\n%.400s", body)
	}
	var vars map[string]json.RawMessage
	if body := get("/debug/vars"); json.Unmarshal(body, &vars) != nil ||
		vars["cmdline"] == nil || vars["memstats"] == nil {
		t.Errorf("/debug/vars lacks the stock cmdline and memstats variables:\n%.400s", body)
	}
	if _, ok := vars["optiwise_metrics"]; ok {
		t.Error("/debug/vars still publishes optiwise_metrics; metrics belong on /metrics")
	}
}
