package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON pins the metric tables to the
// repository's BENCHMARK.json: same names, same units, same order.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		if _, ok := workloadRuns[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloadRuns) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(bench.Workloads), len(workloadRuns))
	}
}

// TestSmoke runs every workload for a few small ops in both modes and
// checks that each declared metric is reported with its unit, that the
// correctness checks passed, and that no end-to-end metric reads 0.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloadRuns {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 1, trace: trace, out: t.TempDir(), smoke: true}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, out.Correct, out.Attempted, out.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if trace {
				path := filepath.Join(cfg.out, "trace-"+name+"-seed7.json")
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: trace file: %v", name, err)
				}
			}
		}
	}
}

// TestProfileChecksCatchMismatches shows each profile-op correctness
// check fires: a changed report digest, changed totals, and broken
// block-cycle conservation each count as a failed op.
func TestProfileChecksCatchMismatches(t *testing.T) {
	progs, err := assemble(computeSpecs(smokeScale)[:1])
	if err != nil {
		t.Fatal(err)
	}
	c := buildCases(progs, classCompute, []bool{false})[0]
	res := &result{}
	if _, err := c.op(context.Background(), nil, 0, res); err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("reference op failed: %v", res.failures)
	}
	c.refDigest[0] ^= 1
	c.op(context.Background(), nil, 0, res) //nolint:errcheck // failure is counted in res
	c.refDigest[0] ^= 1
	c.refCycles++
	c.op(context.Background(), nil, 0, res) //nolint:errcheck
	c.refCycles--
	if res.failed != 2 || res.attempted != 3 {
		t.Fatalf("failed=%d attempted=%d, want 2 of 3", res.failed, res.attempted)
	}

	r := *c.ref
	r.Blocks = append(r.Blocks[:0:0], r.Blocks...)
	if err := checkBlockMass(&r); err != nil {
		t.Fatalf("reference result: %v", err)
	}
	r.Blocks[0].Cycles++
	if checkBlockMass(&r) == nil {
		t.Fatal("checkBlockMass accepted a block table whose cycles do not sum to the sampled mass")
	}
}

// TestClusterChecksCatchMismatches shows a hit whose bytes differ from
// its miss's counts as a failed op.
func TestClusterChecksCatchMismatches(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a cluster")
	}
	nodes, err := startCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer stopCluster(nodes)
	run := newClusterRun(config{seed: 5}, nodes)
	defer run.close()
	res := &result{}
	if _, err := run.op(kindFresh, nil, 0, res); err != nil {
		t.Fatal(err)
	}
	if _, err := run.op(kindRepeat, nil, 0, res); err != nil || res.failed != 0 {
		t.Fatalf("clean repeat: err=%v failures=%v", err, res.failures)
	}
	run.keys[0].jsonSum[0] ^= 1
	if _, err := run.op(kindRepeat, nil, 0, res); err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 {
		t.Fatalf("failed=%d after a mismatching hit, want 1", res.failed)
	}
}
