package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optiwise/internal/fault"
)

const testProg = `
.func main
main:
    li t0, 200
loop:
    div t1, t0, t0
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    syscall
.endfunc
`

// writeProg drops the test program into a temp dir and returns its path.
func writeProg(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.s")
	if err := os.WriteFile(path, []byte(testProg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// silencing stdout keeps `go test` output readable; the subcommands write
// reports to os.Stdout directly.
func silenceStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestCmdRun(t *testing.T) {
	silenceStdout(t)
	path := writeProg(t)
	if err := cmdRun([]string{path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-machine", "n1", "-period", "500", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-csv", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-callgraph", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-func", "main", path}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdRunErrors(t *testing.T) {
	silenceStdout(t)
	path := writeProg(t)
	if err := cmdRun([]string{"-machine", "quantum", path}); err == nil {
		t.Error("bad machine accepted")
	}
	if err := cmdRun([]string{"-attr", "psychic", path}); err == nil {
		t.Error("bad attribution accepted")
	}
	if err := cmdRun([]string{}); err == nil {
		t.Error("missing program accepted")
	}
	if err := cmdRun([]string{"/nonexistent/prog.s"}); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.s")
	if err := os.WriteFile(bad, []byte("frobnicate"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{bad}); err == nil {
		t.Error("unassemblable file accepted")
	}
}

func TestStagedWorkflow(t *testing.T) {
	silenceStdout(t)
	path := writeProg(t)
	dir := filepath.Dir(path)
	sout := filepath.Join(dir, "s.json")
	eout := filepath.Join(dir, "e.json")
	if err := cmdSample([]string{"-o", sout, path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInstrument([]string{"-o", eout, path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-sample", sout, "-edges", eout, path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-sample", sout, "-edges", eout, "-func", "main", path}); err != nil {
		t.Fatal(err)
	}
	// Missing inputs must fail cleanly.
	if err := cmdAnalyze([]string{"-sample", "/nope.json", "-edges", eout, path}); err == nil {
		t.Error("missing sample file accepted")
	}
}

func TestModuleName(t *testing.T) {
	cases := map[string]string{
		"prog.s":      "prog",
		"/a/b/prog.s": "prog",
		"prog":        "prog",
		"/a/b/c":      "c",
		"x.s":         "x",
	}
	for in, want := range cases {
		if got := moduleName(in); got != want {
			t.Errorf("moduleName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCmdTrace(t *testing.T) {
	silenceStdout(t)
	path := writeProg(t)
	if err := cmdTrace([]string{"-n", "8", "-skip", "50", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrace([]string{"-machine", "n1", "-n", "4", "-skip", "10", path}); err != nil {
		t.Fatal(err)
	}
	// Skipping past the end of the program must fail cleanly.
	if err := cmdTrace([]string{"-skip", "99999999", path}); err == nil {
		t.Error("oversized skip accepted")
	}
}

func TestCmdCompare(t *testing.T) {
	silenceStdout(t)
	oldPath := writeProg(t)
	// "Optimized": half the divides.
	opt := strings.ReplaceAll(testProg, "li t0, 200", "li t0, 100")
	newPath := filepath.Join(t.TempDir(), "new.s")
	if err := os.WriteFile(newPath, []byte(opt), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompare([]string{oldPath, newPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompare([]string{oldPath}); err == nil {
		t.Error("compare with one file accepted")
	}
}

// TestCmdCompareRefusesDegradedTiered: a fault-degraded tiered profile
// reaching compare must be refused with an error naming the degraded
// side — a single-pass profile (tiered or not) lacks the data to diff,
// and silently comparing extrapolated estimates would produce
// confidently wrong deltas.
func TestCmdCompareRefusesDegradedTiered(t *testing.T) {
	silenceStdout(t)
	// nth=1 kills only the first (old-side) DBI pass: old degrades to a
	// sampling-only tiered profile, new profiles cleanly.
	if err := fault.Activate("dbi.run:error:nth=1,msg=dbi pass killed"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fault.Set(nil) })
	oldPath := writeProg(t)
	opt := strings.ReplaceAll(testProg, "li t0, 200", "li t0, 100")
	newPath := filepath.Join(t.TempDir(), "new.s")
	if err := os.WriteFile(newPath, []byte(opt), 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdCompare([]string{"-tiered", "-allow-degraded", oldPath, newPath})
	if err == nil {
		t.Fatal("compare accepted a degraded tiered profile")
	}
	if !strings.Contains(err.Error(), "degraded") || !strings.Contains(err.Error(), "old") {
		t.Errorf("refusal does not name the degraded side: %v", err)
	}
}

// TestFaultFromEnvAnnounced: a plan installed from OPTIWISE_FAULT is
// announced on stderr, and run -allow-degraded then prints the
// degraded banner.
func TestFaultFromEnvAnnounced(t *testing.T) {
	t.Setenv(fault.EnvVar, "dbi.run:error:nth=1")
	t.Cleanup(func() { fault.Set(nil) })
	var stderr bytes.Buffer
	if err := activateFault(&stderr); err != nil {
		t.Fatal(err)
	}
	if got, want := stderr.String(), "optiwise: fault injection active: dbi.run:error:nth=1\n"; got != want {
		t.Errorf("announcement = %q, want %q", got, want)
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = out
	runErr := cmdRun([]string{"-allow-degraded", writeProg(t)})
	os.Stdout = old
	out.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	report, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "DEGRADED RESULT (sampling-only)") {
		t.Errorf("report lacks the degraded banner:\n%s", report)
	}
}

func TestCmdRunYAMLAndStream(t *testing.T) {
	silenceStdout(t)
	path := writeProg(t)
	if err := cmdRun([]string{"-yaml", path}); err != nil {
		t.Fatal(err)
	}
	// -window prints window lines on stderr next to the usual report.
	if err := cmdRun([]string{"-window", "2048", "-period", "300", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-window", "2048", "-yaml", path}); err != nil {
		t.Fatal(err)
	}
	// Window bounds are validated before profiling starts.
	if err := cmdRun([]string{"-window", "1", path}); err == nil {
		t.Error("sub-minimum window accepted")
	}
}

// TestCmdCompareThresholdGate is the CI-gate acceptance path: compare
// must exit nonzero when a planted regression meets -threshold, report
// cleanly without one, and pass improvements through.
func TestCmdCompareThresholdGate(t *testing.T) {
	silenceStdout(t)
	slowPath := writeProg(t) // div-based hot loop
	// The fast version swaps the div for an addi and runs longer, so
	// both sides collect enough samples to clear the significance floor.
	fast := strings.ReplaceAll(testProg, "div t1, t0, t0", "addi t1, t0, 1")
	fast = strings.ReplaceAll(fast, "li t0, 200", "li t0, 5000")
	fastPath := filepath.Join(t.TempDir(), "fast.s")
	if err := os.WriteFile(fastPath, []byte(fast), 0o644); err != nil {
		t.Fatal(err)
	}
	// Report-only mode never fails, regression or not.
	if err := cmdCompare([]string{"-period", "300", fastPath, slowPath}); err != nil {
		t.Fatal(err)
	}
	// The gate trips on fast→slow...
	err := cmdCompare([]string{"-period", "300", "-threshold", "0.10", fastPath, slowPath})
	if err == nil || !strings.Contains(err.Error(), "CPI regression") {
		t.Errorf("planted regression did not trip the threshold gate: %v", err)
	}
	// ...and passes the improving direction, in JSON mode too.
	if err := cmdCompare([]string{"-period", "300", "-threshold", "0.10", "-json",
		slowPath, fastPath}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdRunJSONAndLoop(t *testing.T) {
	silenceStdout(t)
	path := writeProg(t)
	if err := cmdRun([]string{"-json", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-loop", "0", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-loop", "99", path}); err == nil {
		t.Error("bogus loop id accepted")
	}
}

func TestCmdAsmAndBinaryRun(t *testing.T) {
	silenceStdout(t)
	path := writeProg(t)
	owx := filepath.Join(filepath.Dir(path), "prog.owx")
	if err := cmdAsm([]string{"-o", owx, path}); err != nil {
		t.Fatal(err)
	}
	// Every subcommand must accept the binary image directly.
	if err := cmdRun([]string{owx}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrace([]string{"-n", "4", "-skip", "10", owx}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAsm([]string{"-o", owx}); err == nil {
		t.Error("asm without source accepted")
	}
}

func TestCmdRunEvents(t *testing.T) {
	silenceStdout(t)
	path := writeProg(t)
	if err := cmdRun([]string{"-events", path}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdCFG(t *testing.T) {
	silenceStdout(t)
	path := writeProg(t)
	if err := cmdCFG([]string{"-func", "main", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCFG([]string{"-func", "nosuch", path}); err == nil {
		t.Error("unknown function accepted")
	}
}
