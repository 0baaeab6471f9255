package optiwise

import (
	"bytes"
	"context"
	"testing"

	"optiwise/internal/dbi"
)

// switchInstrument runs the instrumentation pass InstrumentOnly would
// run for opts, with block bodies forced through the per-instruction
// switch interpreter: the reference the direct-threaded engine is
// pinned to.
func switchInstrument(tb testing.TB, prog *Program, opts Options) *EdgeProfile {
	tb.Helper()
	opts.fill()
	dopts := dbiOptions(opts, nil)
	dopts.LegacyDispatch = true
	ep, err := dbi.RunContext(context.Background(), prog.prog, dopts)
	if err != nil {
		tb.Fatal(err)
	}
	return ep
}

// TestDispatchEquivalenceSuite pins the direct-threaded engine to the
// switch interpreter it replaced: for every program in the 23-workload
// suite, instrumenting under the two dispatch strategies must produce
// byte-identical serialized profiles — same counts, same edges, same
// call tables, same final architectural state. The workloads cover the
// axes that stress dispatch (indirect-branch density, call density,
// branch entropy, every opcode class), so agreement here is the
// repository's equivalence proof for the engine swap.
func TestDispatchEquivalenceSuite(t *testing.T) {
	for _, spec := range SuiteSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := SuiteProgram(spec, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			threaded, err := InstrumentOnly(prog, Options{RandSeed: 7})
			if err != nil {
				t.Fatal(err)
			}
			legacy := switchInstrument(t, prog, Options{RandSeed: 7})
			var tb, lb bytes.Buffer
			if err := threaded.Write(&tb); err != nil {
				t.Fatal(err)
			}
			if err := legacy.Write(&lb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tb.Bytes(), lb.Bytes()) {
				t.Errorf("threaded and switch dispatch profiles differ (%d vs %d bytes)",
					tb.Len(), lb.Len())
			}
			if threaded.BaseInstructions == 0 {
				t.Error("workload retired no instructions")
			}
		})
	}
}

// TestDispatchEquivalenceFullResult extends the equivalence to the
// combined pipeline on representative workloads: the end-to-end Result
// export must be byte-identical under either dispatch strategy.
func TestDispatchEquivalenceFullResult(t *testing.T) {
	for _, name := range []string{"505.mcf", "523.xalancbmk", "519.lbm"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var spec WorkloadSpec
			for _, s := range SuiteSpecs() {
				if s.Name == name {
					spec = s
				}
			}
			if spec.Name == "" {
				t.Fatalf("workload %s not in suite", name)
			}
			prog, err := SuiteProgram(spec, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			base := Options{SamplePeriod: 500, RandSeed: 7}
			threaded, err := Profile(prog, base)
			if err != nil {
				t.Fatal(err)
			}
			sp, _, err := SampleOnly(prog, base)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := Analyze(prog, sp, switchInstrument(t, prog, base), base)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(exportBytes(t, threaded), exportBytes(t, legacy)) {
				t.Error("Result exports differ between dispatch strategies")
			}
		})
	}
}
