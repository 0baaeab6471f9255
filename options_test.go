package optiwise

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestMachineByName(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"", "xeon-w2195"},
		{"xeon", "xeon-w2195"},
		{"xeon-w2195", "xeon-w2195"},
		{"n1", "neoverse-n1"},
		{"neoverse-n1", "neoverse-n1"},
	} {
		m, err := MachineByName(tc.in)
		if err != nil {
			t.Errorf("MachineByName(%q): %v", tc.in, err)
			continue
		}
		if m.Name != tc.want {
			t.Errorf("MachineByName(%q).Name = %q, want %q", tc.in, m.Name, tc.want)
		}
	}
	if _, err := MachineByName("cray-1"); err == nil ||
		!strings.Contains(err.Error(), "cray-1") {
		t.Errorf("MachineByName(cray-1) err = %v, want a descriptive error", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string // empty = valid
	}{
		{"zero value", Options{}, ""},
		{"typical", Options{SamplePeriod: 500, LoopThreshold: 5}, ""},
		{"period too large", Options{SamplePeriod: 1 << 40}, "sampling period"},
		{"interrupt cost too large", Options{InterruptCost: 1 << 30}, "interrupt cost"},
		{"cost eats period", Options{SamplePeriod: 100, InterruptCost: 100}, "smaller than the sampling period"},
		{"cost eats default period", Options{InterruptCost: 2000}, "smaller than the sampling period"},
		{"period under default cost", Options{SamplePeriod: 20}, ""},
		{"threshold too large", Options{LoopThreshold: 1 << 30}, "loop threshold"},
		{"max cycles overflow", Options{MaxCycles: 1 << 63}, "overflow"},
		{"hot threshold NaN", Options{Tiered: true, HotThreshold: math.NaN()}, "hot threshold"},
		{"bad machine", Options{Machine: Machine{Name: "broken"}}, "invalid machine"},
		{"zero cache latency", Options{Machine: func() Machine {
			m := XeonW2195()
			m.Cache.Levels[0].Latency = 0
			return m
		}()}, "Cache L1 latency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				// Entry points may pass filled options on (serve runs the
				// Canonical form), so filling must keep them valid.
				if err := tc.opts.Canonical().Validate(); err != nil {
					t.Fatalf("Canonical().Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

func TestOptionsCanonical(t *testing.T) {
	a := Options{}.Canonical()
	b := Options{SamplePeriod: 2000, Machine: XeonW2195()}.Canonical()
	if a.SamplePeriod != b.SamplePeriod || a.InterruptCost != b.InterruptCost ||
		a.Machine.Name != b.Machine.Name ||
		a.SampleASLRSeed != b.SampleASLRSeed || a.InstrASLRSeed != b.InstrASLRSeed {
		t.Errorf("canonical forms differ:\n a=%+v\n b=%+v", a, b)
	}
	if a.Machine.Name != "xeon-w2195" || a.SamplePeriod != 2000 {
		t.Errorf("Canonical did not resolve defaults: %+v", a)
	}
	if a.InterruptCost == 0 || a.SampleASLRSeed == 0 || a.InstrASLRSeed == 0 {
		t.Errorf("Canonical left zero defaults: %+v", a)
	}
}

// TestProfileContextCancel checks the cooperative cancellation path end
// to end: a context canceled before (and during) a run aborts the
// pipeline with an error that wraps context.Canceled.
func TestProfileContextCancel(t *testing.T) {
	prog, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProfileContext(ctx, prog, Options{SamplePeriod: 500}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProfileContext on dead context = %v, want context.Canceled", err)
	}
	if _, _, err := SampleOnlyContext(ctx, prog, Options{SamplePeriod: 500}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SampleOnlyContext on dead context = %v, want context.Canceled", err)
	}
	if _, err := InstrumentOnlyContext(ctx, prog, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("InstrumentOnlyContext on dead context = %v, want context.Canceled", err)
	}
}

// TestMaxCyclesBoundsRun checks that Options.MaxCycles stops a
// non-terminating program instead of hanging the pipeline.
func TestMaxCyclesBoundsRun(t *testing.T) {
	prog, err := Assemble("spin", `
.module spin
.text
.func main
main:
spin:
    j spin
.endfunc
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Profile(prog, Options{SamplePeriod: 500, MaxCycles: 20000}); err == nil {
		t.Fatal("Profile of a non-terminating program returned nil error under MaxCycles")
	}
}

const validateLoop = `
.func main
main:
    li t0, 300
loop:
    mul t1, t0, t0
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    syscall
.endfunc
`

// TestEntryPointsValidate checks that every library entry point that runs
// a pass validates the caller's options before filling defaults. A
// machine without an issue queue would livelock the simulator, so each
// call runs under a deadline: a missing check fails the test instead of
// hanging it.
func TestEntryPointsValidate(t *testing.T) {
	prog, err := Assemble("validate", validateLoop)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// within runs f on its own goroutine so an entry point without a
	// context still cannot hang the test.
	within := func(name string, f func() error) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			return err
		case <-ctx.Done():
			t.Fatalf("%s did not return before the deadline", name)
			return nil
		}
	}

	bad := XeonW2195()
	bad.IQSize = 0
	badOpts := Options{Machine: bad}
	sp, _, err := SampleOnlyContext(ctx, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(Options) error
	}{
		{"ProfileContext", func(o Options) error { _, err := ProfileContext(ctx, prog, o); return err }},
		{"SampleOnlyContext", func(o Options) error { _, _, err := SampleOnlyContext(ctx, prog, o); return err }},
		{"InstrumentOnlyContext", func(o Options) error { _, err := InstrumentOnlyContext(ctx, prog, o); return err }},
		{"TieredInstrumentOnlyContext", func(o Options) error {
			_, err := TieredInstrumentOnlyContext(ctx, prog, sp, o)
			return err
		}},
		{"MeasureOverhead", func(o Options) error { _, err := MeasureOverhead(prog, o); return err }},
		{"Program.Run", func(o Options) error { _, err := prog.Run(o.Machine); return err }},
	} {
		err := within(tc.name, func() error { return tc.run(badOpts) })
		if err == nil || !strings.Contains(err.Error(), "IQSize") {
			t.Errorf("%s with IQSize 0: err = %v, want a validation error naming IQSize", tc.name, err)
		}
		// A period below the default interrupt cost is valid (the unset
		// cost is not held to the period), so every entry point must
		// accept it, before and after filling defaults.
		if tc.name == "Program.Run" {
			continue
		}
		if err := within(tc.name, func() error { return tc.run(Options{SamplePeriod: 20}) }); err != nil {
			t.Errorf("%s with SamplePeriod 20: %v", tc.name, err)
		}
	}
}
