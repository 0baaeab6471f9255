package optiwise

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// renderAll renders every report writer into one byte stream, so two
// Results can be compared at the level users actually observe.
func renderAll(t *testing.T, prof *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, fn := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return WriteReport(b, prof) },
		func(b *bytes.Buffer) error { return WriteFunctionTable(b, prof) },
		func(b *bytes.Buffer) error { return WriteLoopTable(b, prof) },
		func(b *bytes.Buffer) error { return WriteInstCSV(b, prof) },
		func(b *bytes.Buffer) error { return WriteLoopCSV(b, prof) },
	} {
		if err := fn(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestProfileSplitEquivalence is the determinism contract of the
// concurrent pipeline: Profile, which overlaps its two passes, must
// produce the same Result — down to every rendered report byte — as
// the split pipeline SampleOnly, InstrumentOnly and Analyze run back to
// back, because both passes are deterministic in isolation and the
// combining analysis merges its shards in deterministic order
// (DESIGN.md §7).
func TestProfileSplitEquivalence(t *testing.T) {
	cfg := DefaultMCFConfig()
	cfg.Arcs = 256
	cfg.ScanInvocations = 2
	prog, err := MCFProgram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7, 42} {
		opts := Options{SamplePeriod: 1000, SampleJitter: true, RandSeed: seed}

		sp, _, err := SampleOnly(prog, opts)
		if err != nil {
			t.Fatalf("seed %d sample: %v", seed, err)
		}
		ep, err := InstrumentOnly(prog, opts)
		if err != nil {
			t.Fatalf("seed %d instrument: %v", seed, err)
		}
		split, err := Analyze(prog, sp, ep, opts)
		if err != nil {
			t.Fatalf("seed %d analyze: %v", seed, err)
		}
		par, err := Profile(prog, opts)
		if err != nil {
			t.Fatalf("seed %d profile: %v", seed, err)
		}

		if !reflect.DeepEqual(split, par) {
			t.Errorf("seed %d: Profile Result differs from the split pipeline's", seed)
		}
		splitOut, parOut := renderAll(t, split), renderAll(t, par)
		if !bytes.Equal(splitOut, parOut) {
			t.Errorf("seed %d: rendered reports differ (%d vs %d bytes)",
				seed, len(splitOut), len(parOut))
		}
	}
}

// TestParallelCancellation proves both in-flight passes stop promptly:
// ProfileContext only returns after its two pass goroutines have
// finished, so a fast error return bounds how long either pass kept
// simulating after the cancel.
func TestParallelCancellation(t *testing.T) {
	cfg := DefaultMCFConfig()
	cfg.Arcs = 4096
	cfg.ScanInvocations = 50 // long enough that both passes are mid-flight
	prog, err := MCFProgram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = ProfileContext(ctx, prog, Options{SamplePeriod: 1000})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Generous bound for loaded CI machines; an uncancelled run of this
	// configuration takes tens of seconds.
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; passes did not stop promptly", elapsed)
	}
}
