package optiwise

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestStreamedCumulativeMatchesOneShot is the streaming acceptance
// criterion: streaming only observes. The streamed run's Result must be
// byte-identical to the one-shot profile of the same seed, and the
// combiner's cumulative totals must agree with that Result.
func TestStreamedCumulativeMatchesOneShot(t *testing.T) {
	prog, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 42} {
		base := Options{SamplePeriod: 500, RandSeed: seed}
		oneShot, err := Profile(prog, base)
		if err != nil {
			t.Fatal(err)
		}

		opts := base
		opts.StreamWindow = 4096
		comb := NewStreamCombiner(prog)
		var mu sync.Mutex
		var addErr error
		var incs int
		opts.OnIncrement = func(inc Increment) {
			mu.Lock()
			defer mu.Unlock()
			incs++
			if err := comb.Add(inc); err != nil && addErr == nil {
				addErr = err
			}
		}
		streamed, err := Profile(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		if addErr != nil {
			t.Fatalf("seed %d: combiner rejected an increment: %v", seed, addErr)
		}
		if incs < 2 {
			t.Fatalf("seed %d: only %d increments (both passes emit a final)", seed, incs)
		}
		if !comb.Complete() {
			t.Fatalf("seed %d: combiner incomplete after the run returned", seed)
		}

		if got := exportBytes(t, streamed); !bytes.Equal(got, exportBytes(t, oneShot)) {
			t.Errorf("seed %d: streaming perturbed the run's own profile", seed)
		}

		snap := comb.Snapshot()
		if !snap.Complete || !snap.SampleDone || !snap.EdgeDone {
			t.Errorf("seed %d: snapshot completion flags %+v", seed, snap)
		}
		checkSnapshotTotals(t, snap, oneShot)
		if snap.Cycles < snap.UserCycles {
			t.Errorf("seed %d: total cycles %d below user cycles %d",
				seed, snap.Cycles, snap.UserCycles)
		}
	}
}

// checkSnapshotTotals compares a finished stream's cumulative totals
// with the run's one-shot Result. The Result's TotalCycles is the
// sampled run's user cycles; the snapshot's Cycles additionally count
// sampling interrupt overhead.
func checkSnapshotTotals(t *testing.T, snap StreamSnapshot, r *Result) {
	t.Helper()
	if snap.UserCycles != r.TotalCycles {
		t.Errorf("snapshot user cycles %d, one-shot %d", snap.UserCycles, r.TotalCycles)
	}
	if snap.EdgeInstructions != r.TotalInsts {
		t.Errorf("snapshot edge instructions %d, one-shot %d", snap.EdgeInstructions, r.TotalInsts)
	}
	if got, want := uint64(snap.Samples), r.TotalSamples+r.UnmatchedSamples; got != want {
		t.Errorf("snapshot samples %d, one-shot %d", got, want)
	}
}

func exportBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r.Export())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamWindowValidation pins the option contract: tiny windows are
// rejected, and Canonical strips the streaming fields so streamed and
// plain submissions share one cache identity.
func TestStreamWindowValidation(t *testing.T) {
	if err := (Options{StreamWindow: 1}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "stream window") {
		t.Errorf("StreamWindow=1: %v", err)
	}
	if err := (Options{StreamWindow: 1 << 41}).Validate(); err == nil {
		t.Error("oversized stream window accepted")
	}
	if err := (Options{StreamWindow: 4096}).Validate(); err != nil {
		t.Errorf("valid stream window rejected: %v", err)
	}
	c := Options{StreamWindow: 4096, OnIncrement: func(Increment) {}}.Canonical()
	if c.StreamWindow != 0 || c.OnIncrement != nil {
		t.Error("Canonical kept the streaming observation fields")
	}
}
