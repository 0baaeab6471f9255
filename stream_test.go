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
// byte-identical to the one-shot profile of the same seed and window,
// its sampling windows must be that Result's intervals, and the
// combiner's cumulative totals must agree with that Result.
func TestStreamedCumulativeMatchesOneShot(t *testing.T) {
	prog, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 42} {
		base := Options{SamplePeriod: 500, RandSeed: seed, Window: 4096}
		oneShot, err := Profile(prog, base)
		if err != nil {
			t.Fatal(err)
		}

		opts := base
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
		checkWindowsAreIntervals(t, snap, oneShot)
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

// checkWindowsAreIntervals: a finished stream's sampling windows are
// the Result's intervals, one for one, followed by the final window —
// the trailing interval, or an empty end-of-stream marker when the run
// ended on a window boundary.
func checkWindowsAreIntervals(t *testing.T, snap StreamSnapshot, r *Result) {
	t.Helper()
	ws, ivs := snap.SampleWindows, r.Intervals
	if len(ivs) == 0 {
		t.Fatal("windowed Result has no intervals")
	}
	if n := len(ws) - len(ivs); n != 0 && (n != 1 || ws[len(ws)-1].Cycles != 0) {
		t.Fatalf("%d sampling windows for %d intervals", len(ws), len(ivs))
	}
	for i, iv := range ivs {
		w := ws[i]
		if w.Cycles != iv.Cycles || w.UserCycles != iv.UserCycles || w.Instructions != iv.Instructions {
			t.Errorf("window %d: %d/%d cycles, %d insts; interval %d/%d cycles, %d insts",
				i, w.Cycles, w.UserCycles, w.Instructions, iv.Cycles, iv.UserCycles, iv.Instructions)
		}
	}
	if !ws[len(ws)-1].Final {
		t.Error("last sampling window not marked final")
	}
}

// TestStreamEndsOnWindowBoundary: when the sampled run ends exactly on
// a window boundary, the final sampling increment still arrives, empty,
// as the end-of-stream marker, and the samples still add up.
func TestStreamEndsOnWindowBoundary(t *testing.T) {
	prog, err := Assemble("quick", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	sp, _, err := SampleOnly(prog, Options{SamplePeriod: 500})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{SamplePeriod: 500, Window: sp.TotalCycles}
	comb := NewStreamCombiner(prog)
	var mu sync.Mutex
	opts.OnIncrement = func(inc Increment) {
		mu.Lock()
		defer mu.Unlock()
		if err := comb.Add(inc); err != nil {
			t.Error(err)
		}
	}
	res, err := Profile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := comb.Snapshot()
	if len(snap.SampleWindows) != 2 || snap.SampleWindows[1].Cycles != 0 || !snap.SampleWindows[1].Final {
		t.Fatalf("sampling windows %+v, want one full window and an empty final", snap.SampleWindows)
	}
	checkSnapshotTotals(t, snap, res)
	checkWindowsAreIntervals(t, snap, res)
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
// rejected, and Canonical strips only the observation hook, so the
// window is part of the cache identity.
func TestStreamWindowValidation(t *testing.T) {
	if err := (Options{Window: 1}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "window") {
		t.Errorf("Window=1: %v", err)
	}
	if err := (Options{Window: 1 << 41}).Validate(); err == nil {
		t.Error("oversized window accepted")
	}
	if err := (Options{Window: 4096}).Validate(); err != nil {
		t.Errorf("valid window rejected: %v", err)
	}
	c := Options{Window: 4096, OnIncrement: func(Increment) {}}.Canonical()
	if c.Window != 4096 || c.OnIncrement != nil {
		t.Error("Canonical must keep the window and clear the hook")
	}
}
