package ooo

import (
	"reflect"
	"strings"
	"testing"
)

// TestIntervalTelemetryConservation: the interval stream must tile the
// run — windows are contiguous from cycle 0, every full window is
// exactly the configured width, and the per-window instruction counts
// sum to the run's total retired instructions.
func TestIntervalTelemetryConservation(t *testing.T) {
	src := strings.ReplaceAll(depChainSrc, "%TRIPS%", "2000")
	s, st := runSim(t, src, XeonW2195(), Options{WindowCycles: 256})
	ivs := s.Intervals()
	if len(ivs) < 4 {
		t.Fatalf("want several intervals for a %d-cycle run, got %d", st.Cycles, len(ivs))
	}
	var next, insts, branches, mispredicts uint64
	for i, iv := range ivs {
		if iv.Start != next {
			t.Fatalf("interval %d starts at %d, want %d (gaps/overlap)", i, iv.Start, next)
		}
		if iv.Cycles == 0 {
			t.Fatalf("interval %d has zero cycles", i)
		}
		if i < len(ivs)-1 && iv.Cycles != 256 {
			t.Errorf("interval %d: %d cycles, want full window 256", i, iv.Cycles)
		}
		next = iv.Start + iv.Cycles
		insts += iv.Instructions
		branches += iv.Branches
		mispredicts += iv.Mispredicts

		if got := float64(iv.Instructions) / float64(iv.Cycles); iv.IPC != got {
			t.Errorf("interval %d: IPC %v inconsistent with %d/%d", i, iv.IPC, iv.Instructions, iv.Cycles)
		}
		if iv.MispredictRate < 0 || iv.MispredictRate > 1 {
			t.Errorf("interval %d: mispredict rate %v out of [0,1]", i, iv.MispredictRate)
		}
		if iv.ROBOccupancy < 0 || iv.ROBOccupancy > 300 {
			t.Errorf("interval %d: implausible ROB occupancy %v", i, iv.ROBOccupancy)
		}
		// Stall causes partition the window's cycles exactly.
		b := iv.Stalls
		if sum := b.Commit + b.Frontend + b.Memory + b.StoreBuffer + b.Execute + b.Other; sum != iv.Cycles {
			t.Errorf("interval %d: stall breakdown sums to %d, want %d", i, sum, iv.Cycles)
		}
		for _, lv := range iv.Cache {
			if lv.Rate < 0 || lv.Rate > 1 {
				t.Errorf("interval %d: cache %s miss rate %v out of [0,1]", i, lv.Level, lv.Rate)
			}
			if lv.Hits+lv.Misses == 0 && lv.Rate != 0 {
				t.Errorf("interval %d: idle cache level %s has nonzero rate", i, lv.Level)
			}
		}
	}
	if next != st.Cycles {
		t.Errorf("intervals cover [0,%d), run was %d cycles", next, st.Cycles)
	}
	if insts != st.Instructions {
		t.Errorf("interval instructions sum to %d, run retired %d", insts, st.Instructions)
	}
	if branches != st.Branches || mispredicts != st.Mispredicts {
		t.Errorf("interval branches/mispredicts %d/%d, run %d/%d",
			branches, mispredicts, st.Branches, st.Mispredicts)
	}
}

// TestOnWindowDeliversIntervals: OnWindow sees exactly the Intervals
// the run loop closes, in order, leaving at most the trailing partial
// window to Intervals alone; with sampling on, the windows' user cycles
// exclude interrupt time and sum to the run's.
func TestOnWindowDeliversIntervals(t *testing.T) {
	src := strings.ReplaceAll(depChainSrc, "%TRIPS%", "2000")
	var got []Interval
	s, st := runSim(t, src, XeonW2195(), Options{
		WindowCycles: 300, SamplePeriod: 700, InterruptCost: 40,
		OnWindow: func(iv Interval) { got = append(got, iv) },
	})
	ivs := s.Intervals()
	if len(got) < 4 || len(ivs)-len(got) > 1 {
		t.Fatalf("OnWindow saw %d windows, Intervals has %d", len(got), len(ivs))
	}
	if !reflect.DeepEqual(got, ivs[:len(got)]) {
		t.Error("OnWindow records differ from Intervals")
	}
	var user uint64
	for i, iv := range ivs {
		if iv.UserCycles > iv.Cycles {
			t.Errorf("interval %d: %d user cycles exceed %d cycles", i, iv.UserCycles, iv.Cycles)
		}
		user += iv.UserCycles
	}
	if user != st.UserCycles || st.UserCycles == st.Cycles {
		t.Errorf("interval user cycles sum to %d, run had %d user of %d cycles", user, st.UserCycles, st.Cycles)
	}
}

// TestIntervalTelemetryOffByDefault: without WindowCycles the sim
// must collect nothing (the disabled path is one nil compare per
// cycle) and produce identical timing.
func TestIntervalTelemetryOffByDefault(t *testing.T) {
	src := strings.ReplaceAll(depChainSrc, "%TRIPS%", "500")
	off, offSt := runSim(t, src, XeonW2195(), Options{})
	if off.Intervals() != nil {
		t.Error("telemetry collected without opting in")
	}
	_, onSt := runSim(t, src, XeonW2195(), Options{WindowCycles: 128})
	if offSt.Cycles != onSt.Cycles || offSt.Instructions != onSt.Instructions {
		t.Errorf("telemetry perturbed the simulation: off=%d/%d on=%d/%d cycles/insts",
			offSt.Cycles, offSt.Instructions, onSt.Cycles, onSt.Instructions)
	}
}

// TestIntervalStallsReflectWorkload: a serialized multiply chain stalls
// on the multiplier, not on memory or the frontend — the aggregate
// breakdown must attribute the bulk of the non-retiring cycles to
// execution-side causes (execute + store_buffer), with memory idle.
func TestIntervalStallsReflectWorkload(t *testing.T) {
	src := strings.ReplaceAll(depChainSrc, "%TRIPS%", "2000")
	s, st := runSim(t, src, XeonW2195(), Options{WindowCycles: 512})
	ivs := s.Intervals()
	if len(ivs) == 0 {
		t.Fatal("no intervals")
	}
	var total StallBreakdown
	for _, iv := range ivs {
		total.Commit += iv.Stalls.Commit
		total.Frontend += iv.Stalls.Frontend
		total.Memory += iv.Stalls.Memory
		total.StoreBuffer += iv.Stalls.StoreBuffer
		total.Execute += iv.Stalls.Execute
		total.Other += iv.Stalls.Other
	}
	execSide := total.Execute + total.StoreBuffer
	memSide := total.Memory + total.Frontend
	if execSide <= memSide {
		t.Errorf("mul chain should stall on execution, not memory/frontend: %+v", total)
	}
	if 10*execSide < 3*st.Cycles {
		t.Errorf("mul chain: execution-side stalls only %d of %d cycles: %+v", execSide, st.Cycles, total)
	}
}

func TestStallBreakdownDominant(t *testing.T) {
	if d := (StallBreakdown{Commit: 10}).Dominant(); d != "commit" {
		t.Errorf("Dominant = %q, want commit", d)
	}
	if d := (StallBreakdown{Commit: 1, Memory: 5}).Dominant(); d != "memory" {
		t.Errorf("Dominant = %q, want memory", d)
	}
	if d := (StallBreakdown{Frontend: 2, StoreBuffer: 9, Execute: 3}).Dominant(); d != "store_buffer" {
		t.Errorf("Dominant = %q, want store_buffer", d)
	}
	if d := (StallBreakdown{}).Dominant(); d != "commit" {
		t.Errorf("empty breakdown Dominant = %q, want commit", d)
	}
}
