package ooo

import (
	"context"
	"errors"
	"testing"

	"optiwise/internal/fault"
)

// The run loop jumps over quiet cycles. These tests (and TestCycleLimit)
// pin the boundaries a jump must never cross: the cancellation poll, the
// fault-injection poll and the cycle limit. They run on goldenStoreMiss,
// whose ROB head waits on a full store buffer for most of the run, so
// nearly every boundary lands inside a quiet stretch.

func TestStoreMissLoopIsMostlyQuiet(t *testing.T) {
	s, st := runSim(t, goldenStoreMiss, XeonW2195(), Options{IntervalCycles: 1 << 40})
	iv := s.Intervals()
	if len(iv) != 1 {
		t.Fatalf("got %d intervals, want 1", len(iv))
	}
	if blocked := iv[0].Stalls.StoreBuffer; blocked*2 < st.Cycles {
		t.Fatalf("store-buffer stalls %d of %d cycles: loop no longer store-bound", blocked, st.Cycles)
	}
}

func TestPreCancelledContextSimulatesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(XeonW2195(), build(t, goldenStoreMiss), Options{TrueAttribution: true})
	_, err := s.RunContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.cycle != 0 || s.stats.Instructions != 0 || len(s.TrueCycles()) != 0 {
		t.Errorf("simulated %d cycles, %d instructions before noticing cancellation",
			s.cycle, s.stats.Instructions)
	}
}

func TestCancelFromOnSampleIsPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var s *Sim
	var cancelledAt uint64
	samples := 0
	s = New(XeonW2195(), build(t, goldenStoreMiss), Options{
		SamplePeriod: 2000, SampleMode: SampleSkid, InterruptCost: 25,
		OnSample: func(Sample) {
			if samples++; samples == 40 {
				cancelledAt = s.cycle - s.kernelCycles
				cancel()
			}
		},
	})
	_, err := s.RunContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The poll counts user cycles (interrupt time is a jump, not a loop
	// iteration), so the bound is exact in user cycles.
	if late := s.cycle - s.kernelCycles - cancelledAt; late > cancelCheckInterval {
		t.Errorf("noticed cancellation %d user cycles late, bound %d", late, cancelCheckInterval)
	}
}

// An nth= fault plan counts polls of the ooo.run site, one per
// cancelCheckInterval simulated user cycles starting at cycle 0; skipping
// quiet cycles must not change which cycle the Nth poll lands on.
func TestFaultPollCadence(t *testing.T) {
	p, err := fault.Parse("ooo.run:error:nth=3")
	if err != nil {
		t.Fatal(err)
	}
	prev := fault.Set(p)
	t.Cleanup(func() { fault.Set(prev) })

	s := New(XeonW2195(), build(t, goldenStoreMiss), Options{
		SamplePeriod: 1500, SampleMode: SampleSkid, InterruptCost: 30,
	})
	_, err = s.Run(0)
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Site != fault.SiteOOORun {
		t.Fatalf("err = %v, want an injected ooo.run fault", err)
	}
	if user := s.cycle - s.kernelCycles; user != 2*cancelCheckInterval {
		t.Errorf("third poll fired at user cycle %d, want %d", user, 2*cancelCheckInterval)
	}
}
