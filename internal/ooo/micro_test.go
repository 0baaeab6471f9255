package ooo

import (
	"strings"
	"testing"

	"optiwise/internal/isa"
)

// Store-to-load forwarding: a load from a just-stored address must not pay
// cache latency.
func TestStoreForwarding(t *testing.T) {
	forwarded := `
.func main
main:
    li s10, 0x100000000000
    li t0, 30000
loop:
    st t1, 0(s10)
    ld t2, 0(s10)     # forwarded from the store buffer
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    syscall
.endfunc
`
	_, st := runSim(t, forwarded, XeonW2195(), Options{})
	// ~4 instructions per iteration; with forwarding the loop should run
	// near its dataflow bound, far below a cache-latency-per-iteration
	// pace. L1 latency alone would be >=4 cycles per iteration.
	perIter := float64(st.Cycles) / 30000
	if perIter > 6 {
		t.Errorf("%.1f cycles/iter: store forwarding seems broken", perIter)
	}

	// One load and one store to the same cold word. The load's address
	// waits on a divide, so the store, whose address is ready at once,
	// has executed by the time the load issues but cannot commit before
	// it. Only a store older than the load may forward.
	const order = `
.func main
main:
    li s10, 0x100000000000
    li t0, 7
    div t3, t0, t0
    addi t3, t3, -1
    add s11, s10, t3
    %FIRST%
    %SECOND%
    li a0, 0
    li a7, 93
    syscall
.endfunc
`
	load, store := "ld t2, 0(s11)", "st t1, 0(s10)"
	for _, tc := range []struct {
		name          string
		first, second string
		want          uint64
	}{
		{"older store forwards", store, load, 2},
		{"younger store does not forward", load, store, XeonW2195().Cache.MemLatency},
	} {
		src := strings.NewReplacer("%FIRST%", tc.first, "%SECOND%", tc.second).Replace(order)
		s, _ := runSim(t, src, XeonW2195(), Options{TraceLimit: 100})
		var ld, st *TimelineEntry
		for i, e := range s.Trace() {
			switch e.Op {
			case isa.LD:
				ld = &s.Trace()[i]
			case isa.ST:
				st = &s.Trace()[i]
			}
		}
		if ld == nil || st == nil {
			t.Fatalf("%s: trace lacks the load or the store", tc.name)
		}
		if st.Done > ld.Start || st.Commit <= ld.Start {
			t.Fatalf("%s: store executed %d..%d, committed %d; load issued %d: the store was not in flight",
				tc.name, st.Start, st.Done, st.Commit, ld.Start)
		}
		if lat := ld.Done - ld.Start; lat != tc.want {
			t.Errorf("%s: load latency %d, want %d", tc.name, lat, tc.want)
		}
	}
}

// Deep call chains within the RAS depth predict perfectly; beyond it,
// returns mispredict.
func TestRASDepthEffect(t *testing.T) {
	// Build a nest of D functions each calling the next.
	build := func(depth int) string {
		var b strings.Builder
		b.WriteString(".func main\nmain:\n")
		b.WriteString("    addi sp, sp, -16\n    st ra, 8(sp)\n    li s2, 3000\nl:\n")
		b.WriteString("    call f0\n    addi s2, s2, -1\n    bnez s2, l\n")
		b.WriteString("    ld ra, 8(sp)\n    addi sp, sp, 16\n    li a0, 0\n    li a7, 93\n    syscall\n.endfunc\n")
		for i := 0; i < depth; i++ {
			b.WriteString(".func f")
			b.WriteString(string(rune('0' + i)))
			b.WriteString("\nf")
			b.WriteString(string(rune('0' + i)))
			b.WriteString(":\n")
			if i+1 < depth {
				b.WriteString("    addi sp, sp, -16\n    st ra, 8(sp)\n")
				b.WriteString("    call f")
				b.WriteString(string(rune('0' + i + 1)))
				b.WriteString("\n    ld ra, 8(sp)\n    addi sp, sp, 16\n")
			} else {
				b.WriteString("    nop\n")
			}
			b.WriteString("    ret\n.endfunc\n")
		}
		return b.String()
	}
	cfg := XeonW2195()
	cfg.RASDepth = 4
	_, shallow := runSim(t, build(3), cfg, Options{})
	_, deep := runSim(t, build(8), cfg, Options{})
	shallowRate := float64(shallow.Mispredicts) / float64(shallow.Branches)
	deepRate := float64(deep.Mispredicts) / float64(deep.Branches)
	if shallowRate > 0.02 {
		t.Errorf("shallow call nest mispredict rate %.3f, want ~0", shallowRate)
	}
	if deepRate < 2*shallowRate {
		t.Errorf("RAS overflow should raise mispredicts: %.3f vs %.3f", deepRate, shallowRate)
	}
}

// PREFETCH warms the cache: a loop that prefetches its next line ahead of
// time beats the same loop without the prefetch.
func TestPrefetchHidesMisses(t *testing.T) {
	src := func(prefetch bool) string {
		p := ""
		if prefetch {
			p = "    prefetch 1280(t3)\n" // 20 lines ahead
		}
		return `
.func main
main:
    li a0, 0x100010000000
    li a7, 214
    syscall
    li s10, 0x100000000000
    li t0, 0
    li t1, 30000
    li t2, 0xfffffc0
loop:
    and t3, t0, t2
    add t3, t3, s10
` + p + `    ld a2, 0(t3)
    add a1, a1, a2
    xor a1, a1, a2
    add a1, a1, a2
    xor a1, a1, a2
    addi t0, t0, 64
    addi t1, t1, -1
    bnez t1, loop
    li a0, 0
    li a7, 93
    syscall
.endfunc
`
	}
	_, plain := runSim(t, src(false), XeonW2195(), Options{})
	_, pf := runSim(t, src(true), XeonW2195(), Options{})
	if pf.Cycles >= plain.Cycles {
		t.Errorf("prefetch did not help: %d vs %d", pf.Cycles, plain.Cycles)
	}
}

// Indirect calls through a stable target train the BTB.
func TestBTBLearnsIndirectTarget(t *testing.T) {
	src := `
.func main
main:
    addi sp, sp, -16
    st ra, 8(sp)
    la s3, callee
    li s2, 5000
loop:
    callr s3
    addi s2, s2, -1
    bnez s2, loop
    ld ra, 8(sp)
    addi sp, sp, 16
    li a0, 0
    li a7, 93
    syscall
.endfunc
.func callee
callee:
    nop
    ret
.endfunc
`
	_, st := runSim(t, src, XeonW2195(), Options{})
	rate := float64(st.Mispredicts) / float64(st.Branches)
	if rate > 0.01 {
		t.Errorf("stable indirect target mispredict rate %.3f, want ~0", rate)
	}
}

// The N1 configuration runs programs to identical architectural results
// (covered by equiv tests) and its early-dequeue mode must not leak into
// the x86 configuration.
func TestEarlyDequeueOnlyOnN1(t *testing.T) {
	if XeonW2195().EarlyDequeue {
		t.Error("x86 config must not early-dequeue")
	}
	if !NeoverseN1().EarlyDequeue {
		t.Error("N1 config must early-dequeue")
	}
}

// A cycle limit must abort cleanly at exactly the limit, also when the
// limit falls inside a stretch of quiet cycles the run loop skips.
func TestCycleLimit(t *testing.T) {
	spin := `
.func main
main:
loop:
    j loop
.endfunc
`
	for _, c := range []struct {
		src   string
		limit uint64
	}{
		{spin, 1000},
		{goldenStoreMiss, 1},
		{goldenStoreMiss, 4097},
		{goldenStoreMiss, 100_003},
		{goldenStoreMiss, 150_001},
		{goldenStoreMiss, 200_000},
	} {
		s := New(XeonW2195(), build(t, c.src), Options{TrueAttribution: true})
		if _, err := s.Run(c.limit); err == nil {
			t.Fatalf("limit %d: cycle limit not enforced", c.limit)
		}
		if s.cycle != c.limit {
			t.Errorf("limit %d: stopped at cycle %d", c.limit, s.cycle)
		}
		var charged uint64
		for _, n := range s.TrueCycles() {
			charged += n
		}
		if charged != c.limit {
			t.Errorf("limit %d: ground truth charged %d cycles", c.limit, charged)
		}
	}
}

// ROB size caps the in-flight window: a tiny ROB slows a long-latency-
// shadowed instruction stream.
func TestROBSizeLimitsOverlap(t *testing.T) {
	src := `
.func main
main:
    li a0, 0x100010000000
    li a7, 214
    syscall
    li s10, 0x100000000000
    li t0, 0
    li t1, 8000
    li t2, 0xfffffc0
loop:
    and t3, t0, t2
    add t3, t3, s10
    ld a2, 0(t3)
    addi t0, t0, 64
    addi t1, t1, -1
    bnez t1, loop
    li a0, 0
    li a7, 93
    syscall
.endfunc
`
	small := XeonW2195()
	small.ROBSize = 16
	small.IQSize = 8
	_, tiny := runSim(t, src, small, Options{})
	_, big := runSim(t, src, XeonW2195(), Options{})
	if float64(tiny.Cycles) < 1.5*float64(big.Cycles) {
		t.Errorf("small ROB (%d cycles) should be much slower than large (%d)",
			tiny.Cycles, big.Cycles)
	}
}

// Samples taken under the precise mode during a load miss hit the load.
func TestPreciseSamplingTargetsStalledLoad(t *testing.T) {
	// covered extensively in sampler tests; here verify the mode flag
	// plumbs through Options.
	src := strings.ReplaceAll(depChainSrc, "%TRIPS%", "2000")
	var got int
	_, _ = got, src
	s := New(XeonW2195(), build(t, src), Options{
		SamplePeriod: 500,
		SampleMode:   SamplePrecise,
		OnSample:     func(Sample) { got++ },
	})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Error("no samples in precise mode")
	}
}

// Deep recursion: captured stacks are truncated to MaxStackDepth frames,
// keeping the innermost frames.
func TestStackDepthTruncation(t *testing.T) {
	src := `
.func main
main:
    addi sp, sp, -16
    st ra, 8(sp)
    li a0, 40          # recursion depth
    call deep
    ld ra, 8(sp)
    addi sp, sp, 16
    li a0, 0
    li a7, 93
    syscall
.endfunc
.func deep
deep:
    addi sp, sp, -16
    st ra, 8(sp)
    ble a0, zero, base
    addi a0, a0, -1
    call deep
    j out
base:
    li t0, 4000
spin:
    div t1, t0, t0     # samples land at max depth
    addi t0, t0, -1
    bnez t0, spin
out:
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
.endfunc
`
	maxSeen := 0
	s := New(XeonW2195(), build(t, src), Options{
		SamplePeriod:  300,
		MaxStackDepth: 8,
		OnSample: func(smp Sample) {
			if len(smp.Stack) > maxSeen {
				maxSeen = len(smp.Stack)
			}
		},
	})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if maxSeen == 0 {
		t.Fatal("no stacks captured")
	}
	if maxSeen > 8 {
		t.Errorf("stack depth %d exceeds cap 8", maxSeen)
	}
	// Default cap: deep stacks captured in full (depth 41 < 127).
	maxSeen = 0
	s2 := New(XeonW2195(), build(t, src), Options{
		SamplePeriod: 300,
		OnSample: func(smp Sample) {
			if len(smp.Stack) > maxSeen {
				maxSeen = len(smp.Stack)
			}
		},
	})
	if _, err := s2.Run(0); err != nil {
		t.Fatal(err)
	}
	if maxSeen < 40 {
		t.Errorf("default cap truncated a 41-deep stack to %d", maxSeen)
	}
}

// Commit width is the figure 8 "commit group" mechanism: halving it slows
// a throughput-bound loop.
func TestCommitWidthBounds(t *testing.T) {
	// Pure ALU loop: with 4 ALUs the 4-wide machine is fetch/commit
	// bound; the 1-wide-commit variant serializes retirement.
	src := strings.ReplaceAll(
		strings.ReplaceAll(indepSrc, "mul", "add"), "%TRIPS%", "10000")
	narrow := XeonW2195()
	narrow.CommitWidth = 1
	_, n1 := runSim(t, src, narrow, Options{})
	_, w4 := runSim(t, src, XeonW2195(), Options{})
	if float64(n1.Cycles) < 1.5*float64(w4.Cycles) {
		t.Errorf("1-wide commit (%d) should be much slower than 4-wide (%d)",
			n1.Cycles, w4.Cycles)
	}
}

// The store buffer is what makes figure 8 happen: with a tiny buffer a
// store-miss loop stalls harder than with a large one.
func TestStoreBufferSizeEffect(t *testing.T) {
	src := `
.func main
main:
    li a0, 0x100010000000
    li a7, 214
    syscall
    li s10, 0x100000000000
    li t0, 0
    li s7, 4000
    li t2, 0xfffffc0
loop:
    and t3, t0, t2
    add t3, t3, s10
    st a1, 0(t3)
    addi t0, t0, 64
    addi s7, s7, -1
    bnez s7, loop
    li a0, 0
    li a7, 93
    syscall
.endfunc
`
	tiny := XeonW2195()
	tiny.SBSize = 1
	_, small := runSim(t, src, tiny, Options{})
	big := XeonW2195()
	big.SBSize = 64
	_, large := runSim(t, src, big, Options{})
	if small.Cycles <= large.Cycles {
		t.Errorf("1-entry store buffer (%d) should be slower than 64-entry (%d)",
			small.Cycles, large.Cycles)
	}
}

// Syscall latency accounts as configured.
func TestSyscallLatencyKnob(t *testing.T) {
	src := `
.func main
main:
    li s2, 50
l:
    li a7, 1000
    syscall
    addi s2, s2, -1
    bnez s2, l
    li a7, 93
    li a0, 0
    syscall
.endfunc
`
	slow := XeonW2195()
	slow.SyscallLat = 2000
	_, a := runSim(t, src, slow, Options{})
	fast := XeonW2195()
	fast.SyscallLat = 10
	_, b := runSim(t, src, fast, Options{})
	if a.Cycles < b.Cycles+50*1500 {
		t.Errorf("syscall latency knob ineffective: %d vs %d", a.Cycles, b.Cycles)
	}
}
