package ooo

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"optiwise/internal/asm"
	"optiwise/internal/progen"
	"optiwise/internal/program"
	"optiwise/internal/workloads"
)

// The golden-digest contract: every observable output of the simulator —
// samples, Stats, ground-truth cycles, the cycle windows (as Intervals
// and as the boundaries OnWindow saw) and the pipeline timeline — is pinned to a SHA-256 per (program,
// machine, setting) case. Any change to the run loop that is meant to be
// a pure speedup must leave testdata/golden_digests.txt untouched.
//
// A change that deliberately alters simulated timing regenerates the
// file with
//
//	go test ./internal/ooo -run '^TestGoldenDigests$' -update-golden
//
// and must say in its description why the profiles moved.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_digests.txt from the current simulator")

const goldenFile = "testdata/golden_digests.txt"

// goldenDivSyscall mixes the non-pipelined integer and FP dividers with
// serializing syscalls (write, rand, brk query) inside a loop, so the
// divider-busy and fetch-serialization waits all appear in one program.
const goldenDivSyscall = `
.module divsys
.data
msg:
    .ascii "x"
.text
.func main
main:
    li t0, 300
    li t1, 7
    li t5, 3
    fcvt.d.l f1, t1
    fcvt.d.l f2, t5
loop:
    div t2, t0, t1
    fdiv f3, f1, f2
    fdiv f4, f3, f2
    fsqrt f5, f4
    rem t3, t0, t5
    add t4, t2, t3
    andi t6, t0, 15
    bnez t6, skip
    li a0, 1
    la a1, msg
    li a2, 1
    li a7, 64
    syscall
    li a7, 1000
    syscall
    li a0, 0
    li a7, 214
    syscall
skip:
    divu t2, t4, t1
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    syscall
.endfunc
`

// goldenStoreMiss streams stores across a working set far beyond the
// cache hierarchy, so the ROB head is a finished store blocked by a full
// store buffer for most of the run.
const goldenStoreMiss = `
.module storemiss
.text
.func main
main:
    li a0, 0x100004000000
    li a7, 214
    syscall
    li s10, 0x100000000000
    li t0, 0
    li t1, 1500
    li t2, 0x3ffffc0
loop:
    and t3, t0, t2
    add t3, t3, s10
    st t1, 0(t3)
    addi t0, t0, 4160
    addi t1, t1, -1
    bnez t1, loop
    li a0, 0
    li a7, 93
    syscall
.endfunc
`

type goldenProgram struct {
	name string
	src  string
}

func goldenPrograms() []goldenProgram {
	var out []goldenProgram
	for _, spec := range workloads.Suite() {
		spec = spec.Scale(0.01)
		if spec.Chase && spec.WorkingSetKB > 256 {
			// The chase table is seeded one store-missing line at a
			// time; a full-size table would dominate the test's runtime.
			spec.WorkingSetKB = 256
		}
		out = append(out, goldenProgram{spec.Name, workloads.Generate(spec)})
	}
	for seed := int64(0); seed < 12; seed++ {
		out = append(out, goldenProgram{
			fmt.Sprintf("progen-%d", seed), progen.Generate(progen.DefaultConfig(seed)),
		})
	}
	return append(out,
		goldenProgram{"fig8", shrinkTrips(workloads.Fig8(), "li s7, 30000", "li s7, 1500")},
		goldenProgram{"fig9", shrinkTrips(workloads.Fig9(), "li s7, 20000", "li s7, 600")},
		goldenProgram{"divsys", goldenDivSyscall},
		goldenProgram{"storemiss", goldenStoreMiss},
	)
}

// shrinkTrips rewrites a micro-benchmark's loop trip count, panicking if
// the benchmark no longer contains the expected line.
func shrinkTrips(src, from, to string) string {
	if !strings.Contains(src, from) {
		panic("golden: micro-benchmark lost its trip-count line " + from)
	}
	return strings.Replace(src, from, to, 1)
}

type goldenSetting struct {
	name string
	opts Options
	// hook installs OnWindow, so the digest covers the boundaries it
	// reports as well as Intervals.
	hook bool
}

func goldenSettings() []goldenSetting {
	return []goldenSetting{
		{"skid", Options{SamplePeriod: 2000, SampleMode: SampleSkid, InterruptCost: 25}, false},
		{"precise-jitter", Options{SamplePeriod: 777, SampleMode: SamplePrecise,
			SampleJitter: true, InterruptCost: 40}, false},
		{"true", Options{TrueAttribution: true}, false},
		{"interval", Options{WindowCycles: 5000}, false},
		{"trace", Options{TraceLimit: 600}, false},
		// Everything at once: a pending skid sample, cycle windows and
		// their hook, ground truth and the timeline all interleave in
		// one run.
		{"all", Options{SamplePeriod: 1500, SampleMode: SampleSkid, InterruptCost: 30,
			TrueAttribution: true, WindowCycles: 4000, TraceLimit: 200}, true},
	}
}

// goldenNarrowMachines are the production machines squeezed until issue
// contention is the common case: ready uops queue behind one another for
// bandwidth and ports, and the small windows keep dispatch backing up.
// They pin the order in which the issue stage picks among ready uops,
// which the wide machines rarely exercise.
func goldenNarrowMachines() []Config {
	xeon := XeonW2195()
	xeon.Name += "-narrow"
	xeon.IssueWidth = 2
	xeon.ALUs, xeon.MulUnits, xeon.FPUs, xeon.LoadPorts, xeon.StorePorts = 1, 1, 1, 1, 1
	xeon.IQSize, xeon.ROBSize, xeon.SBSize = 6, 16, 2

	n1 := NeoverseN1()
	n1.Name += "-narrow"
	n1.IssueWidth = 1
	n1.ALUs, n1.LoadPorts = 1, 1
	n1.IQSize, n1.ROBSize = 4, 12
	return []Config{xeon, n1}
}

// goldenNarrowSettings is the subset of goldenSettings run on the narrow
// machines: plain skid sampling, and everything interleaved at once.
func goldenNarrowSettings() []goldenSetting {
	var out []goldenSetting
	for _, gs := range goldenSettings() {
		if gs.name == "skid" || gs.name == "all" {
			out = append(out, gs)
		}
	}
	return out
}

// goldenDigest runs one case and hashes everything it observed.
func goldenDigest(t *testing.T, p *program.Image, cfg Config, gs goldenSetting) string {
	t.Helper()
	h := sha256.New()
	opts := gs.opts
	var samples []Sample
	opts.OnSample = func(s Sample) { samples = append(samples, s) }
	// Each boundary OnWindow reports is hashed as the run's cumulative
	// cycle, user-cycle and instruction counts at that boundary.
	var marks [][4]uint64
	var user, insts uint64
	if gs.hook {
		opts.OnWindow = func(iv Interval) {
			user += iv.UserCycles
			insts += iv.Instructions
			marks = append(marks, [4]uint64{iv.Start, iv.Start + iv.Cycles, user, insts})
		}
	}
	opts.RandSeed = 7
	sim := New(cfg, p, opts)
	st, err := sim.Run(200_000_000)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}

	tag(h, "samples", uint64(len(samples)))
	for _, s := range samples {
		words(h, s.PC, s.Weight, s.CacheMisses, s.Mispredicts, uint64(len(s.Stack)))
		words(h, s.Stack...)
	}
	tag(h, "stats", 0)
	words(h, st.Cycles, st.UserCycles, st.Instructions, st.Mispredicts, st.Branches, st.Samples)

	tc := sim.TrueCycles()
	pcs := make([]uint64, 0, len(tc))
	for pc := range tc {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	tag(h, "true", uint64(len(pcs)))
	for _, pc := range pcs {
		words(h, pc, tc[pc])
	}

	ivs := sim.Intervals()
	tag(h, "intervals", uint64(len(ivs)))
	for _, iv := range ivs {
		words(h, iv.Start, iv.Cycles, iv.Instructions, math.Float64bits(iv.IPC),
			math.Float64bits(iv.ROBOccupancy), iv.Branches, iv.Mispredicts,
			math.Float64bits(iv.MispredictRate), uint64(len(iv.Cache)))
		for _, l := range iv.Cache {
			tag(h, l.Level, 0)
			words(h, l.Hits, l.Misses, math.Float64bits(l.Rate))
		}
		b := iv.Stalls
		words(h, b.Commit, b.Frontend, b.Memory, b.StoreBuffer, b.Execute, b.Other)
	}

	tag(h, "windows", uint64(len(marks)))
	for _, m := range marks {
		words(h, m[:]...)
	}

	tr := sim.Trace()
	tag(h, "trace", uint64(len(tr)))
	for _, e := range tr {
		words(h, e.Seq, e.PC, uint64(e.Op), e.Dispatch, e.Start, e.Done, e.Commit)
	}

	tag(h, "arch", uint64(sim.Arch().ExitCode))
	h.Write(sim.Arch().Output)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func words(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func tag(h hash.Hash, name string, n uint64) {
	h.Write([]byte(name))
	words(h, n)
}

func TestGoldenDigests(t *testing.T) {
	got := map[string]string{}
	var order []string
	gps := goldenPrograms()
	progs := make([]*program.Program, len(gps))
	for i, gp := range gps {
		prog, err := asm.Assemble(gp.name, gp.src)
		if err != nil {
			t.Fatalf("%s: %v", gp.name, err)
		}
		progs[i] = prog
	}
	run := func(machines []Config, settings []goldenSetting) {
		for i, prog := range progs {
			for _, cfg := range machines {
				for _, gs := range settings {
					key := gps[i].name + "/" + cfg.Name + "/" + gs.name
					got[key] = goldenDigest(t, program.Load(prog, program.LoadOptions{}), cfg, gs)
					order = append(order, key)
				}
			}
		}
	}
	run([]Config{XeonW2195(), NeoverseN1()}, goldenSettings())
	// The narrow machines come after every production case, so the
	// production lines keep their place in the file.
	run(goldenNarrowMachines(), goldenNarrowSettings())

	if *updateGolden {
		var b strings.Builder
		for _, k := range order {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(order), goldenFile)
		return
	}

	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			want[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, run produced %d", len(want), len(got))
	}
	for _, k := range order {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: missing from %s", k, goldenFile)
		} else if w != got[k] {
			t.Errorf("%s: digest %s, golden %s", k, got[k][:16], w[:16])
		}
	}
}
