package ooo

import (
	"runtime"
	"strings"
	"testing"

	"optiwise/internal/asm"
	"optiwise/internal/program"
)

// allocLoopSrc is a load → multiply → store loop: every iteration's uops
// wait on producers, so consumer lists, the ready queue and the uop free
// list all cycle through their steady state.
const allocLoopSrc = `
.data
buf: .space 64
.text
.func main
main:
    la s1, buf
    li t0, %TRIPS%
loop:
    ld t1, 0(s1)
    mul t2, t1, t0
    st t2, 8(s1)
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    syscall
.endfunc
`

// TestRunAllocationsFlat pins the simulator's steady state as
// allocation-free: New + Run allocate the same whether the program runs
// 2k or 200k loop iterations, give or take a handful.
func TestRunAllocationsFlat(t *testing.T) {
	allocs := func(cfg Config, trips string) float64 {
		p, err := asm.Assemble("alloc", strings.ReplaceAll(allocLoopSrc, "%TRIPS%", trips))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(1, func() {
			if _, err := New(cfg, program.Load(p, program.LoadOptions{}), Options{}).Run(0); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, cfg := range []Config{XeonW2195(), NeoverseN1()} {
		short, long := allocs(cfg, "2000"), allocs(cfg, "200000")
		t.Logf("%s: %.0f allocations at 2k iterations, %.0f at 200k", cfg.Name, short, long)
		if long > short+5 {
			t.Errorf("%s: %.0f allocations at 200k iterations vs %.0f at 2k: the run loop allocates per cycle",
				cfg.Name, long, short)
		}
	}
}

// TestNewAllocations bounds the cost of building a simulator, in
// allocations and in bytes. The cache hierarchy builds its sets in chunks
// on first fill, so New pays for none of the modelled capacity (a dense
// Xeon W-2195 hierarchy is 6.9 MB, the N1's 2.6 MB).
func TestNewAllocations(t *testing.T) {
	p, err := asm.Assemble("alloc", strings.ReplaceAll(allocLoopSrc, "%TRIPS%", "1"))
	if err != nil {
		t.Fatal(err)
	}
	img := program.Load(p, program.LoadOptions{})
	for _, cfg := range []Config{XeonW2195(), NeoverseN1()} {
		n := testing.AllocsPerRun(1, func() { New(cfg, img, Options{}) })
		if n >= 1000 {
			t.Errorf("New(%s) made %.0f allocations, want under 1000", cfg.Name, n)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(cfg, img, Options{})
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b >= 256<<10 {
			t.Errorf("New(%s) allocated %d bytes, want under 256 KiB", cfg.Name, b)
		} else {
			t.Logf("New(%s): %.0f allocations, %d bytes", cfg.Name, n, b)
		}
	}
}
