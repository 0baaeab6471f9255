package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"optiwise"
	"optiwise/internal/core"
	"optiwise/internal/interp"
	"optiwise/internal/ooo"
	"optiwise/internal/program"
)

// Load bases of the two profiling passes. The benchmark sets them
// explicitly (they equal Options' defaults) so the ground-truth runs load
// each program exactly where the profiled runs do.
const (
	sampleASLRSeed = 101
	instrASLRSeed  = 202
)

// groundTruth is the exact per-instruction picture of one program on one
// machine: the simulator's TrueAttribution cycles and the interpreter's
// exact execution counts, both keyed by module offset.
type groundTruth struct {
	cycles map[uint64]float64
	counts map[uint64]float64
}

// truthCache computes each (program, machine) ground truth once per
// invocation; the exact counts depend on the program alone and are
// shared between machines.
type truthCache struct {
	mu     sync.Mutex
	counts map[string]map[uint64]float64
	truths map[string]*groundTruth
}

func newTruthCache() *truthCache {
	return &truthCache{counts: make(map[string]map[uint64]float64), truths: make(map[string]*groundTruth)}
}

func (c *truthCache) get(prog *optiwise.Program, m optiwise.Machine, randSeed uint64) (*groundTruth, error) {
	key := fmt.Sprintf("%s@%s#%d", prog.Module(), m.Name, randSeed)
	ckey := fmt.Sprintf("%s#%d", prog.Module(), randSeed)
	c.mu.Lock()
	if t, ok := c.truths[key]; ok {
		c.mu.Unlock()
		return t, nil
	}
	counts := c.counts[ckey]
	c.mu.Unlock()
	if counts == nil {
		var err error
		if counts, err = exactCounts(prog, randSeed); err != nil {
			return nil, err
		}
	}
	cycles, err := trueCycles(prog, m, randSeed)
	if err != nil {
		return nil, err
	}
	t := &groundTruth{cycles: cycles, counts: counts}
	c.mu.Lock()
	c.counts[ckey] = counts
	c.truths[key] = t
	c.mu.Unlock()
	return t, nil
}

// trueCycles runs prog unsampled on m with TrueAttribution: every user
// cycle is charged to the instruction a perfect sampler would observe.
func trueCycles(prog *optiwise.Program, m optiwise.Machine, randSeed uint64) (map[uint64]float64, error) {
	img := program.Load(prog.Raw(), program.LoadOptions{ASLRSeed: sampleASLRSeed})
	sim := ooo.New(m, img, ooo.Options{TrueAttribution: true, RandSeed: randSeed})
	if _, err := sim.Run(0); err != nil {
		return nil, fmt.Errorf("truth run of %s on %s: %w", prog.Module(), m.Name, err)
	}
	out := make(map[uint64]float64)
	for pc, c := range sim.TrueCycles() {
		if off, ok := img.AbsToOff(pc); ok {
			out[off] += float64(c)
		}
	}
	return out, nil
}

// exactCounts steps prog on the functional interpreter, counting every
// retired instruction by module offset.
func exactCounts(prog *optiwise.Program, randSeed uint64) (map[uint64]float64, error) {
	img := program.Load(prog.Raw(), program.LoadOptions{ASLRSeed: instrASLRSeed})
	m := interp.New(img, randSeed)
	out := make(map[uint64]float64)
	for !m.Exited {
		st, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("count run of %s: %w", prog.Module(), err)
		}
		if off, ok := img.AbsToOff(st.PC); ok {
			out[off]++
		}
	}
	return out, nil
}

// cpiError pools the true-cycle-weighted relative CPI error of reported
// records against ground truth, over any number of Results. At each
// granularity a group's error is |reported CPI − true CPI| / true CPI,
// weighted by the group's true cycles; truth mass the Result has no
// record for counts as 100% error.
type cpiError struct {
	inst, block, fn, weight float64
}

func (e *cpiError) add(t *groundTruth, prog *program.Program, insts []core.InstRecord, blocks []core.BlockRecord, funcs []core.FuncRecord) {
	instCPI := make(map[uint64]float64, len(insts))
	for _, r := range insts {
		instCPI[r.Offset] = r.CPI
	}
	sorted := append([]core.BlockRecord(nil), blocks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	blockOf := func(off uint64) int {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Start > off }) - 1
		if i >= 0 && off < sorted[i].End {
			return i
		}
		return -1
	}
	funcCPI := make(map[string]float64, len(funcs))
	for _, f := range funcs {
		funcCPI[f.Name] = f.CPI
	}

	type agg struct{ cycles, insts float64 }
	blockAgg := make(map[int]*agg)
	funcAgg := make(map[string]*agg)
	// Sums run in a fixed order so the pooled errors repeat bit for bit.
	seen := make(map[uint64]bool, len(t.counts))
	offsets := make([]uint64, 0, len(t.counts))
	for _, m := range []map[uint64]float64{t.counts, t.cycles} {
		for off := range m {
			if !seen[off] {
				seen[off] = true
				offsets = append(offsets, off)
			}
		}
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	var funcNames []string
	for _, off := range offsets {
		c, n := t.cycles[off], t.counts[off]
		e.weight += c
		if c > 0 {
			e.inst += c * relErr(instCPI[off], c, n)
		}
		if b := blockOf(off); b >= 0 {
			a := blockAgg[b]
			if a == nil {
				a = &agg{}
				blockAgg[b] = a
			}
			a.cycles += c
			a.insts += n
		} else {
			e.block += c
		}
		if f, ok := prog.FuncAt(off); ok {
			a := funcAgg[f.Name]
			if a == nil {
				a = &agg{}
				funcAgg[f.Name] = a
				funcNames = append(funcNames, f.Name)
			}
			a.cycles += c
			a.insts += n
		} else {
			e.fn += c
		}
	}
	for b := range sorted {
		if a := blockAgg[b]; a != nil && a.cycles > 0 {
			e.block += a.cycles * relErr(sorted[b].CPI, a.cycles, a.insts)
		}
	}
	for _, name := range funcNames {
		if a := funcAgg[name]; a.cycles > 0 {
			e.fn += a.cycles * relErr(funcCPI[name], a.cycles, a.insts)
		}
	}
}

// relErr is |reported − true| / true for true CPI cycles/insts, or 1
// (100%) when the truth has no executions to divide by.
func relErr(reported, cycles, insts float64) float64 {
	if insts == 0 {
		return 1
	}
	truth := cycles / insts
	return math.Abs(reported-truth) / truth
}

// pct returns the pooled instruction, block, and function errors in
// percent.
func (e *cpiError) pct() (inst, block, fn float64) {
	if e.weight == 0 {
		return 0, 0, 0
	}
	return 100 * e.inst / e.weight, 100 * e.block / e.weight, 100 * e.fn / e.weight
}
