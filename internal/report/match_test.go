package report

// The append renderers against their fmt reference (reference_test.go)
// over a corpus of real profiles: suite programs on both production
// machines, in every shape a report takes — full, tiered, the two
// degraded views, a degraded tiered run and windowed.

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"

	"optiwise/internal/asm"
	"optiwise/internal/core"
	"optiwise/internal/dbi"
	"optiwise/internal/ooo"
	"optiwise/internal/sampler"
	"optiwise/internal/workloads"
)

// corpusSpecs are the suite programs the corpus profiles, at
// corpusScale: stall-bound and branch- and call-dense ones.
var corpusSpecs = []string{
	"505.mcf", "531.deepsjeng", "500.perlbench", "523.xalancbmk",
	"525.x264", "548.exchange2", "511.povray", "541.leela",
}

const corpusScale = 0.01

type corpusProfile struct {
	name string
	p    *core.Profile
}

var corpus struct {
	once  sync.Once
	profs []corpusProfile
	err   error
}

// referenceCorpus returns the corpus, built once per test binary.
func referenceCorpus(tb testing.TB) []corpusProfile {
	tb.Helper()
	corpus.once.Do(func() { corpus.profs, corpus.err = buildCorpus() })
	if corpus.err != nil {
		tb.Fatal(corpus.err)
	}
	return corpus.profs
}

func buildCorpus() ([]corpusProfile, error) {
	var out []corpusProfile
	for _, name := range corpusSpecs {
		spec, ok := workloads.SpecByName(name)
		if !ok {
			return nil, fmt.Errorf("suite has no %s", name)
		}
		prog, err := asm.Assemble(name, workloads.Generate(spec.Scale(corpusScale)))
		if err != nil {
			return nil, err
		}
		for _, m := range []ooo.Config{ooo.XeonW2195(), ooo.NeoverseN1()} {
			sopts := sampler.Options{Period: 400, InterruptCost: sampler.DefaultInterruptCost, RandSeed: 1}
			sp, _, err := sampler.Run(m, prog, sopts)
			if err != nil {
				return nil, err
			}
			dopts := dbi.Options{StackProfiling: true, RandSeed: 1}
			ep, err := dbi.Run(prog, dopts)
			if err != nil {
				return nil, err
			}
			dopts.Select = core.DeriveSelection(prog, sp, 0.05)
			tep, err := dbi.Run(prog, dopts)
			if err != nil {
				return nil, err
			}
			sopts.Window = 4096
			wsp, _, err := sampler.Run(m, prog, sopts)
			if err != nil {
				return nil, err
			}
			full := core.Options{Machine: m.Name}
			tiered := core.Options{Machine: m.Name, Tiered: true}
			for _, c := range []struct {
				mode string
				p    func() (*core.Profile, error)
			}{
				{"full", func() (*core.Profile, error) { return core.Combine(prog, sp, ep, full) }},
				{"tiered", func() (*core.Profile, error) { return core.Combine(prog, sp, tep, tiered) }},
				{"sampling-only", func() (*core.Profile, error) {
					return core.CombineSampleOnly(prog, sp, full, "dbi pass killed")
				}},
				{"counts-only", func() (*core.Profile, error) {
					return core.CombineCountsOnly(prog, ep, full, "sampling pass killed")
				}},
				{"tiered sampling-only", func() (*core.Profile, error) {
					return core.CombineSampleOnly(prog, sp, tiered, "tiered selection failed")
				}},
				{"windowed", func() (*core.Profile, error) { return core.Combine(prog, wsp, ep, full) }},
			} {
				p, err := c.p()
				if err != nil {
					return nil, err
				}
				out = append(out, corpusProfile{name + "/" + m.Name + "/" + c.mode, p})
			}
		}
	}
	return out, nil
}

type renderer func(io.Writer, *core.Profile) error

// renderPairs lists every renderer of report.go and phases.go with its
// reference, for p: each function and each loop annotated, plus a
// missing one of each.
func renderPairs(p *core.Profile) map[string][2]renderer {
	pairs := map[string][2]renderer{
		"summary":      {WriteSummary, refWriteSummary},
		"functions":    {WriteFunctionTable, refWriteFunctionTable},
		"loops":        {WriteLoopTable, refWriteLoopTable},
		"events":       {WriteEventTable, refWriteEventTable},
		"phases":       {WritePhaseSummary, refWritePhaseSummary},
		"all":          {WriteAll, refWriteAll},
		"inst csv":     {WriteInstCSV, refWriteInstCSV},
		"loop csv":     {WriteLoopCSV, refWriteLoopCSV},
		"missing func": annotatedPair("no such function"),
		"missing loop": loopPair(-7),
	}
	for _, max := range []int{0, 3, 15, 20} {
		max := max
		pairs["blocks max="+strconv.Itoa(max)] = [2]renderer{
			func(w io.Writer, p *core.Profile) error { return WriteBlockTable(w, p, max) },
			func(w io.Writer, p *core.Profile) error { return refWriteBlockTable(w, p, max) },
		}
		pairs["lines max="+strconv.Itoa(max)] = [2]renderer{
			func(w io.Writer, p *core.Profile) error { return WriteLineTable(w, p, max) },
			func(w io.Writer, p *core.Profile) error { return refWriteLineTable(w, p, max) },
		}
	}
	for _, f := range p.Prog.Functions {
		pairs["func "+f.Name] = annotatedPair(f.Name)
	}
	for _, l := range p.Loops {
		pairs["loop #"+strconv.Itoa(l.ID)] = loopPair(l.ID)
	}
	return pairs
}

func annotatedPair(name string) [2]renderer {
	return [2]renderer{
		func(w io.Writer, p *core.Profile) error { return WriteAnnotatedFunc(w, p, name) },
		func(w io.Writer, p *core.Profile) error { return refWriteAnnotatedFunc(w, p, name) },
	}
}

func loopPair(id int) [2]renderer {
	return [2]renderer{
		func(w io.Writer, p *core.Profile) error { return WriteAnnotatedLoop(w, p, id) },
		func(w io.Writer, p *core.Profile) error { return refWriteAnnotatedLoop(w, p, id) },
	}
}

// TestRenderersMatchReference: every renderer is byte-identical to its
// fmt reference on every corpus profile, and fails exactly when the
// reference fails, with the same error. A failing renderer writes
// nothing (the reference may have written its banner first).
func TestRenderersMatchReference(t *testing.T) {
	for _, cp := range referenceCorpus(t) {
		var funcs, loops int
		for name, pair := range renderPairs(cp.p) {
			var got, want bytes.Buffer
			gotErr, wantErr := pair[0](&got, cp.p), pair[1](&want, cp.p)
			switch {
			case (gotErr == nil) != (wantErr == nil) ||
				gotErr != nil && gotErr.Error() != wantErr.Error():
				t.Errorf("%s: %s: error %v, reference error %v", cp.name, name, gotErr, wantErr)
			case gotErr != nil:
				if got.Len() != 0 {
					t.Errorf("%s: %s: failed render wrote %q", cp.name, name, got.String())
				}
			case !bytes.Equal(got.Bytes(), want.Bytes()):
				t.Errorf("%s: %s differs from the reference:\n got: %q\nwant: %q",
					cp.name, name, got.String(), want.String())
			default:
				if strings.HasPrefix(name, "func ") {
					funcs++
				}
				if strings.HasPrefix(name, "loop #") {
					loops++
				}
			}
		}
		if funcs != len(cp.p.Prog.Functions) || loops != len(cp.p.Loops) {
			t.Errorf("%s: matched %d/%d functions and %d/%d loops",
				cp.name, funcs, len(cp.p.Prog.Functions), loops, len(cp.p.Loops))
		}
	}
}

// TestRendererAllocationsAreConstant bounds the allocations of a whole
// report and of the per-instruction CSV by a small constant on every
// corpus profile, whose record counts run from a handful to thousands,
// so no per-row fmt call can return to the row path unnoticed. The
// bound covers the buffer (and a growth past its estimate), the report
// span, the banner, and a windowed report's IPC series and phases.
func TestRendererAllocationsAreConstant(t *testing.T) {
	const maxAll, maxCSV = 8, 2
	for _, cp := range referenceCorpus(t) {
		all := testing.AllocsPerRun(5, func() { WriteAll(io.Discard, cp.p) })     //nolint:errcheck // the reference test checks errors
		csv := testing.AllocsPerRun(5, func() { WriteInstCSV(io.Discard, cp.p) }) //nolint:errcheck // the reference test checks errors
		if all > maxAll || csv > maxCSV {
			t.Errorf("%s (%d insts, %d intervals): WriteAll made %.0f allocations (max %d), WriteInstCSV %.0f (max %d)",
				cp.name, len(cp.p.Insts), len(cp.p.Intervals), all, maxAll, csv, maxCSV)
		}
	}
}
