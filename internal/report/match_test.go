package report

// The append renderers against their fmt or encoding/json reference
// (reference_test.go) over a corpus of real profiles: suite programs on
// both production machines, in every shape a report takes — full,
// tiered, the two degraded views, a degraded tiered run and windowed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
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
	for name, pair := range jsonPairs {
		pairs[name] = pair
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

// jsonPairs are the two JSON renderers with their encoding/json
// reference: the export as Encode writes Export(), and the drill-down
// as an indenting Encoder writes refBuildDrilldown's model.
var jsonPairs = map[string][2]renderer{
	"json": {writeExport, func(w io.Writer, p *core.Profile) error {
		return json.NewEncoder(w).Encode(p.Export())
	}},
	"drilldown": {WriteDrilldown, func(w io.Writer, p *core.Profile) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(refBuildDrilldown(p))
	}},
}

func writeExport(w io.Writer, p *core.Profile) error { return p.WriteJSON(w) }

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
// span, the banner, and a windowed report's IPC series and phases. The
// JSON export and the drill-down are sized before they are written, so
// each allocates at most what the allocator takes for a buffer 1.1x the
// output (room for the floats' sizing bounds and the drill-down's index
// lists, at 4 bytes a record), plus jsonSlack bytes for the banner notes
// and the allocator's rounding of the index lists: the export allocates
// its buffer alone, the drill-down also its index lists and notes.
func TestRendererAllocationsAreConstant(t *testing.T) {
	const maxAll, maxCSV = 8, 2
	maxJSON := map[string]float64{"json": 1, "drilldown": 3}
	const jsonSlack = 2048
	for _, cp := range referenceCorpus(t) {
		all := testing.AllocsPerRun(5, func() { WriteAll(io.Discard, cp.p) })     //nolint:errcheck // the reference test checks errors
		csv := testing.AllocsPerRun(5, func() { WriteInstCSV(io.Discard, cp.p) }) //nolint:errcheck // the reference test checks errors
		if all > maxAll || csv > maxCSV {
			t.Errorf("%s (%d insts, %d intervals): WriteAll made %.0f allocations (max %d), WriteInstCSV %.0f (max %d)",
				cp.name, len(cp.p.Insts), len(cp.p.Intervals), all, maxAll, csv, maxCSV)
		}
		for name, pair := range jsonPairs {
			var out bytes.Buffer
			if err := pair[0](&out, cp.p); err != nil {
				t.Fatalf("%s: %s: %v", cp.name, name, err)
			}
			render := func() { pair[0](io.Discard, cp.p) } //nolint:errcheck // rendered above
			allocs := testing.AllocsPerRun(5, render)
			size := out.Len()
			buffer := allocatedBytes(func() { sink = make([]byte, 0, size+size/10) })
			perRender := allocatedBytes(render)
			if max := buffer + jsonSlack; allocs > maxJSON[name] || perRender > max {
				t.Errorf("%s: %s of %d bytes made %.0f allocations (max %.0f) of %.0f bytes (max %.0f)",
					cp.name, name, size, allocs, maxJSON[name], perRender, max)
			}
		}
	}
}

var sink []byte

// allocatedBytes returns the bytes one call of f allocates, on average.
func allocatedBytes(f func()) float64 {
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// hostile is a string encoding/json must escape in every way it can:
// quotes and backslashes, HTML-significant bytes, control characters,
// U+2028/U+2029 and invalid UTF-8.
const hostile = "q\"b\\<a href=\"x\">&amp;</a>\t\n\x01\x7f\u2028\u2029\xff\xc3(é"

// TestJSONEscapesLikeEncodingJSON: the JSON renderers match their
// reference on a profile whose module, function, file and degraded
// reason strings need escaping. A sampling-only profile is degraded, so
// both renderers carry its reason.
func TestJSONEscapesLikeEncodingJSON(t *testing.T) {
	for _, cp := range referenceCorpus(t) {
		if !strings.HasSuffix(cp.name, "/sampling-only") {
			continue
		}
		exp := *cp.p.Export()
		exp.Module += hostile
		exp.DegradedReason += hostile
		rename := func(name string) string { return name + hostile }
		exp.Funcs = append([]core.FuncRecord(nil), exp.Funcs...)
		for i := range exp.Funcs {
			exp.Funcs[i].Name = rename(exp.Funcs[i].Name)
		}
		exp.Blocks = append([]core.BlockRecord(nil), exp.Blocks...)
		for i := range exp.Blocks {
			exp.Blocks[i].Func = rename(exp.Blocks[i].Func)
		}
		exp.Loops = append([]core.LoopRecord(nil), exp.Loops...)
		for i := range exp.Loops {
			exp.Loops[i].Func = rename(exp.Loops[i].Func)
			exp.Loops[i].File = hostile
		}
		exp.Insts = append([]core.InstRecord(nil), exp.Insts...)
		for i := range exp.Insts {
			exp.Insts[i].Func = rename(exp.Insts[i].Func)
			exp.Insts[i].File = hostile
		}
		exp.Lines = append([]core.LineRecord(nil), exp.Lines...)
		for i := range exp.Lines {
			exp.Lines[i].File = hostile
		}
		matchJSONReference(t, cp.name+" with hostile strings", core.FromExport(&exp, cp.p.Prog, cp.p.Graph))
		return
	}
	t.Fatal("corpus has no sampling-only profile")
}

// TestJSONWritesEveryField: the JSON renderers match their reference on
// a profile whose every exported field, and every field of one record
// in each table, is set non-zero by reflection, so a field added to a
// record without writer support fails here. The records are linked so
// that the drill-down nests every level.
func TestJSONWritesEveryField(t *testing.T) {
	var p core.Profile
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.String:
			v.SetString("s" + strconv.Itoa(n) + hostile)
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
			v.SetUint(uint64(n))
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
			v.SetInt(int64(n))
		case reflect.Float64:
			v.SetFloat(float64(n) / 3)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Slice:
			s := reflect.MakeSlice(v.Type(), 1, 1)
			fill(s.Index(0))
			v.Set(s)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					fill(v.Field(i))
				}
			}
		case reflect.Pointer: // the program image and CFG, which neither renderer reads
		default:
			t.Fatalf("cannot fill a %s", v.Type())
		}
	}
	fill(reflect.ValueOf(&p).Elem())
	fn := p.Funcs[0].Name
	b := &p.Blocks[0]
	b.Func, b.End = fn, b.Start+16
	p.Loops[0].Func, p.Loops[0].BlockStarts = fn, []uint64{b.Start}
	p.Insts[0].Offset = b.Start
	matchJSONReference(t, "filled profile", &p)

	var dd bytes.Buffer
	if err := WriteDrilldown(&dd, &p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dd.String(), `"disasm"`) {
		t.Errorf("the drill-down did not nest down to the instruction:\n%s", dd.String())
	}
}

func matchJSONReference(t *testing.T, name string, p *core.Profile) {
	t.Helper()
	for kind, pair := range jsonPairs {
		var got, want bytes.Buffer
		if err := pair[1](&want, p); err != nil {
			t.Fatalf("%s: %s reference: %v", name, kind, err)
		}
		if err := pair[0](&got, p); err != nil {
			t.Errorf("%s: %s: %v", name, kind, err)
		} else if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: %s differs from the reference:\n got: %q\nwant: %q", name, kind, got.String(), want.String())
		}
	}
}

// BenchmarkJSONRenders renders the JSON export and the drill-down of
// every corpus profile into a reused buffer, with the append renderers
// and with their encoding/json reference, the code they replaced.
func BenchmarkJSONRenders(b *testing.B) {
	profs := referenceCorpus(b)
	for _, kind := range []string{"json", "drilldown"} {
		for i, impl := range []string{"append", "reference"} {
			render := jsonPairs[kind][i]
			b.Run(kind+"/"+impl, func(b *testing.B) {
				b.ReportAllocs()
				var buf bytes.Buffer
				for n := 0; n < b.N; n++ {
					for _, cp := range profs {
						buf.Reset()
						if err := render(&buf, cp.p); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
