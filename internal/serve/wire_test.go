package serve

// The result payload codec: every report kind the service renders is
// byte-identical from a Result and from its decoded payload, encoding
// is a function of the value alone (the same bytes in another process),
// a decoded payload re-encodes to itself, non-finite floats do not
// encode, and arbitrary bytes never panic the decoder.

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"optiwise"
	"optiwise/internal/cfg"
	"optiwise/internal/core"
	"optiwise/internal/dbi"
	"optiwise/internal/ooo"
	"optiwise/internal/report"
)

// wireProg is the program every codec test profiles: a suite benchmark
// small enough to run in milliseconds, with functions, loops, calls and
// cold code for the tiered run.
func wireProg() (*optiwise.Program, error) {
	for _, spec := range optiwise.SuiteSpecs() {
		if spec.Name == "505.mcf" {
			return optiwise.SuiteProgram(spec, 0.01)
		}
	}
	return nil, errors.New("suite has no 505.mcf")
}

var wireCorpus struct {
	once sync.Once
	prog *optiwise.Program
	res  map[string]*optiwise.Result
	err  error
}

// wireResults returns a full, a tiered and a windowed profile of
// wireProg, plus rebuilds of the full one whose tables are nil, or
// empty but not nil — the distinction a JSON report shows as null
// versus [].
func wireResults(tb testing.TB) (*optiwise.Program, map[string]*optiwise.Result) {
	tb.Helper()
	wireCorpus.once.Do(func() {
		prog, err := wireProg()
		if err != nil {
			wireCorpus.err = err
			return
		}
		out := make(map[string]*optiwise.Result)
		for name, opts := range map[string]optiwise.Options{
			"full":     {SamplePeriod: 400, RandSeed: 1},
			"tiered":   {SamplePeriod: 400, RandSeed: 1, Tiered: true, HotThreshold: 0.05},
			"windowed": {SamplePeriod: 400, RandSeed: 1, Window: 4096},
		} {
			res, err := optiwise.Profile(prog, opts)
			if err != nil {
				wireCorpus.err = err
				return
			}
			out[name] = res
		}
		full := out["full"]
		nilTables := *full.Export()
		nilTables.HotRanges, nilTables.Intervals, nilTables.Loops, nilTables.Lines = nil, nil, nil, nil
		out["nil tables"] = core.FromExport(&nilTables, prog.Raw(), full.Graph)
		out["no graph"] = core.FromExport(full.Export(), prog.Raw(), nil)

		empty := *full.Export()
		empty.HotRanges, empty.Intervals = []dbi.Range{}, []ooo.Interval{}
		empty.Insts, empty.Blocks, empty.Funcs = []core.InstRecord{}, []core.BlockRecord{}, []core.FuncRecord{}
		empty.Loops, empty.Lines = []core.LoopRecord{}, []core.LineRecord{}
		g, err := (&cfg.FlatGraph{Module: empty.Module, Blocks: []cfg.FlatBlock{}, CallEdges: []cfg.CallEdge{}}).Unflatten()
		if err != nil {
			wireCorpus.err = err
			return
		}
		out["empty tables"] = core.FromExport(&empty, prog.Raw(), g)
		wireCorpus.prog, wireCorpus.res = prog, out
	})
	if wireCorpus.err != nil {
		tb.Fatal(wireCorpus.err)
	}
	return wireCorpus.prog, wireCorpus.res
}

// renderAll renders res as every report kind the service serves,
// keyed by kind; a renderer's error is rendered as its text.
func renderAll(res *optiwise.Result) map[string]string {
	out := make(map[string]string)
	put := func(kind string, b *bytes.Buffer, err error) {
		if err != nil {
			out[kind] = "error: " + err.Error()
			return
		}
		out[kind] = b.String()
	}
	for kind, rr := range reportRenderers {
		body, err := rr.render(res)
		put(kind, bytes.NewBuffer(body), err)
	}
	for _, f := range res.Funcs {
		var b bytes.Buffer
		put("annotated?func="+f.Name, &b, optiwise.WriteAnnotated(&b, res, f.Name))
	}
	var d bytes.Buffer
	put("drilldown", &d, report.WriteDrilldown(&d, res))
	return out
}

// TestWireRendersIdentically: every report kind is byte-identical from
// a Result and from its decoded payload, and encode∘decode∘encode is
// the identity.
func TestWireRendersIdentically(t *testing.T) {
	prog, results := wireResults(t)
	if len(results["tiered"].HotRanges) == 0 || !results["tiered"].Tiered {
		t.Fatal("tiered run selected no hot ranges")
	}
	if len(results["windowed"].Intervals) == 0 {
		t.Fatal("windowed run recorded no intervals")
	}
	for name, res := range results {
		t.Run(name, func(t *testing.T) {
			payload, sum, err := EncodeWireResult(res)
			if err != nil {
				t.Fatal(err)
			}
			if sum != WireChecksum(payload) {
				t.Error("checksum is not the payload's SHA-256")
			}
			back, err := DecodeWireResult(payload, prog)
			if err != nil {
				t.Fatal(err)
			}
			want, got := renderAll(res), renderAll(back)
			if len(want) < len(reportRenderers)+1 {
				t.Fatalf("rendered only %d kinds", len(want))
			}
			for kind := range want {
				if got[kind] != want[kind] {
					t.Errorf("%s differs after the round trip:\nwant %.300q\ngot  %.300q", kind, want[kind], got[kind])
				}
			}
			again, _, err := EncodeWireResult(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, payload) {
				t.Error("re-encoding the decoded result changed the payload")
			}
		})
	}
}

// TestWireRefusesNonFinite: like json.Marshal, the encoder refuses NaN
// and ±Inf, which is what keeps such a result out of the store.
func TestWireRefusesNonFinite(t *testing.T) {
	prog, results := wireResults(t)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		exp := *results["full"].Export()
		exp.Insts = append([]core.InstRecord(nil), exp.Insts...)
		exp.Insts[0].CPI = f
		if _, _, err := EncodeWireResult(core.FromExport(&exp, prog.Raw(), nil)); err == nil {
			t.Errorf("CPI %v encoded", f)
		}
	}
}

// TestWirePayloadSameInTwoProcesses: a payload depends on the Result
// alone, so another process encodes the same profile to the same bytes
// — what lets two nodes that computed one key independently agree on
// its checksum.
func TestWirePayloadSameInTwoProcesses(t *testing.T) {
	const marker = "wire-sha256="
	_, results := wireResults(t)
	_, sum, err := EncodeWireResult(results["windowed"])
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("OPTIWISE_WIRE_CHILD") == "1" {
		os.Stdout.WriteString(marker + sum + "\n") //nolint:errcheck // read by the parent
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWirePayloadSameInTwoProcesses$")
	cmd.Env = append(os.Environ(), "OPTIWISE_WIRE_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	_, child, ok := strings.Cut(string(out), marker)
	if !ok {
		t.Fatalf("child printed no checksum:\n%s", out)
	}
	if child, _, _ = strings.Cut(child, "\n"); child != sum {
		t.Errorf("child encoded checksum %.12s, want %.12s", child, sum)
	}
}

// TestWireSchemaRejectsUnsupportedKinds: a type the walk cannot encode
// faithfully fails when its codec is compiled (for WireResult: at
// init), never at run time.
func TestWireSchemaRejectsUnsupportedKinds(t *testing.T) {
	type recursive struct{ Next *recursive }
	type hidden struct{ n int }
	for _, v := range []any{
		struct{ M map[string]int }{},
		struct{ I any }{},
		struct{ A [4]uint64 }{},
		struct{ F float32 }{},
		struct{ C chan int }{},
		hidden{},
		recursive{},
		struct{}{},
	} {
		if _, _, err := compileWire(reflect.TypeOf(v)); err == nil {
			t.Errorf("%T compiled", v)
		}
	}
	// The fingerprint follows the schema: a renamed field under the
	// same type name is another schema, and one schema always yields
	// one header.
	x := func() reflect.Type { type rec struct{ X uint64 }; return reflect.TypeOf(rec{}) }()
	y := func() reflect.Type { type rec struct{ Y uint64 }; return reflect.TypeOf(rec{}) }()
	_, hx, errX := compileWire(x)
	_, hy, errY := compileWire(y)
	_, hx2, _ := compileWire(x)
	if errX != nil || errY != nil || hx == hy || hx != hx2 {
		t.Errorf("headers: X=%x Y=%x X again=%x (errors %v, %v)", hx, hy, hx2, errX, errY)
	}
}

// wireFuzzSrc is a small program with a call, two loops and two
// functions: its payloads are a few hundred bytes, which keeps the
// fuzzer's minimization of each new input short.
const wireFuzzSrc = `
.module fuzz
.text
.func main
main:
    addi sp, sp, -16
    st ra, 8(sp)
    li s2, 30
outer:
    call kernel
    addi s2, s2, -1
    bnez s2, outer
    ld ra, 8(sp)
    addi sp, sp, 16
    li a0, 0
    li a7, 93
    syscall
.endfunc
.func kernel
kernel:
    li t0, 20
kl:
    div t1, t0, t0
    addi t0, t0, -1
    bnez t0, kl
    ret
.endfunc
`

// FuzzDecodeWireResult: arbitrary bytes never panic the decoder, it
// allocates in proportion to the payload, and a payload it accepts
// re-encodes to exactly its own bytes. The seeds are a full, a tiered
// and a windowed result.
func FuzzDecodeWireResult(f *testing.F) {
	prog, err := optiwise.Assemble("fuzz", wireFuzzSrc)
	if err != nil {
		f.Fatal(err)
	}
	for _, opts := range []optiwise.Options{
		{SamplePeriod: 300},
		{SamplePeriod: 300, Tiered: true, HotThreshold: 0.5},
		{SamplePeriod: 300, Window: 2048},
	} {
		res, err := optiwise.Profile(prog, opts)
		if err != nil {
			f.Fatal(err)
		}
		payload, _, err := EncodeWireResult(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeWireResult(payload, prog)
		runtime.ReadMemStats(&after)
		if limit := 64*uint64(len(payload)) + 1<<16; after.TotalAlloc-before.TotalAlloc > limit {
			t.Errorf("decoding %d bytes allocated %d (limit %d)", len(payload), after.TotalAlloc-before.TotalAlloc, limit)
		}
		var w WireResult
		if werr := w.UnmarshalBinary(payload); werr != nil {
			if err == nil {
				t.Fatalf("DecodeWireResult accepted a payload UnmarshalBinary refuses (%v)", werr)
			}
			return
		}
		again, err := w.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes to other bytes:\n%x\n%x", payload, again)
		}
	})
}

// TestWireEncodeAllocatesThePayloadOnce: MarshalBinary sizes the payload
// in a first pass and then allocates it once, at its final length,
// instead of growing a buffer by doubling.
func TestWireEncodeAllocatesThePayloadOnce(t *testing.T) {
	_, results := wireResults(t)
	for _, name := range []string{"full", "tiered", "windowed"} {
		w := &WireResult{Export: results[name].Export(), Graph: results[name].Graph.Flatten()}
		payload, err := w.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if cap(payload) != len(payload) {
			t.Errorf("%s: a %d-byte payload has capacity %d", name, len(payload), cap(payload))
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			w.MarshalBinary() //nolint:errcheck // encoded above
		}
		runtime.ReadMemStats(&after)
		perEncode := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %d-byte payload, %.0f bytes allocated per encode", name, len(payload), perEncode)
		if perEncode > 1.1*float64(len(payload)) {
			t.Errorf("%s: encoding a %d-byte payload allocated %.0f bytes, want at most 1.1x the payload",
				name, len(payload), perEncode)
		}
	}
}
