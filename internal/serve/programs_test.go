package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"optiwise"
	"optiwise/internal/progen"
)

// memoTestSrc is a generated program of a few hundred instructions,
// without its .module directive so the submitted module name holds.
var memoTestSrc = strings.Replace(progen.Generate(progen.DefaultConfig(3)), ".module progen3\n", "", 1)

// submitBody is a POST /v1/jobs body carrying module and source.
func submitBody(t *testing.T, module, source, options string) []byte {
	t.Helper()
	src, err := json.Marshal(source)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(`{"module":"` + module + `","source":` + string(src) + `,"options":` + options + `}`)
}

// TestProgramMemoRepeat: a repeat of a module and source decodes to the
// same Program and key without assembling or encoding again — the
// repeat's allocations are a small fraction of the first decode's,
// which pays for both.
func TestProgramMemoRepeat(t *testing.T) {
	s := New(Config{})
	body := submitBody(t, "memo", memoTestSrc, `{"sample_period":300}`)
	first, err := s.decodeSubmission(body)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.decodeSubmission(body)
	if err != nil {
		t.Fatal(err)
	}
	if again.prog != first.prog || again.key != first.key {
		t.Fatalf("repeat decoded to program %p key %s, first %p %s", again.prog, again.key, first.prog, first.key)
	}

	module := 0
	cold := testing.AllocsPerRun(20, func() {
		module++
		if _, err := s.decodeSubmission(submitBody(t, "m"+strings.Repeat("x", module), memoTestSrc, `{}`)); err != nil {
			t.Fatal(err)
		}
	})
	warm := testing.AllocsPerRun(20, func() {
		if _, err := s.decodeSubmission(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per decode: memoized %.0f, fresh %.0f", warm, cold)
	if warm*4 > cold {
		t.Errorf("a memoized decode allocates %.0f times, a fresh one %.0f: the repeat still assembles or encodes", warm, cold)
	}
}

// TestProgramMemoKeys: the memo changes no job key. A memoized
// submission's key is jobKey of a freshly assembled program; the same
// source under another module name is another program and key; and a
// binary submission of a program shares the source submission's key.
func TestProgramMemoKeys(t *testing.T) {
	s := New(Config{})
	opts := optiwise.Options{SamplePeriod: 300}
	fresh, err := optiwise.Assemble("memo", memoTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := jobKey(fresh, s.canonicalize(opts))
	if err != nil {
		t.Fatal(err)
	}
	body := submitBody(t, "memo", memoTestSrc, `{"sample_period":300}`)
	for pass := 0; pass < 2; pass++ { // the second pass is memoized
		d, err := s.decodeSubmission(body)
		if err != nil {
			t.Fatal(err)
		}
		if d.key != want {
			t.Fatalf("pass %d: key %s, want jobKey of a fresh assembly %s", pass, d.key, want)
		}
	}

	other, err := s.decodeSubmission(submitBody(t, "memo2", memoTestSrc, `{"sample_period":300}`))
	if err != nil {
		t.Fatal(err)
	}
	if other.key == want || other.prog.Module() != "memo2" {
		t.Errorf("another module name: key %s module %q, want a new key for module memo2", other.key, other.prog.Module())
	}

	var image bytes.Buffer
	if err := fresh.WriteBinary(&image); err != nil {
		t.Fatal(err)
	}
	bin, err := json.Marshal(map[string]any{"binary": image.Bytes(), "options": map[string]any{"sample_period": 300}})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		d, err := s.decodeSubmission(bin)
		if err != nil {
			t.Fatal(err)
		}
		if d.key != want {
			t.Errorf("pass %d: binary submission key %s, want the source submission's %s", pass, d.key, want)
		}
	}
}

// TestProgramMemoSkipsFailures: assembly and load errors are never
// memoized, and a program larger than the whole budget is not stored.
func TestProgramMemoSkipsFailures(t *testing.T) {
	s := New(Config{})
	bad := submitBody(t, "bad", ".func main\nmain:\n    frob t0\n.endfunc\n", `{}`)
	for pass := 0; pass < 2; pass++ {
		if _, err := s.decodeSubmission(bad); err == nil || !strings.Contains(err.Error(), "assemble:") {
			t.Fatalf("pass %d: bad source decoded: %v", pass, err)
		}
	}
	if _, err := s.decodeSubmission([]byte(`{"binary":"T1dYIGdhcmJhZ2U="}`)); err == nil {
		t.Fatal("garbage binary decoded")
	}
	if n := s.programs.len(); n != 0 {
		t.Fatalf("memo holds %d entries after failures only", n)
	}

	huge := ".data\nbuf:\n    .space " + strings.Repeat("9", 7) + "\n" + memoTestSrc
	if _, err := s.decodeSubmission(submitBody(t, "huge", huge, `{}`)); err != nil {
		t.Fatal(err)
	}
	if n := s.programs.len(); n != 0 {
		t.Errorf("a program over the %d-byte budget was memoized", programMemoBytes)
	}
	if _, err := s.decodeSubmission(submitBody(t, "small", memoTestSrc, `{}`)); err != nil {
		t.Fatal(err)
	}
	if n, b := s.programs.len(), s.programs.usedBytes(); n != 1 || b <= 0 || b > programMemoBytes {
		t.Errorf("memo holds %d entries in %d bytes, want 1 within the budget", n, b)
	}
}

// TestSharedProgramConcurrentProfiles runs one memoized Program through
// two executions at once (different machines, so different keys) and
// compares their reports with those of separately assembled programs.
// It is meant for -race: a pipeline stage that wrote to the shared
// program would show here.
func TestSharedProgramConcurrentProfiles(t *testing.T) {
	src := progen.Generate(progen.Config{Funcs: 4, BlocksPerFn: 4, OpsPerBlock: 8, MaxLoopTrips: 5000, Seed: 3})
	machines := []optiwise.Machine{optiwise.XeonW2195(), optiwise.NeoverseN1()}
	report := func(res *optiwise.Result) string {
		var b bytes.Buffer
		if err := optiwise.WriteReport(&b, res); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	s := New(Config{Workers: 2})
	s.Start()
	defer s.Shutdown(t.Context()) //nolint:errcheck
	d, err := s.decodeSubmission(submitBody(t, "shared", src, `{}`))
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := s.decodeSubmission(submitBody(t, "shared", src, `{}`)); again == nil || again.prog != d.prog {
		t.Fatal("the program is not memoized")
	}
	got := make([]string, len(machines))
	var wg sync.WaitGroup
	for i, m := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := s.SubmitWith(d.prog, optiwise.Options{SamplePeriod: 300, Machine: m}, Submission{})
			if err != nil {
				t.Error(err)
				return
			}
			<-j.Done()
			res, state, msg := j.Result()
			if state != StateDone {
				t.Errorf("%s: job ended %s: %s", m.Name, state, msg)
				return
			}
			got[i] = report(res)
		}()
	}
	wg.Wait()

	for i, m := range machines {
		prog, err := optiwise.Assemble("shared", src)
		if err != nil {
			t.Fatal(err)
		}
		opts, _, err := s.canonicalKey(prog, optiwise.Options{SamplePeriod: 300, Machine: m})
		if err != nil {
			t.Fatal(err)
		}
		res, err := optiwise.Profile(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := report(res); got[i] != want {
			t.Errorf("%s: the shared program's report differs from a separately assembled program's", m.Name)
		}
	}
}
