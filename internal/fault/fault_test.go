package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// install swaps in a plan for one test and restores the previous
// global afterwards so tests can run in any order.
func install(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	prev := Set(p)
	t.Cleanup(func() { Set(prev) })
	return p
}

func TestDisabledIsInert(t *testing.T) {
	prev := Set(nil)
	t.Cleanup(func() { Set(prev) })
	if Enabled() {
		t.Fatal("Enabled() with no plan")
	}
	if err := Err("anything"); err != nil {
		t.Fatalf("Err on disabled registry: %v", err)
	}
	data := []byte("hello")
	if got := Bytes("anything", data); &got[0] != &data[0] {
		t.Fatal("Bytes copied data on the disabled path")
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"siteonly",              // no action
		"s:explode",             // unknown action
		"s:error:p=2",           // probability out of range
		"s:error:p=nope",        // non-numeric
		"s:error:frob=1",        // unknown param
		"s:corrupt:n=0",         // n below 1
		"seed=zebra",            // bad seed
		"s:latency:d=fortnight", // bad duration
		"s:error:msg",           // param without =, not perm
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) = nil error, want failure", spec)
		}
	}
}

func TestNthTrigger(t *testing.T) {
	install(t, "s:error:nth=3,msg=boom")
	for i := 1; i <= 5; i++ {
		err := Err("s")
		if (i == 3) != (err != nil) {
			t.Fatalf("call %d: err=%v", i, err)
		}
		if i == 3 {
			var fe *Error
			if !errors.As(err, &fe) || fe.Site != "s" || fe.Msg != "boom" || !fe.Transient {
				t.Fatalf("typed error mismatch: %#v", err)
			}
			if !IsTransient(err) {
				t.Fatal("nth error should default to transient")
			}
		}
	}
}

func TestEveryAfterCountPerm(t *testing.T) {
	install(t, "s:error:every=2,after=1,count=2,perm")
	var hits []int
	for i := 1; i <= 10; i++ {
		if err := Err("s"); err != nil {
			hits = append(hits, i)
			if IsTransient(err) {
				t.Fatal("perm error classified transient")
			}
		}
	}
	// after=1 skips call 1; every=2 fires on calls where (calls-1)%2==0,
	// i.e. calls 3,5,...; count=2 stops after two fires.
	if fmt.Sprint(hits) != "[3 5]" {
		t.Fatalf("fires at %v, want [3 5]", hits)
	}
}

func TestProbabilityDeterministicAcrossRuns(t *testing.T) {
	run := func() []int {
		p, err := Parse("seed=7;s:error:p=0.5")
		if err != nil {
			t.Fatal(err)
		}
		prev := Set(p)
		defer Set(prev)
		var hits []int
		for i := 0; i < 64; i++ {
			if Err("s") != nil {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different fire schedule:\n%v\n%v", a, b)
	}
	if len(a) < 16 || len(a) > 48 {
		t.Fatalf("p=0.5 fired %d/64 times; PRNG looks broken", len(a))
	}

	// A different seed should give a different schedule.
	p2, _ := Parse("seed=8;s:error:p=0.5")
	prev := Set(p2)
	defer Set(prev)
	var c []int
	for i := 0; i < 64; i++ {
		if Err("s") != nil {
			c = append(c, i)
		}
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPanicAction(t *testing.T) {
	install(t, "s:panic:nth=1,msg=kaboom")
	defer func() {
		v := recover()
		pv, ok := v.(*PanicValue)
		if !ok || pv.Site != "s" || pv.Msg != "kaboom" {
			t.Fatalf("recovered %#v, want *PanicValue{s, kaboom}", v)
		}
	}()
	Err("s")
	t.Fatal("panic rule did not panic")
}

func TestLatencyAction(t *testing.T) {
	install(t, "s:latency:nth=1,d=30ms")
	start := time.Now()
	if err := Err("s"); err != nil {
		t.Fatalf("latency returned error: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("latency rule slept %v, want ~30ms", d)
	}
}

func TestCorruptBytesDeterministic(t *testing.T) {
	data := []byte(strings.Repeat("abcdefgh", 8))
	flip := func(seed uint64) []byte {
		p, err := Parse(fmt.Sprintf("seed=%d;s:corrupt:n=3,nth=1", seed))
		if err != nil {
			t.Fatal(err)
		}
		prev := Set(p)
		defer Set(prev)
		return Bytes("s", data)
	}
	a, b := flip(1), flip(1)
	if string(a) != string(b) {
		t.Fatal("same seed corrupted differently")
	}
	if string(a) == string(data) {
		t.Fatal("corrupt rule did not change the payload")
	}
	if string(data) != strings.Repeat("abcdefgh", 8) {
		t.Fatal("Bytes mutated the caller's buffer")
	}
	if string(flip(2)) == string(a) {
		t.Fatal("different seeds corrupted identically")
	}
	// Err must skip corrupt rules entirely.
	install(t, "s:corrupt:n=1")
	if err := Err("s"); err != nil {
		t.Fatalf("Err fired a corrupt rule: %v", err)
	}
}

func TestActivate(t *testing.T) {
	prev := Set(nil)
	t.Cleanup(func() { Set(prev) })

	if err := Activate(" "); err != nil || Enabled() {
		t.Fatalf("blank Activate: err=%v enabled=%v", err, Enabled())
	}
	if err := Activate("s:error:nth=1"); err != nil || !Enabled() {
		t.Fatalf("Activate install: err=%v enabled=%v", err, Enabled())
	}
	if err := Activate(""); err != nil || Enabled() {
		t.Fatalf("Activate(\"\") should disable: err=%v enabled=%v", err, Enabled())
	}
}

func TestActivateFromEnv(t *testing.T) {
	prev := Set(nil)
	t.Cleanup(func() { Set(prev) })
	t.Setenv(EnvVar, "s:error:nth=1,msg=envy")
	if err := ActivateFromEnv(); err != nil {
		t.Fatal(err)
	}
	err := Err("s")
	var fe *Error
	if !errors.As(err, &fe) || fe.Msg != "envy" {
		t.Fatalf("env-activated plan did not fire: %v", err)
	}
	t.Setenv(EnvVar, "not-a-spec")
	if err := ActivateFromEnv(); err == nil {
		t.Fatal("bad env spec accepted")
	}
}

func TestFiredCounter(t *testing.T) {
	p := install(t, "s:error:every=1;t:latency:nth=1,d=0s")
	for i := 0; i < 3; i++ {
		Err("s")
	}
	Err("t")
	if got := p.Fired(); got != 4 {
		t.Fatalf("Fired() = %d, want 4", got)
	}
}

func TestUnrelatedSiteUntouched(t *testing.T) {
	install(t, "s:error:every=1")
	if err := Err("other"); err != nil {
		t.Fatalf("unregistered site fired: %v", err)
	}
	data := []byte("x")
	if got := Bytes("other", data); &got[0] != &data[0] {
		t.Fatal("Bytes copied for an unregistered site")
	}
}

func BenchmarkErrDisabled(b *testing.B) {
	prev := Set(nil)
	b.Cleanup(func() { Set(prev) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Err(SiteOOORun) != nil {
			b.Fatal("fired")
		}
	}
}
