package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"optiwise"
	"optiwise/internal/fault"
)

// TestCacheEligible pins the cache-admission predicate: only a full,
// error-free, uncanceled, non-degraded result may be stored.
func TestCacheEligible(t *testing.T) {
	full := &optiwise.Result{}
	degraded := &optiwise.Result{Degraded: true, FailedPass: "instrumentation"}
	boom := errors.New("boom")
	cases := []struct {
		name   string
		res    *optiwise.Result
		err    error
		ctxErr error
		want   bool
	}{
		{"full success", full, nil, nil, true},
		{"nil result", nil, nil, nil, false},
		{"error", full, boom, nil, false},
		{"canceled mid-flight", full, nil, context.Canceled, false},
		{"degraded", degraded, nil, nil, false},
		{"degraded with error", degraded, boom, nil, false},
	}
	for _, c := range cases {
		if got := cacheEligible(c.res, c.err, c.ctxErr); got != c.want {
			t.Errorf("%s: cacheEligible = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestCachePutRefusesDegradedAndNil checks the defense-in-depth guard
// inside the cache itself, behind the runGroup predicate.
func TestCachePutRefusesDegradedAndNil(t *testing.T) {
	c := newResultCache(1<<20, nil)
	c.put("nil", nil, 1)
	c.put("degraded", &optiwise.Result{Degraded: true}, 1)
	if n := c.len(); n != 0 {
		t.Fatalf("cache admitted %d ineligible results", n)
	}
	c.put("full", &optiwise.Result{}, 1)
	if n := c.len(); n != 1 {
		t.Fatalf("cache refused a full result (len=%d)", n)
	}
	if res, ok := c.get("degraded"); ok || res != nil {
		t.Fatal("degraded key present")
	}
}

// TestBackoffDelayBounds checks the capped exponential envelope with
// jitter: attempt n lies in [d/2, 3d/2) for d = min(base<<(n-1), max).
func TestBackoffDelayBounds(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	for attempt := 1; attempt <= 8; attempt++ {
		want := base << (attempt - 1)
		if want > max || want <= 0 {
			want = max
		}
		for i := 0; i < 32; i++ {
			got := backoffDelay(base, max, attempt)
			if got < want/2 || got >= want+want/2 {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, got, want/2, want+want/2)
			}
		}
	}
}

// TestTransientClassification: injected transient faults and recovered
// panics retry; permanent faults and plain errors do not.
func TestTransientClassification(t *testing.T) {
	if !transient(&fault.Error{Site: "x", Msg: "m", Transient: true}) {
		t.Error("transient fault.Error not classified transient")
	}
	if transient(&fault.Error{Site: "x", Msg: "m", Transient: false}) {
		t.Error("permanent fault.Error classified transient")
	}
	if !transient(&workerPanicError{value: "boom"}) {
		t.Error("worker panic not classified transient")
	}
	if !transient(&optiwise.PanicError{Op: "sampling", Value: "boom"}) {
		t.Error("pass panic not classified transient")
	}
	if transient(errors.New("plain")) {
		t.Error("plain error classified transient")
	}
	if transient(context.Canceled) {
		t.Error("cancellation classified transient")
	}
}
