package sampler

import (
	"reflect"
	"testing"

	"optiwise/internal/ooo"
)

// TestWindowIncrementsTelescope is the streaming contract at the sampling
// layer: window emission must leave the run's profile unchanged, the
// windows must carry the run's own Intervals in order, their records
// must concatenate to the run's records, and exactly one final window
// must close the stream.
func TestWindowIncrementsTelescope(t *testing.T) {
	p := assemble(t, hotLoop)
	opts := Options{Period: 600, RandSeed: 3, Window: 5000}
	oneShot, _, err := Run(ooo.XeonW2195(), p, opts)
	if err != nil {
		t.Fatal(err)
	}

	var wins []Window
	finals := 0
	opts.OnWindow = func(w Window, final bool) {
		wins = append(wins, w)
		if final {
			finals++
		}
	}
	streamed, _, err := Run(ooo.XeonW2195(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oneShot, streamed) {
		t.Error("window emission perturbed the run's own profile")
	}
	if len(wins) < 2 {
		t.Fatalf("only %d windows for a multi-window run", len(wins))
	}
	if finals != 1 {
		t.Fatalf("saw %d final windows, want exactly 1", finals)
	}

	var recs []Record
	var ivs []ooo.Interval
	for _, w := range wins {
		recs = append(recs, w.Records...)
		if w.Cycles > 0 {
			ivs = append(ivs, w.Interval)
		}
	}
	if !reflect.DeepEqual(recs, oneShot.Records) {
		t.Errorf("concatenated window records (%d) differ from the run's (%d)",
			len(recs), len(oneShot.Records))
	}
	if !reflect.DeepEqual(ivs, oneShot.Intervals) {
		t.Errorf("windows carry %d intervals, the run has %d, or they differ",
			len(ivs), len(oneShot.Intervals))
	}
}
