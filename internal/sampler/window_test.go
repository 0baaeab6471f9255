package sampler

import (
	"reflect"
	"testing"

	"optiwise/internal/ooo"
)

// TestWindowIncrementsTelescope is the streaming contract at the
// sampling layer: window emission must leave the run's profile
// unchanged, the windows' records must concatenate to the run's
// records, and their counters must sum to the run's totals.
func TestWindowIncrementsTelescope(t *testing.T) {
	p := assemble(t, hotLoop)
	opts := Options{Period: 600, RandSeed: 3}
	oneShot, _, err := Run(ooo.XeonW2195(), p, opts)
	if err != nil {
		t.Fatal(err)
	}

	var incs []*Profile
	finals := 0
	opts.WindowCycles = 5000
	opts.OnWindow = func(inc *Profile, final bool) {
		incs = append(incs, inc)
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
	if len(incs) < 2 {
		t.Fatalf("only %d increments for a multi-window run", len(incs))
	}
	if finals != 1 {
		t.Fatalf("saw %d final increments, want exactly 1", finals)
	}

	var recs []Record
	var total, user, insts uint64
	for _, inc := range incs {
		recs = append(recs, inc.Records...)
		total += inc.TotalCycles
		user += inc.UserCycles
		insts += inc.Instructions
	}
	if !reflect.DeepEqual(recs, oneShot.Records) {
		t.Errorf("concatenated window records (%d) differ from the run's (%d)",
			len(recs), len(oneShot.Records))
	}
	if total != oneShot.TotalCycles || user != oneShot.UserCycles || insts != oneShot.Instructions {
		t.Errorf("window sums total=%d user=%d insts=%d, run total=%d user=%d insts=%d",
			total, user, insts, oneShot.TotalCycles, oneShot.UserCycles, oneShot.Instructions)
	}
}
