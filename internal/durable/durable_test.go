package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optiwise/internal/fault"
	"optiwise/internal/trailer"
)

func rec(typ, job, key string, data string) Record {
	var raw json.RawMessage
	if data != "" {
		raw = json.RawMessage(data)
	}
	return Record{Type: typ, Job: job, Key: key, Data: raw}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, sum, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Records) != 0 || sum.Truncated != 0 {
		t.Fatalf("fresh journal replayed %+v", sum)
	}
	want := []Record{
		rec(RecSubmit, "job-1", "aaaa", `{"module":"m"}`),
		rec(RecStart, "job-1", "aaaa", ""),
		rec(RecComplete, "job-1", "aaaa", `{"cycles":42}`),
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, sum2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(sum2.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(sum2.Records), len(want))
	}
	for i, r := range sum2.Records {
		if r.Type != want[i].Type || r.Job != want[i].Job || r.Key != want[i].Key {
			t.Errorf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	if sum2.Truncated != 0 {
		t.Errorf("truncated = %d, want 0", sum2.Truncated)
	}
}

// TestJournalTornTail cuts the last record mid-payload — the kill -9
// signature — and verifies replay keeps the intact prefix, counts the
// torn record, and physically truncates the file so the damage is
// handled exactly once.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(RecSubmit, "j1", "k1", "")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(RecComplete, "j1", "k1", "")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	tornLen := len(data) - 5

	j2, sum, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(sum.Records) != 1 || sum.Records[0].Type != RecSubmit {
		t.Fatalf("replay = %+v, want just the submit", sum.Records)
	}
	if sum.Truncated != 1 {
		t.Errorf("truncated = %d, want 1", sum.Truncated)
	}
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= int64(tornLen) {
		t.Errorf("torn segment not truncated: size %d", fi.Size())
	}
}

// TestJournalMidFileCorruption flips a byte in the first of two
// records: replay must fail closed at the flip — the intact-looking
// second record is never applied, because nothing past an unverified
// byte can be trusted.
func TestJournalMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(RecSubmit, "j1", "k1", "")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(RecComplete, "j1", "k1", "")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[recHeaderSize+2] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, sum, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(sum.Records) != 0 {
		t.Fatalf("replay applied %d records past corruption, want 0", len(sum.Records))
	}
	if sum.Truncated == 0 {
		t.Error("corruption not counted")
	}
}

// TestJournalRotation drives enough records through to roll segments
// and verifies replay stitches them back in order.
func TestJournalRotation(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Big payloads force rotation without thousands of appends.
	big := strings.Repeat("x", 1<<20)
	const n = 10
	for i := 0; i < n; i++ {
		data := fmt.Sprintf(`{"i":%d,"pad":%q}`, i, big)
		if err := j.Append(rec(RecSubmit, fmt.Sprintf("j%d", i), "", data)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(names))
	}
	_, sum, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Records) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(sum.Records), n)
	}
	for i, r := range sum.Records {
		if want := fmt.Sprintf("j%d", i); r.Job != want {
			t.Errorf("record %d job = %q, want %q (order lost across rotation)", i, r.Job, want)
		}
	}
}

// TestJournalAppendFaults verifies the append and fsync fault seams
// surface as errors without wedging the journal.
func TestJournalAppendFaults(t *testing.T) {
	for _, site := range []string{fault.SiteDurableAppend, fault.SiteDurableFsync} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			j, _, err := OpenJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if err := fault.Activate(site + ":error:nth=1"); err != nil {
				t.Fatal(err)
			}
			defer fault.Set(nil)
			if err := j.Append(rec(RecSubmit, "j1", "k1", "")); err == nil {
				t.Fatalf("append survived %s fault", site)
			}
			if err := j.Append(rec(RecSubmit, "j2", "k2", "")); err != nil {
				t.Fatalf("journal wedged after injected fault: %v", err)
			}
		})
	}
}

// TestJournalAppendCorruptionCaught injects byte flips at the append
// seam and verifies replay refuses the mangled record instead of
// resurrecting garbage.
func TestJournalAppendCorruptionCaught(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Activate(fault.SiteDurableAppend + ":corrupt:nth=1,n=3"); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(RecSubmit, "j1", "k1", `{"module":"m"}`)); err != nil {
		t.Fatal(err)
	}
	fault.Set(nil)
	j.Close()

	_, sum, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Records) != 0 {
		t.Fatalf("replay trusted a corrupted record: %+v", sum.Records)
	}
	if sum.Truncated == 0 {
		t.Error("corrupted record not counted")
	}
}

func TestAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := AtomicWrite(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWrite(path, []byte("v2"), 0o600); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2" {
		t.Fatalf("read %q, want v2", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestStoreSegments(t *testing.T) {
	root := t.TempDir()
	s, sum, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(sum.Records) != 0 {
		t.Fatalf("fresh store replayed %+v", sum)
	}

	key := strings.Repeat("ab", 32)
	if err := s.WriteProgram(key, []byte("program-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteProgram(key, []byte("different")); err != nil {
		t.Fatal(err) // idempotent: first write wins
	}
	prog, err := s.ReadProgram(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(prog) != "program-bytes" {
		t.Fatalf("program = %q", prog)
	}

	payload := []byte(`{"export":{}}`)
	if err := s.WriteResult(key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadResult(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("result = %q", got)
	}

	digests, err := s.ResultDigests()
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := digests[key]; !ok || len(d) != 64 {
		t.Fatalf("digest map = %v", digests)
	}

	// Corrupt the segment on disk: read must fail typed, digest map
	// must expose it as divergent (empty digest), never trust it.
	segPath := s.resultPath(key)
	data, _ := os.ReadFile(segPath)
	data[3] ^= 0x40
	os.WriteFile(segPath, data, 0o644)
	if _, err := s.ReadResult(key); err == nil {
		t.Fatal("read of corrupted segment succeeded")
	} else {
		var ce *trailer.CorruptError
		if !asCorrupt(err, &ce) {
			t.Fatalf("corruption error untyped: %v", err)
		}
	}
	digests, err = s.ResultDigests()
	if err != nil {
		t.Fatal(err)
	}
	if digests[key] != "" {
		t.Fatalf("corrupt segment digest = %q, want empty", digests[key])
	}
}

func asCorrupt(err error, target **trailer.CorruptError) bool {
	for err != nil {
		if ce, ok := err.(*trailer.CorruptError); ok {
			*target = ce
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// activeSegment returns the path of the single newest segment.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no segments")
	}
	return filepath.Join(dir, names[len(names)-1])
}

// FuzzJournalReplay feeds arbitrary bytes to the segment scanner:
// whatever the input, replay must neither panic nor hand back a
// record whose frame did not verify. CI persists the corpus so
// crashing inputs regression-test forever.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a valid two-record segment and mechanical mutations of
	// it, so the fuzzer starts at the interesting boundaries.
	valid := func() []byte {
		var buf []byte
		for _, r := range []Record{
			rec(RecSubmit, "j1", "k1", `{"module":"m"}`),
			rec(RecComplete, "j1", "k1", `{"cycles":1}`),
		} {
			framed, err := frameRecord(r)
			if err != nil {
				f.Fatal(err)
			}
			buf = append(buf, framed...)
		}
		return buf
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte(recMagic))
	// A frame declaring a huge length must not cause a huge allocation.
	huge := make([]byte, recHeaderSize)
	copy(huge, recMagic)
	binary.LittleEndian.PutUint32(huge[4:8], 1<<31)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen, truncated := scanRecords(data)
		if goodLen > len(data) || goodLen < 0 {
			t.Fatalf("goodLen %d out of range for %d input bytes", goodLen, len(data))
		}
		if truncated == 0 && goodLen != len(data) {
			t.Fatalf("clean scan stopped early at %d/%d", goodLen, len(data))
		}
		// Every surviving record must re-verify: reframe it and check
		// it still marshals cleanly.
		for _, r := range recs {
			if _, err := frameRecord(r); err != nil {
				t.Fatalf("replayed record does not reframe: %v", err)
			}
		}
		// Rescanning the intact prefix must reproduce the same records
		// with nothing truncated — the invariant file truncation relies
		// on.
		again, againLen, againTrunc := scanRecords(data[:goodLen])
		if len(again) != len(recs) || againLen != goodLen || againTrunc != 0 {
			t.Fatalf("prefix rescan diverged: %d/%d records, len %d/%d, trunc %d",
				len(again), len(recs), againLen, goodLen, againTrunc)
		}
	})
}

// TestReplayAfterFuzzStyleDamage keeps one end-to-end file-level check
// of what the fuzzer exercises in memory: a fuzz-damaged segment must
// replay without error and leave the journal appendable.
func TestReplayAfterFuzzStyleDamage(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, segmentName(1))
	framed, err := frameRecord(rec(RecSubmit, "j1", "k1", ""))
	if err != nil {
		t.Fatal(err)
	}
	damaged := append(append([]byte{}, framed...), []byte("OWJRgarbage")...)
	if err := os.WriteFile(seg, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	j, sum, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("replay errored: %v", err)
	}
	defer j.Close()
	if len(sum.Records) != 1 || sum.Truncated != 1 {
		t.Fatalf("replay = %d records, %d truncated", len(sum.Records), sum.Truncated)
	}
	if err := j.Append(Record{Type: RecSubmit, Job: "post"}); err != nil {
		t.Fatalf("journal unusable after damaged replay: %v", err)
	}
}
