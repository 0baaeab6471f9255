package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"optiwise/internal/fault"
	"optiwise/internal/trailer"
)

// Journal record types. The journal is the single source of truth for
// job state across restarts: a job whose last record is submit or retry
// is incomplete and re-enqueued at replay; complete, fail, and cancel
// are terminal. Regress records restore the lineage-regression counter
// so /v1/stats stays continuous across restarts.
const (
	RecSubmit   = "submit"
	RecRetry    = "retry"
	RecComplete = "complete"
	RecFail     = "fail"
	RecCancel   = "cancel"
	RecRegress  = "regress"
)

// Record is one journal entry. Type and Key carry the state-machine
// transition; Data is an opaque payload owned by the writer (the serve
// layer stores its submission parameters and completion summaries
// there), so the journal format does not chase the serve schema.
type Record struct {
	Type string          `json:"type"`
	Job  string          `json:"job,omitempty"`
	Key  string          `json:"key,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Record framing: each record is a 12-byte header followed by the
// JSON payload.
//
//	offset  size  field
//	0       4     magic "OWJR" (OptiWise Journal Record)
//	4       4     payload length, little-endian uint32
//	8       4     CRC-32C (Castagnoli) of the payload
//
// Unlike profile files — framed by a *trailer* so writers stay
// single-pass over large payloads — journal records are tiny and
// read front-to-back, so a header frame lets replay scan forward
// without trusting any byte it has not yet checksummed.
const (
	recMagic      = "OWJR"
	recHeaderSize = 12
	// maxRecordBytes bounds a single record so a corrupt length field
	// cannot make replay attempt a multi-gigabyte allocation.
	maxRecordBytes = 16 << 20
)

// maxSegmentBytes triggers rotation to a fresh segment. Segments are
// only appended to while active and only read at replay, so the size
// just bounds how much one corrupt file can take down.
const maxSegmentBytes = 4 << 20

// ReplaySummary reports what a journal replay recovered and what it
// had to discard.
type ReplaySummary struct {
	Records   []Record // every intact record, in append order
	Segments  int      // segments scanned
	Truncated int      // record-units discarded (torn tails + corrupt frames)
}

// Journal is the append-only WAL. Appends are serialized; each one is
// framed, written, and fsynced before Append returns, so an
// acknowledged record survives kill -9 at the very next instruction.
type Journal struct {
	dir string

	mu   sync.Mutex
	f    *os.File
	seq  int
	size int64
}

// segmentName formats the on-disk name of segment n.
func segmentName(n int) string { return fmt.Sprintf("%08d.wal", n) }

// OpenJournal replays every existing segment under dir (creating it if
// needed), then opens a fresh segment for appends. Appending to a new
// segment rather than the replayed tail means replay never has to
// trust a file the previous process may have died mid-write to: the
// old tail is truncated to its last intact record and left read-only.
func OpenJournal(dir string) (*Journal, *ReplaySummary, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: journal dir: %w", err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, nil, err
	}
	sum := &ReplaySummary{}
	last := 0
	for i, name := range names {
		seq, ok := segmentSeq(name)
		if !ok {
			continue
		}
		if seq > last {
			last = seq
		}
		if err := replaySegment(filepath.Join(dir, name), i == len(names)-1, sum); err != nil {
			return nil, nil, err
		}
	}
	j := &Journal{dir: dir, seq: last}
	if err := j.rotateLocked(); err != nil {
		return nil, nil, err
	}
	return j, sum, nil
}

func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: journal dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".wal" {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func segmentSeq(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "%08d.wal", &n); err != nil {
		return 0, false
	}
	return n, true
}

// replaySegment scans one segment's records into sum. A frame that
// fails its checks stops the scan of this segment: on the final
// segment the file is physically truncated back to the last intact
// record (a torn tail is the expected signature of kill -9 mid-write);
// on earlier segments — which were fsynced and rotated away, so damage
// there means real corruption, not a torn write — the remainder is
// discarded and counted but the file is left for forensics. Either
// way, no record past the damage is applied: replay fails closed.
func replaySegment(path string, isLast bool, sum *ReplaySummary) error {
	if err := fault.Err(fault.SiteDurableReplay); err != nil {
		return fmt.Errorf("durable: replay %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("durable: replay %s: %w", path, err)
	}
	sum.Segments++
	recs, goodLen, truncated := scanRecords(data)
	sum.Records = append(sum.Records, recs...)
	sum.Truncated += truncated
	if truncated > 0 && isLast {
		// Torn tail: cut the file back to the last intact record so the
		// damage is dealt with exactly once.
		if err := os.Truncate(path, int64(goodLen)); err != nil {
			return fmt.Errorf("durable: truncate torn tail of %s: %w", path, err)
		}
	}
	return nil
}

// scanRecords walks framed records from the front of data, stopping at
// the first frame that fails any check. goodLen is the byte offset of
// the last intact record boundary; truncated counts the discarded
// remainder as one record-unit. Pure over its input, so the fuzzer can
// hammer it without touching a filesystem.
func scanRecords(data []byte) (recs []Record, goodLen, truncated int) {
	off := 0
	for off < len(data) {
		rec, n, ok := nextRecord(data[off:])
		if !ok {
			return recs, off, 1
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off, 0
}

// nextRecord decodes one framed record from the front of buf. ok is
// false when the frame is incomplete or fails any check; the caller
// cannot distinguish a torn write from a bit flip and must not trust
// anything at or past this offset.
func nextRecord(buf []byte) (rec Record, n int, ok bool) {
	if len(buf) < recHeaderSize {
		return Record{}, 0, false
	}
	if string(buf[:4]) != recMagic {
		return Record{}, 0, false
	}
	size := binary.LittleEndian.Uint32(buf[4:8])
	if size > maxRecordBytes || recHeaderSize+int(size) > len(buf) {
		return Record{}, 0, false
	}
	payload := buf[recHeaderSize : recHeaderSize+int(size)]
	if trailer.Checksum(payload) != binary.LittleEndian.Uint32(buf[8:12]) {
		return Record{}, 0, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, 0, false
	}
	return rec, recHeaderSize + int(size), true
}

// frameRecord encodes rec with its header frame.
func frameRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("durable: marshal record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("durable: record of %d bytes exceeds the %d-byte frame limit", len(payload), maxRecordBytes)
	}
	out := make([]byte, recHeaderSize+len(payload))
	copy(out, recMagic)
	binary.LittleEndian.PutUint32(out[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[8:12], trailer.Checksum(payload))
	copy(out[recHeaderSize:], payload)
	return out, nil
}

// Append frames rec, writes it to the active segment, and fsyncs
// before returning, rotating to a fresh segment when the active one is
// full. The write and the fsync are independent fault seams
// (durable.append, durable.fsync) so the chaos suite can kill the
// process between "bytes in the page cache" and "bytes on disk". The
// append seam's error and latency rules fire before the lock, so a
// latency rule holds back only its own caller: the way a test stages
// one record reaching the journal late while others proceed.
func (j *Journal) Append(rec Record) error {
	framed, err := frameRecord(rec)
	if err != nil {
		return err
	}
	if err := fault.Err(fault.SiteDurableAppend); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("durable: append to closed journal")
	}
	// A corrupt rule here models a disk writing garbage; replay's CRC
	// must refuse the record rather than resurrect a mangled job.
	framed = fault.Bytes(fault.SiteDurableAppend, framed)
	if j.size+int64(len(framed)) > maxSegmentBytes && j.size > 0 {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := j.f.Write(framed)
	j.size += int64(n)
	if err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if err := fault.Err(fault.SiteDurableFsync); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	return nil
}

// rotateLocked finalizes the active segment (fsync + close) and brings
// up the next one. The new segment is born through the atomic-write
// path — created as a temp file, fsynced empty, renamed into place,
// directory fsynced — so a crash during rotation leaves either the old
// tail alone or a fully registered empty successor, never a
// half-named file replay would have to guess about.
func (j *Journal) rotateLocked() error {
	if j.f != nil {
		if err := j.syncLocked(); err != nil {
			return err
		}
		if err := j.f.Close(); err != nil {
			return fmt.Errorf("durable: close segment: %w", err)
		}
		j.f = nil
	}
	j.seq++
	path := filepath.Join(j.dir, segmentName(j.seq))
	if err := AtomicWrite(path, nil, 0o644); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open segment: %w", err)
	}
	j.f = f
	j.size = 0
	return nil
}

// Sync flushes the active segment to disk (a final barrier for
// graceful shutdown; Append already syncs per record).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.syncLocked()
}

// Close fsyncs and closes the active segment. Appends after Close
// fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
