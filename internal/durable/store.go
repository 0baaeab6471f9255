package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"optiwise/internal/trailer"
)

// Store is the on-disk layout under one -data-dir:
//
//	<root>/journal/NNNNNNNN.wal append-only job journal segments
//	<root>/programs/<key>.owx   content-addressed program images
//	<root>/results/<key>.owpr   trailer-framed completed results
//
// Keys are the serve layer's content-addressed job digests (SHA-256
// hex; serve rejects any other key that arrives over the network), so
// every filename is filesystem-safe and a segment's identity doubles as
// its lookup key. Program images are written once at submit so the
// journal stays small and replay can reconstruct a runnable job without
// the client; result segments carry the exact wire-encoded payload the
// cluster's ring transfers move, so replication and anti-entropy move
// bytes, never re-encode.
type Store struct {
	root    string
	journal *Journal
}

// Open brings up the store under root, creating the layout and
// replaying the journal. The returned summary carries every intact
// journal record for the caller to interpret.
func Open(root string) (*Store, *ReplaySummary, error) {
	for _, sub := range []string{"programs", "results"} {
		if err := os.MkdirAll(filepath.Join(root, sub), 0o755); err != nil {
			return nil, nil, fmt.Errorf("durable: store dir: %w", err)
		}
	}
	j, sum, err := OpenJournal(filepath.Join(root, "journal"))
	if err != nil {
		return nil, nil, err
	}
	return &Store{root: root, journal: j}, sum, nil
}

// Journal returns the store's job journal.
func (s *Store) Journal() *Journal { return s.journal }

// Close closes the journal.
func (s *Store) Close() error { return s.journal.Close() }

func (s *Store) programPath(key string) string {
	return filepath.Join(s.root, "programs", key+".owx")
}

func (s *Store) resultPath(key string) string {
	return filepath.Join(s.root, "results", key+".owpr")
}

// WriteProgram persists a program image under its job key. Content
// addressing makes the write idempotent: an existing image is already
// the right bytes, so resubmits skip the I/O.
func (s *Store) WriteProgram(key string, data []byte) error {
	path := s.programPath(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return AtomicWrite(path, trailer.Append(append([]byte(nil), data...)), 0o644)
}

// ReadProgram returns the program image stored under key, verifying
// its frame.
func (s *Store) ReadProgram(key string) ([]byte, error) {
	return s.readFramed(s.programPath(key))
}

// WriteResult persists a completed result's wire payload under its
// key. The payload is framed so anti-entropy and replay can prove a
// segment intact without decoding it.
func (s *Store) WriteResult(key string, payload []byte) error {
	return AtomicWrite(s.resultPath(key), trailer.Append(append([]byte(nil), payload...)), 0o644)
}

// ReadResult returns the stored wire payload for key, verifying its
// frame. Corruption surfaces as a *trailer.CorruptError.
func (s *Store) ReadResult(key string) ([]byte, error) {
	return s.readFramed(s.resultPath(key))
}

// ResultDigests maps every stored result key to the SHA-256 hex of its
// verified payload — the same digest the peer-cache wire protocol
// carries in X-Optiwise-Checksum, so two owners comparing maps are
// comparing exactly what a repair fetch would re-verify. Segments that
// fail verification are reported with an empty digest: visible as
// divergent, never trusted.
func (s *Store) ResultDigests() (map[string]string, error) {
	dir := filepath.Join(s.root, "results")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: results dir: %w", err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".owpr") {
			continue
		}
		key := strings.TrimSuffix(name, ".owpr")
		payload, err := s.readFramed(filepath.Join(dir, name))
		if err != nil {
			out[key] = ""
			continue
		}
		sum := sha256.Sum256(payload)
		out[key] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// readFramed loads a trailer-framed file and returns the verified
// payload. An unframed file — impossible through this package's
// writers — is treated as corrupt, not legacy: the store never wrote
// it, so nothing may trust it.
func (s *Store) readFramed(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, framed, err := trailer.Verify(data)
	if err != nil {
		return nil, fmt.Errorf("durable: %s: %w", filepath.Base(path), err)
	}
	if !framed {
		return nil, fmt.Errorf("durable: %s: %w", filepath.Base(path),
			&trailer.CorruptError{Reason: "segment missing its frame"})
	}
	return payload, nil
}
