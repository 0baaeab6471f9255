// Package durable is the crash-safety layer under the serve and
// cluster stacks (DESIGN.md §13): an atomic-write helper, a
// write-ahead job journal with CRC-framed records, and a content-
// addressed segment store for completed results.
//
// The design premise mirrors the paper's own: OptiWISE trusts a
// profile only because two independent passes agree, and this layer
// trusts on-disk state only because every byte is covered by a
// checksum that is verified before the bytes can influence anything.
// A record or segment that fails its CRC is discarded and counted —
// never partially applied — so a crash at any instant leaves the
// store in a state replay can prove consistent.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Reservation is one atomic write in progress: Reserve creates its
// temporary file, Commit fills and publishes it. Splitting the two lets
// a caller pay for the file create while it computes the bytes (serve
// reserves a result segment while the passes run); AtomicWrite is the
// two back to back. Every file the process persists for later reads —
// journal segments, result segments, the serve addr-file,
// flight-recorder dumps — funnels through here.
type Reservation struct {
	path string
	tmp  *os.File
}

// Reserve creates the temporary file, ".<base>.tmp<random>" beside
// path, that Commit will publish as path. The caller must Commit or
// Abort it.
func Reserve(path string) (*Reservation, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("durable: atomic write %s: %w", path, err)
	}
	return &Reservation{path: path, tmp: tmp}, nil
}

// Commit writes data to the reserved file so a crash at any instant
// leaves either the old path or the new one, never a torn mix: the
// bytes are written and fsynced, the file is renamed over path, and
// the directory entry is fsynced. On failure the reservation is
// aborted. A reservation commits at most once.
func (r *Reservation) Commit(data []byte, perm os.FileMode) error {
	tmp := r.tmp
	if tmp == nil {
		return fmt.Errorf("durable: atomic write %s: reservation already closed", r.path)
	}
	fail := func(step string, err error) error {
		r.Abort()
		return fmt.Errorf("durable: atomic write %s: %s: %w", r.path, step, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail("write", err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail("chmod", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("fsync", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("close", err)
	}
	if err := os.Rename(tmp.Name(), r.path); err != nil {
		return fail("rename", err)
	}
	r.tmp = nil
	return syncDir(filepath.Dir(r.path))
}

// Abort removes a reservation that was never committed. It is a no-op
// on a nil or already committed reservation, so callers can defer it
// on every exit path.
func (r *Reservation) Abort() {
	if r == nil || r.tmp == nil {
		return
	}
	r.tmp.Close() // already closed when a late Commit step failed
	os.Remove(r.tmp.Name())
	r.tmp = nil
}

// AtomicWrite reserves path and commits data to it at once.
func AtomicWrite(path string, data []byte, perm os.FileMode) error {
	r, err := Reserve(path)
	if err != nil {
		return err
	}
	return r.Commit(data, perm)
}

// removeTemps deletes the temporary files (see Reserve) a killed
// process left in dir. Only a process that owns dir may call it: a live
// reservation looks the same.
func removeTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("durable: sweep %s: %w", dir, err)
	}
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("durable: sweep %s: %w", dir, err)
			}
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a
// crash. Filesystems that refuse directory fsync (some network and
// overlay mounts) degrade to rename-only atomicity rather than
// failing the write.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync() // best effort; see above
	return nil
}
