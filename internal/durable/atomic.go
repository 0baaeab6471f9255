// Package durable is the crash-safety layer under the serve and
// cluster stacks (DESIGN.md §13): an atomic-write helper, a
// write-ahead job journal with CRC-framed records, and content-
// addressed segment stores for program images, completed results, and
// stream checkpoints.
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
)

// AtomicWrite writes data to path so a crash at any instant leaves
// either the old file or the new one, never a torn mix: the bytes go
// to a temporary file in the same directory, are fsynced, renamed
// over path, and the directory entry is fsynced. Every file the
// process persists for later reads — journal segments, result and
// checkpoint segments, the serve addr-file, flight-recorder dumps —
// funnels through here.
func AtomicWrite(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("durable: atomic write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	// On any failure, leave no temp file behind.
	fail := func(step string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("durable: atomic write %s: %s: %w", path, step, err)
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
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("durable: atomic write %s: rename: %w", path, err)
	}
	return syncDir(dir)
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
