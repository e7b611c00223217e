// On-disk store: one file per key under the cache directory, named by
// the key's content address. Every kind of entry is the same envelope:
// a header line (store name, checksum of everything after it), a line
// holding the canonical key string (which has no newline: every free
// text field is %q-quoted), then the kind's payload. A load verifies —
// in order — the header format, the checksum, and that the entry really
// belongs to the requested key (guarding against renamed or colliding
// files); decoding the payload is the kind's codec's business
// (profcache.go). The lookup makes a failure at any step a counted
// miss, never an error — and heals the store by removing the bad file,
// so the refill repairs it in place and later readers pay nothing.
// There is no stored format version: the binary's build version is
// folded into every key (buildid.go), so a rebuild addresses a fresh
// namespace and stale generations simply stop being referenced. Writes
// go through a temp file and an atomic rename so concurrent processes
// sharing a directory never observe half-written entries.
package profcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
)

// storeMagic heads every entry file: "<magic> <sha256 of the rest>\n".
// There is deliberately no version field here — versioning lives in the
// key (Key.Build), which the filename and the embedded canonical key
// both carry, so a semantic change to any producer re-addresses the
// store instead of requiring a hand-bumped constant.
const storeMagic = "cudaadvisor-profcache"

// entryPath returns the store file for a key.
func (c *Cache) entryPath(key Key) string {
	return filepath.Join(c.dir, key.ID()+".cell")
}

// badEntry counts a rejected on-disk entry and heals the store by
// removing it: the caller is about to refill, and until it does, every
// other reader would pay the same verification failure. Removal is
// best effort; only a successful heal is counted.
func (c *Cache) badEntry(key Key) {
	c.badEntries.Add(1)
	if err := os.Remove(c.entryPath(key)); err == nil {
		c.heals.Add(1)
	}
}

// readEntry reads the entry file of key and returns its verified
// payload. A missing file is an fs.ErrNotExist error.
func (c *Cache) readEntry(key Key) ([]byte, error) {
	data, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		return nil, err
	}
	header, body, ok := bytes.Cut(data, []byte("\n"))
	fields := strings.Fields(string(header))
	if !ok || len(fields) != 2 || fields[0] != storeMagic {
		return nil, errors.New("not an entry header")
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != fields[1] {
		return nil, errors.New("checksum mismatch")
	}
	owner, payload, ok := bytes.Cut(body, []byte("\n"))
	if !ok || string(owner) != key.Canonical() {
		return nil, errors.New("entry belongs to another key")
	}
	return payload, nil
}

// publishEntry writes the entry file of key atomically (temp file +
// rename).
func (c *Cache) publishEntry(key Key, payload []byte) error {
	body := append(append([]byte(key.Canonical()), '\n'), payload...)
	sum := sha256.Sum256(body)
	if err := os.MkdirAll(c.dir, 0o777); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.WriteString(storeMagic + " " + hex.EncodeToString(sum[:]) + "\n")
	if err == nil {
		_, err = tmp.Write(body)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.entryPath(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
