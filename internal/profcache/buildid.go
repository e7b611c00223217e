// Build-derived cache versioning. The old design versioned the on-disk
// store with a hand-bumped constant, and a forgotten bump silently served
// stale results. The version now comes from the binary itself — the build
// ID the Go linker writes into the executable, which the go command
// changes whenever any package in the binary changes — folded into every
// cache key, so a rebuild orphans old entries automatically (they age out
// under the eviction budget) and no human has to remember anything.
package profcache

import (
	"crypto/sha256"
	"debug/elf"
	"encoding/hex"
	"os"
	"sync"
)

// BuildVersion returns the build-derived cache version of the running
// binary: a short hex digest of its Go build ID, actionID/contentID,
// whose content part is the go command's own hash of the linked binary.
// Rebuilding a checkout with the same toolchain gives the same ID,
// whatever the output path, so such binaries share one namespace; any
// changed package, checkout path or flag (-trimpath) yields new keys.
// It names what the toolchain linked: a binary edited after linking
// without updating its note keeps its old version. An executable with
// no build ID (a non-ELF host, or -ldflags=-buildid=) is versioned by a
// digest of its whole file; an unreadable one by "unknown", which still
// caches within one lifetime's namespace but cannot prove cross-build
// freshness.
func BuildVersion() string { return buildVersion() }

var buildVersion = sync.OnceValue(func() string {
	if exe, err := os.Executable(); err == nil {
		return versionOf(exe)
	}
	return "unknown"
})

// versionOf is BuildVersion for the executable at path.
func versionOf(path string) string {
	data := goBuildID(path)
	if len(data) == 0 {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return "unknown"
		}
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:16]
}

// goBuildID returns the descriptor of the .note.go.buildid ELF note
// (name "Go", type 4), or nil when path is not ELF or has no such note.
func goBuildID(path string) []byte {
	f, err := elf.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	var note []byte
	if s := f.Section(".note.go.buildid"); s != nil {
		note, _ = s.Data()
	}
	if len(note) < 16 {
		return nil
	}
	// namesz, descsz, type, then the name padded to 4 bytes and the desc.
	u32 := func(off int) uint64 { return uint64(f.ByteOrder.Uint32(note[off:])) }
	end := 16 + u32(4)
	if u32(0) != 4 || u32(8) != 4 || string(note[12:16]) != "Go\x00\x00" || end > uint64(len(note)) {
		return nil
	}
	return note[16:end]
}
