package profcache

import (
	"bytes"
	"crypto/sha256"
	"debug/elf"
	"encoding/binary"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBuildVersionIsGoBuildID checks BuildVersion against the go tool's
// own reading of this test binary's build ID.
func TestBuildVersionIsGoBuildID(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not found:", err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(goTool, "tool", "buildid", exe).Output()
	if err != nil {
		t.Fatal(err)
	}
	id := bytes.TrimSpace(out)
	sum := sha256.Sum256(id)
	want := hex.EncodeToString(sum[:])[:16]
	if got := BuildVersion(); got != want || got == "unknown" {
		t.Errorf("BuildVersion() = %q, want %q (digest of build ID %q)", got, want, id)
	}
}

// TestVersionFallsBackToFileDigest pins the old definition, a digest of
// the whole file, for executables without a Go build ID: a non-ELF file
// and an ELF file that has no note.
func TestVersionFallsBackToFileDigest(t *testing.T) {
	var noNote bytes.Buffer
	hdr := elf.Header64{
		Ident:   [elf.EI_NIDENT]byte{0x7f, 'E', 'L', 'F', byte(elf.ELFCLASS64), byte(elf.ELFDATA2LSB), byte(elf.EV_CURRENT)},
		Type:    uint16(elf.ET_EXEC),
		Machine: uint16(elf.EM_X86_64),
		Version: uint32(elf.EV_CURRENT),
		Ehsize:  64,
	}
	if err := binary.Write(&noNote, binary.LittleEndian, hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := elf.NewFile(bytes.NewReader(noNote.Bytes())); err != nil {
		t.Fatalf("hand-built ELF header does not parse: %v", err)
	}
	dir := t.TempDir()
	for name, body := range map[string][]byte{
		"script":  []byte("#!/bin/sh\necho not an ELF file\n"),
		"no-note": noNote.Bytes(),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, body, 0o755); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(body)
		if got, want := versionOf(path), hex.EncodeToString(sum[:])[:16]; got != want {
			t.Errorf("%s: versionOf = %q, want file digest %q", name, got, want)
		}
	}
	if got := versionOf(filepath.Join(dir, "missing")); got != "unknown" {
		t.Errorf("unreadable executable: versionOf = %q, want \"unknown\"", got)
	}
}
