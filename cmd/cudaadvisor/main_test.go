package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// The lint subcommand on a fixture with a divergent-tail kernel: a
// device function called with affine arguments, a strided store, and a
// barrier under a thread-varying guard.
func TestLintFixtureGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"lint", "testdata/fixture.mir"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr.String())
	}
	checkGolden(t, "fixture.golden", stdout.Bytes())
}

// The lint subcommand on the shared-memory fixture: a 16-way bank
// conflict in the transpose kernel and a missing-barrier race in the
// exchange kernel, both in the shared-memory section of the report.
func TestLintSmemFixtureGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"lint", "testdata/smem.mir"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr.String())
	}
	checkGolden(t, "smem_lint.golden", stdout.Bytes())
}

// The lint subcommand accepts benchmark names; bfs is the paper's most
// divergence-heavy application.
func TestLintApp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"lint", "bfs"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{
		"static advisor: module bfs",
		"kernel @Kernel:",
		"divergent",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("lint bfs output missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestLintErrors: argument mistakes to lint — and to profile, whose
// rows live here too — exit 1 with a useful message, before any work is
// scheduled.
func TestLintErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"lint"}, "lint wants one application name"},
		{[]string{"lint", "nosuchapp"}, `unknown application "nosuchapp"`},
		{[]string{"profile", "-scale", "0", "nn"}, `scale="0": want an integer ≥ 1`},
		{[]string{"profile", "-scale=-4", "nn"}, `scale="-4": want an integer ≥ 1`},
		{[]string{"profile", "-smem=yes", "nn"}, `smem="yes": want a boolean`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("run(%v) = %d, want 1", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) || strings.Contains(stderr.String(), "panicked") {
			t.Errorf("run(%v) stderr = %q, want it to contain %q and no panic", tc.args, stderr.String(), tc.want)
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"frobnicate"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage: cudaadvisor") {
		t.Errorf("stderr should print usage, got:\n%s", stderr.String())
	}
}
