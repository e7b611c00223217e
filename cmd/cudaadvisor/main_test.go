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
// scheduled; asking a sub-command for its help is no mistake: the flag
// usage on stderr, no error line, exit 0.
func TestLintErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		exit int
		want string
	}{
		{[]string{"lint"}, 1, "lint wants one application name"},
		{[]string{"lint", "nosuchapp"}, 1, `unknown application "nosuchapp"`},
		{[]string{"profile", "-scale", "0", "nn"}, 1, `scale="0": want an integer ≥ 1`},
		{[]string{"profile", "-scale=-4", "nn"}, 1, `scale="-4": want an integer ≥ 1`},
		{[]string{"profile", "-smem=yes", "nn"}, 1, `smem="yes": want a boolean`},
		{[]string{"profile", "-h"}, 0, "Usage of profile:"},
		{[]string{"lint", "-h"}, 0, "Usage of lint:"},
		{[]string{"advise", "-h"}, 0, "Usage of advise:"},
		{[]string{"export", "-h"}, 0, "Usage of export:"},
		{[]string{"serve", "-h"}, 0, "Usage of serve:"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.exit {
			t.Errorf("run(%v) = %d, want %d", tc.args, code, tc.exit)
		}
		got := stderr.String()
		if !strings.Contains(got, tc.want) || strings.Contains(got, "panicked") || strings.Contains(got, "help requested") {
			t.Errorf("run(%v) stderr = %q, want it to contain %q, no panic and no \"help requested\"", tc.args, got, tc.want)
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
