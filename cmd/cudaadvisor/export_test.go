package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cudaadvisor/internal/export"
)

// exportGoldenApps are the golden-pinned export targets: small enough
// that the Chrome timelines stay reviewable, and together covering a
// graph kernel (nn), a dense-linear-algebra kernel (bicg) and a nested
// per-box kernel (lavaMD).
var exportGoldenApps = []string{"bicg", "lavaMD", "nn"}

func exportGoldenName(app, kind string) string {
	return fmt.Sprintf("export_%s_%s.golden", app, kind)
}

// TestExportFoldedGoldens pins the folded flamegraph output for each
// golden app under every weight, and re-aggregates every document (bicg
// has no divergent block and nn no reused load: those two are empty).
func TestExportFoldedGoldens(t *testing.T) {
	for _, app := range exportGoldenApps {
		for _, weight := range export.Weights {
			stdout, _ := runOK(t, "export", "-weight="+weight, app)
			checkGolden(t, exportGoldenName(app, weight), []byte(stdout))
			if total, err := export.SumFolded([]byte(stdout)); err != nil || (total > 0) != (stdout != "") {
				t.Errorf("%s/%s: folded total = %d, %v; want positive for a non-empty document", app, weight, total, err)
			}
		}
	}
}

// TestProfileSmemAllGolden pins every section `profile` prints at once,
// shared-memory view included.
func TestProfileSmemAllGolden(t *testing.T) {
	stdout, _ := runOK(t, "profile", "-smem", "-mode", "all", "backprop")
	checkGolden(t, "profile_backprop_smem_all.golden", []byte(stdout))
}

// TestExportChromeGoldens pins the Chrome-trace timeline for each golden
// app and runs the strict structural validator over the pinned bytes.
func TestExportChromeGoldens(t *testing.T) {
	for _, app := range exportGoldenApps {
		stdout, _ := runOK(t, "export", "-format=chrome", app)
		checkGolden(t, exportGoldenName(app, "chrome"), []byte(stdout))
		if err := export.ValidateChrome([]byte(stdout)); err != nil {
			t.Errorf("%s: %v", app, err)
		}
	}
}

// TestExportMatrixByteIdentity is the acceptance matrix: export output
// must equal the golden bytes at {-j 1, -j 8} × {cache off, cold disk,
// warm disk}, with a warm rerun doing zero misses (pure view reads).
func TestExportMatrixByteIdentity(t *testing.T) {
	const app = "nn"
	renders := [][]string{
		{"export", "-weight=lines", app},
		{"export", "-format=chrome", app},
	}
	goldens := []string{exportGoldenName(app, "lines"), exportGoldenName(app, "chrome")}

	want := make([]string, len(renders))
	for i, golden := range goldens {
		raw, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatalf("missing golden (run -update): %v", err)
		}
		want[i] = string(raw)
	}

	for _, j := range []string{"1", "8"} {
		for i, args := range renders {
			if got, _ := runOK(t, append([]string{"-j", j}, args...)...); got != want[i] {
				t.Errorf("-j %s uncached %v differs from golden", j, args)
			}
		}

		dir := t.TempDir()
		for i, args := range renders {
			cold, coldErr := runOK(t, append([]string{"-j", j, "-cache-dir", dir, "-cache-stats"}, args...)...)
			if cold != want[i] {
				t.Errorf("-j %s cold %v differs from golden", j, args)
			}
			if cs := parseCacheStats(t, coldErr); cs.misses == 0 || cs.stores != cs.misses {
				t.Errorf("-j %s cold %v stats %q: want miss+store", j, args, cs.raw)
			}

			warm, warmErr := runOK(t, append([]string{"-j", j, "-cache-dir", dir, "-cache-stats"}, args...)...)
			if warm != want[i] {
				t.Errorf("-j %s warm %v differs from golden", j, args)
			}
			if ws := parseCacheStats(t, warmErr); ws.misses != 0 || ws.bad != 0 || ws.diskHits != 1 {
				t.Errorf("-j %s warm %v stats %q: want 1 disk hit, 0 misses", j, args, ws.raw)
			}
		}
	}
}

// TestExportSampledAnnotation: a -trace-cap run annotates rather than
// rescales (the walker regression pinned at the CLI surface).
func TestExportSampledAnnotation(t *testing.T) {
	stdout, _ := runOK(t, "-trace-cap", "100", "export", "-weight=lines", "bfs")
	if !strings.HasPrefix(stdout, "# [sampled]") {
		t.Fatalf("capped export lacks the [sampled] header:\n%.200s", stdout)
	}
	if !strings.Contains(stdout, "not rescaled") {
		t.Errorf("sampled header lost the no-rescaling note:\n%.200s", stdout)
	}
}

// TestCheckExport: both formats validate; damaged files exit 1.
func TestCheckExport(t *testing.T) {
	dir := t.TempDir()
	folded, _ := runOK(t, "export", "-weight=divergence", "bfs")
	chrome, _ := runOK(t, "export", "-format=chrome", "bfs")
	fpath := filepath.Join(dir, "bfs.folded")
	cpath := filepath.Join(dir, "bfs.json")
	for path, data := range map[string]string{fpath: folded, cpath: chrome} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, _ := runOK(t, "checkexport", fpath, cpath)
	if !strings.Contains(out, "bfs.folded: ok (folded,") || !strings.Contains(out, "bfs.json: ok (chrome trace,") {
		t.Errorf("checkexport output = %q", out)
	}

	for name, content := range map[string]string{
		"truncated.json":  chrome[:len(chrome)/2],
		"unbalanced.json": `[{"name":"k","ph":"B","ts":0,"pid":0,"tid":0}]`,
		"noweight.folded": "main;k\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"checkexport", path}, &stdout, &stderr); code != 1 {
			t.Errorf("checkexport %s = %d, want 1; stderr: %s", name, code, stderr.String())
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"checkexport"}, &stdout, &stderr); code != 1 {
		t.Errorf("checkexport with no args = %d, want 1", code)
	}
}

// TestExportErrors: argument mistakes exit 1 with a useful message.
func TestExportErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"export"}, "export wants one application name"},
		{[]string{"export", "bfs", "nn"}, "export wants one application name"},
		{[]string{"export", "nosuchapp"}, `unknown application "nosuchapp"`},
		{[]string{"export", "testdata/fixture.mir"}, "no runnable host driver"},
		{[]string{"export", "-format=svg", "bfs"}, `unknown export format "svg"`},
		{[]string{"export", "-weight=bytes", "bfs"}, `unknown export weight "bytes"`},
		{[]string{"export", "-arch=volta", "bfs"}, `unknown architecture "volta"`},
		{[]string{"export", "-scale", "0", "nn"}, `scale="0": want an integer ≥ 1`},
		{[]string{"export", "-format", "chrome", "-scale=-1", "nn"}, `scale="-1": want an integer ≥ 1`},
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
