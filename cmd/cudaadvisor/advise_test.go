package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cudaadvisor/internal/findings"
)

// TestAdviseTextGolden pins the human-readable advisor report for the
// paper's most divergence-heavy application.
func TestAdviseTextGolden(t *testing.T) {
	stdout, _ := runOK(t, "advise", "bfs")
	checkGolden(t, "advise_bfs.golden", []byte(stdout))
}

// TestAdviseJSONRoundTrip: the JSON report decodes strictly, carries the
// pinned schema version, and re-encodes to the exact bytes the CLI
// emitted (the canonical-encoding contract the cache relies on).
func TestAdviseJSONRoundTrip(t *testing.T) {
	stdout, _ := runOK(t, "advise", "-format=json", "bfs")
	rep, err := findings.Decode([]byte(stdout))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Schema != "advisor-report/v3" || rep.App != "bfs" || rep.Arch != "kepler-k40c" {
		t.Errorf("report header = %q/%q/%q", rep.Schema, rep.App, rep.Arch)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("bfs report has no findings")
	}
	re, err := findings.Encode(rep)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(re, []byte(stdout)) {
		t.Errorf("decode→re-encode is not byte-identical to the CLI output")
	}
	// Every finding of a profiled app must carry observed dynamic
	// evidence (the ten-app acceptance criterion, pinned on bfs).
	for _, f := range rep.Findings {
		if f.Dynamic == nil || !f.Dynamic.Observed {
			t.Errorf("finding %s at %s has no observed dynamic evidence", f.Kind, f.Site)
		}
		if f.Verdict == findings.VerdictStaticOnly {
			t.Errorf("profiled report carries a static-only verdict at %s", f.Site)
		}
	}
}

// TestAdviseDeterminism: the JSON report is byte-identical across worker
// counts and across cache temperatures, and a warm advise rerun is one
// disk hit with zero misses — the whole join is skipped. A capped trace,
// which flushes fragments in the middle of a launch, is as independent of
// the worker count as a whole one.
func TestAdviseDeterminism(t *testing.T) {
	j1, _ := runOK(t, "-j", "1", "advise", "-format=json", "bfs")
	j8, _ := runOK(t, "-j", "8", "advise", "-format=json", "bfs")
	if j1 != j8 {
		t.Errorf("advise JSON differs between -j 1 and -j 8")
	}
	cap1, _ := runOK(t, "-j", "1", "-trace-cap", "2000", "profile", "bfs")
	cap8, _ := runOK(t, "-j", "8", "-trace-cap", "2000", "profile", "bfs")
	if cap1 != cap8 {
		t.Errorf("capped profile differs between -j 1 and -j 8")
	}

	dir := t.TempDir()
	cold, coldErr := runOK(t, "-cache-dir", dir, "-cache-stats", "advise", "-format=json", "bfs")
	if cold != j1 {
		t.Errorf("cold-cache advise differs from uncached")
	}
	cs := parseCacheStats(t, coldErr)
	if cs.requests != 1 || cs.misses != 1 || cs.stores != 1 {
		t.Errorf("cold stats %q: want exactly 1 miss and 1 store (the advise cell)", cs.raw)
	}

	warm, warmErr := runOK(t, "-cache-dir", dir, "-cache-stats", "advise", "-format=json", "bfs")
	if warm != j1 {
		t.Errorf("warm-cache advise differs from uncached")
	}
	ws := parseCacheStats(t, warmErr)
	if ws.misses != 0 || ws.diskHits != 1 || ws.bad != 0 {
		t.Errorf("warm stats %q: want 1 disk hit and 0 misses", ws.raw)
	}

	// The text rendering is a view of the same cached object.
	text, textErr := runOK(t, "-cache-dir", dir, "-cache-stats", "advise", "bfs")
	if !strings.Contains(text, "advisor report: bfs on kepler-k40c") {
		t.Errorf("cached text advise missing header:\n%.200s", text)
	}
	if ts := parseCacheStats(t, textErr); ts.misses != 0 || ts.diskHits != 1 {
		t.Errorf("text-format stats %q: want the same cache entry to serve it", ts.raw)
	}
}

// TestAdviseStaticOnlyMir: a .mir file gets a static-only report in the
// same schema, with no dynamic evidence.
func TestAdviseStaticOnlyMir(t *testing.T) {
	stdout, _ := runOK(t, "advise", "-format=json", "testdata/fixture.mir")
	rep, err := findings.Decode([]byte(stdout))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("fixture report has no findings")
	}
	for _, f := range rep.Findings {
		if f.Verdict != findings.VerdictStaticOnly || f.Dynamic != nil {
			t.Errorf("static-only report finding at %s: verdict=%s dynamic=%v", f.Site, f.Verdict, f.Dynamic)
		}
	}

	text, _ := runOK(t, "advise", "testdata/fixture.mir")
	if !strings.Contains(text, "static-only") {
		t.Errorf("static-only text report missing the verdict tally:\n%.200s", text)
	}
}

// TestAdviseSmemJSONGolden pins the static-only advise JSON for the
// shared-memory fixture (bank-conflict + shared-race findings) and the
// decode→re-encode byte identity of that report.
func TestAdviseSmemJSONGolden(t *testing.T) {
	stdout, _ := runOK(t, "advise", "-format=json", "testdata/smem.mir")
	checkGolden(t, "advise_smem.golden", []byte(stdout))

	rep, err := findings.Decode([]byte(stdout))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var haveBank, haveRace bool
	for _, f := range rep.Findings {
		switch f.Kind {
		case findings.KindBankConflict:
			haveBank = true
		case findings.KindSharedRace:
			haveRace = true
		}
	}
	if !haveBank || !haveRace {
		t.Errorf("smem fixture report: bank-conflict=%v shared-race=%v, want both", haveBank, haveRace)
	}
	re, err := findings.Encode(rep)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(re, []byte(stdout)) {
		t.Errorf("decode→re-encode is not byte-identical for the smem report")
	}
}

// TestLintJSON: lint -format=json reuses the findings schema, emitting
// the static findings as a decodable static-only report.
func TestLintJSON(t *testing.T) {
	stdout, _ := runOK(t, "lint", "-format=json", "bfs")
	rep, err := findings.Decode([]byte(stdout))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.App != "bfs" || len(rep.Findings) == 0 {
		t.Fatalf("lint json report = %q with %d findings", rep.App, len(rep.Findings))
	}
	for _, f := range rep.Findings {
		if f.Verdict != findings.VerdictStaticOnly {
			t.Errorf("lint finding at %s has verdict %s, want static-only", f.Site, f.Verdict)
		}
	}
	// Pascal line size changes the predicted-lines figures.
	pascal, _ := runOK(t, "lint", "-format=json", "-arch=pascal", "bfs")
	if prep, err := findings.Decode([]byte(pascal)); err != nil || prep.LineSize != 32 {
		t.Errorf("lint -arch=pascal line size = %d, %v; want 32", prep.LineSize, err)
	}
}

// TestCheckReport: valid reports pass; damaged or wrong-version files
// fail with exit 1.
func TestCheckReport(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	stdout, _ := runOK(t, "advise", "-format=json", "testdata/fixture.mir")
	if err := os.WriteFile(good, []byte(stdout), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _ := runOK(t, "checkreport", good)
	if !strings.Contains(out, "good.json: ok (advisor-report/v3") {
		t.Errorf("checkreport output = %q", out)
	}

	for name, content := range map[string]string{
		// A previous-schema report must be rejected, not silently served.
		"wrongver.json": strings.Replace(stdout, "advisor-report/v3", "advisor-report/v1", 1),
		"garbage.json":  "not a report",
		"unknown.json":  strings.Replace(stdout, `"app"`, `"bogus": 1, "app"`, 1),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		var sout, serr bytes.Buffer
		if code := run([]string{"checkreport", path}, &sout, &serr); code != 1 {
			t.Errorf("checkreport %s = %d, want 1; stderr: %s", name, code, serr.String())
		}
	}

	var sout, serr bytes.Buffer
	if code := run([]string{"checkreport"}, &sout, &serr); code != 1 {
		t.Errorf("checkreport with no args = %d, want 1", code)
	}
}

// TestAdviseErrors: argument mistakes exit 1 with a useful message.
func TestAdviseErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"advise"}, "advise wants one application name"},
		{[]string{"advise", "nosuchapp"}, `unknown application "nosuchapp"`},
		{[]string{"advise", "-arch=vega", "bfs"}, `unknown architecture "vega"`},
		{[]string{"advise", "-format=xml", "testdata/fixture.mir"}, `unknown advise format "xml"`},
		{[]string{"lint", "-format=xml", "bfs"}, `unknown lint format "xml"`},
		{[]string{"advise", "-scale", "0", "nn"}, `scale="0": want an integer ≥ 1`},
		{[]string{"advise", "-scale=-2", "nn"}, `scale="-2": want an integer ≥ 1`},
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
