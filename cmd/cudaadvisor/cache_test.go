package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// cacheLine extracts and parses the "cache: ..." summary from stderr.
type cacheLine struct {
	raw                                                          string
	requests, memoHits, diskHits, misses, bad, stores, storeErrs int64
	evictions, heals                                             int64
}

func parseCacheStats(t *testing.T, stderr string) cacheLine {
	t.Helper()
	for _, line := range strings.Split(stderr, "\n") {
		if !strings.HasPrefix(line, "cache: ") {
			continue
		}
		c := cacheLine{raw: line}
		if _, err := fmt.Sscanf(line,
			"cache: %d requests, %d memo hits, %d disk hits, %d misses, %d bad entries, %d stores, %d store errors, %d evictions, %d heals",
			&c.requests, &c.memoHits, &c.diskHits, &c.misses, &c.bad, &c.stores, &c.storeErrs, &c.evictions, &c.heals); err != nil {
			t.Fatalf("unparseable cache stats line %q: %v", line, err)
		}
		return c
	}
	t.Fatalf("no cache stats line on stderr:\n%s", stderr)
	return cacheLine{}
}

// runOK runs one CLI invocation and fails the test on a non-zero exit.
func runOK(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, errb.String())
	}
	return out.String(), errb.String()
}

// TestCacheStatsColdWarm pins the CLI cache contract on the cheapest
// figure: cached stdout is byte-identical to uncached at every cache
// temperature, the stats line lands on stderr (keeping stdout clean),
// a cold run is all misses+stores, and a warm rerun is a 100% disk hit
// rate with zero misses.
func TestCacheStatsColdWarm(t *testing.T) {
	dir := t.TempDir()
	ref, refErr := runOK(t, "figure4")
	if refErr != "" {
		t.Errorf("uncached run wrote to stderr: %q", refErr)
	}

	cold, coldErr := runOK(t, "-cache-dir", dir, "-cache-stats", "figure4")
	if cold != ref {
		t.Errorf("cold-cache stdout differs from uncached:\n--- cold\n%s--- ref\n%s", cold, ref)
	}
	cs := parseCacheStats(t, coldErr)
	if cs.misses == 0 || cs.misses != cs.requests || cs.stores != cs.misses || cs.diskHits != 0 {
		t.Errorf("cold stats %q: want all requests to miss and be stored", cs.raw)
	}

	warm, warmErr := runOK(t, "-cache-dir", dir, "-cache-stats", "figure4")
	if warm != ref {
		t.Errorf("warm-cache stdout differs from uncached:\n--- warm\n%s--- ref\n%s", warm, ref)
	}
	ws := parseCacheStats(t, warmErr)
	if ws.misses != 0 || ws.bad != 0 || ws.diskHits != cs.requests {
		t.Errorf("warm stats %q: want 0 misses and %d disk hits (100%% hit rate)", ws.raw, cs.requests)
	}
}

// TestCacheStatsOff: -cache-stats without any cache flag reports "off"
// rather than inventing counters.
func TestCacheStatsOff(t *testing.T) {
	_, stderr := runOK(t, "-cache-stats", "apps")
	if !strings.Contains(stderr, "cache: off") {
		t.Errorf("stderr = %q, want a \"cache: off\" line", stderr)
	}
}

// TestInjectedRunWritesNoCacheEntries: the -inject satellite guarantee at
// the CLI layer — a fault-injected run leaves the cache directory empty
// and reports zero cache traffic.
func TestInjectedRunWritesNoCacheEntries(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-cache-dir", dir, "-cache-stats", "-keep-going",
		"-inject", "seed=7,panic=figure4/hotspot", "figure4",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("injected run exit = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	s := parseCacheStats(t, stderr.String())
	if s.requests != 0 || s.stores != 0 {
		t.Errorf("injected run touched the cache: %s", s.raw)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.cell")); len(files) != 0 {
		t.Errorf("injected run wrote cache entries: %v", files)
	}
}

// TestAllCacheMatrix is the acceptance matrix for the whole-run cache:
// `cudaadvisor all` output, Figure 10 included, is byte-identical across
// {cache off, cold cache, warm cache} × {-j 1, -j 8}, the uncached
// reference matches the checked-in golden, a cold run serves duplicate
// cells from the memoizer, a warm run is a 100% hit rate with identical
// stats at every -j, and the warm run is measurably faster than the cold
// one.
//
// Four full evaluations are minutes of simulation, so this runs neither
// in -short nor under the race detector (see race_on.go); CI has a
// dedicated non-race step for it.
func TestAllCacheMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("four full `all` runs; skipped in -short")
	}
	if raceEnabled {
		t.Skip("full `all` matrix under -race exceeds the test budget; cache races are covered by profcache and experiments tests")
	}
	dir := t.TempDir()

	ref, _ := runOK(t, "-j", "1", "all")
	checkGolden(t, "all.golden", []byte(ref))

	t0 := time.Now()
	coldOut, coldErr := runOK(t, "-j", "8", "-cache-dir", dir, "-cache-stats", "all")
	coldDur := time.Since(t0)
	if coldOut != ref {
		t.Errorf("cold cache -j 8 output differs from uncached -j 1")
	}
	cs := parseCacheStats(t, coldErr)
	// The duplicate cells — Figure 4 ∩ Figure 5, Figure 7 ∩ Figure 5's
	// Pascal panel, the bypass CTA measurement ∩ its baseline sweep point
	// — must be served from the in-process memoizer on a cold run.
	if cs.memoHits == 0 {
		t.Errorf("cold `all` served no duplicate cell from the cache: %s", cs.raw)
	}
	if cs.misses == 0 || cs.stores != cs.misses {
		t.Errorf("cold stats %q: every miss must be stored", cs.raw)
	}

	t1 := time.Now()
	warm1Out, warm1Err := runOK(t, "-j", "1", "-cache-dir", dir, "-cache-stats", "all")
	warmDur := time.Since(t1)
	if warm1Out != ref {
		t.Errorf("warm cache -j 1 output differs from uncached")
	}
	w1 := parseCacheStats(t, warm1Err)
	if w1.misses != 0 || w1.bad != 0 || w1.requests != w1.memoHits+w1.diskHits || w1.diskHits == 0 {
		t.Errorf("warm stats %q: want a 100%% hit rate (0 misses)", w1.raw)
	}

	warm8Out, warm8Err := runOK(t, "-j", "8", "-cache-dir", dir, "-cache-stats", "all")
	if warm8Out != ref {
		t.Errorf("warm cache -j 8 output differs from uncached")
	}
	if w8 := parseCacheStats(t, warm8Err); w8 != w1 {
		t.Errorf("cache stats depend on the worker count:\n-j 1: %s\n-j 8: %s", w1.raw, w8.raw)
	}

	t.Logf("cold `all` %v, warm `all` %v", coldDur, warmDur)
	if warmDur >= coldDur {
		t.Errorf("warm `all` (%v) is not faster than cold (%v)", warmDur, coldDur)
	}
}
