package experiments

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/faultinject"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/runner"
)

// renderFigure4 renders Figure 4 under env and fails the test on error.
func renderFigure4(t *testing.T, env Env) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFigure4(&buf, env); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// cellFiles returns the on-disk cache entries under dir.
func cellFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.cell"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestFigure4CacheMatrixByteIdentity extends the determinism matrix with
// the cache dimension: Figure 4 output is byte-identical across
// {cache off, memoizer, cold disk, warm disk} × {serial, -j 8}, and the
// cache counters land exactly where single-flight determinism says they
// must at every worker count.
func TestFigure4CacheMatrixByteIdentity(t *testing.T) {
	want := renderFigure4(t, Env{Scale: 1})
	if want == "" {
		t.Fatal("reference render is empty")
	}
	dir := t.TempDir()
	nApps := len(Figure4Apps)

	check := func(name string, env Env, wantStats func(profcache.Snapshot) bool) {
		t.Helper()
		if got := renderFigure4(t, env); got != want {
			t.Errorf("%s: output differs from the uncached serial reference\n--- got\n%s--- want\n%s", name, got, want)
		}
		if wantStats != nil {
			if s := env.Cache.Stats(); !wantStats(s) {
				t.Errorf("%s: unexpected cache stats %+v", name, s)
			}
		}
	}

	uncachedJ8 := Env{Pool: runner.New(8), Scale: 1}
	check("uncached -j 8", uncachedJ8, nil)

	for _, pool := range []*runner.Pool{nil, runner.New(8)} {
		memo := Env{Pool: pool, Scale: 1}
		memo.Cache = profcache.New("")
		check("memoizer", memo, func(s profcache.Snapshot) bool {
			return s.Misses == int64(nApps) && s.DiskHits == 0 && s.Stores == 0
		})
	}

	cold := Env{Pool: runner.New(8), Scale: 1}
	cold.Cache = profcache.New(dir)
	check("cold disk -j 8", cold, func(s profcache.Snapshot) bool {
		return s.Misses == int64(nApps) && s.Stores == int64(nApps) && s.DiskHits == 0
	})
	if files := cellFiles(t, dir); len(files) != nApps {
		t.Fatalf("cold run left %d entries, want %d", len(files), nApps)
	}

	var warmStats [2]profcache.Snapshot
	for i, pool := range []*runner.Pool{nil, runner.New(8)} {
		warm := Env{Pool: pool, Scale: 1}
		warm.Cache = profcache.New(dir)
		check("warm disk", warm, func(s profcache.Snapshot) bool {
			return s.Misses == 0 && s.BadEntries == 0 && s.DiskHits == int64(nApps)
		})
		warmStats[i] = warm.Cache.Stats()
	}
	if warmStats[0] != warmStats[1] {
		t.Errorf("warm stats differ between serial and -j 8: %+v vs %+v (must be deterministic)",
			warmStats[0], warmStats[1])
	}
}

// TestCacheSharesCellsAcrossFigures pins the in-process motivation: the
// seven Figure 4 cells reappear in Figure 5's Kepler panel, so with one
// shared Env cache the second figure serves them from the memoizer —
// with output identical to profiling them again.
func TestCacheSharesCellsAcrossFigures(t *testing.T) {
	wantF4 := renderFigure4(t, Env{Scale: 1})
	var wantF5 bytes.Buffer
	if err := WriteFigure5(&wantF5, Env{Scale: 1}); err != nil {
		t.Fatal(err)
	}

	env := Env{Scale: 1}
	env.Cache = profcache.New("")
	if got := renderFigure4(t, env); got != wantF4 {
		t.Errorf("cached Figure 4 differs from uncached")
	}
	var gotF5 bytes.Buffer
	if err := WriteFigure5(&gotF5, env); err != nil {
		t.Fatal(err)
	}
	if gotF5.String() != wantF5.String() {
		t.Errorf("Figure 5 served partly from Figure 4's cells differs from uncached\n--- got\n%s--- want\n%s",
			gotF5.String(), wantF5.String())
	}

	s := env.Cache.Stats()
	nShared := int64(len(Figure4Apps)) // figure4 ∩ figure5/kepler
	if s.MemoHits != nShared {
		t.Errorf("memo hits = %d, want the %d cells Figure 5 shares with Figure 4 (stats: %+v)",
			s.MemoHits, nShared, s)
	}
	if s.Misses != s.Requests()-nShared {
		t.Errorf("misses = %d, want every non-shared cell filled once (stats: %+v)", s.Misses, s)
	}
}

// TestDebugViewsCached: the Figures 8/9 cell caches its rendered text as
// a "view" entry, so a warm rerun serves the bytes with zero misses —
// this was the last profiled cell a warm `all` still had to re-run.
func TestDebugViewsCached(t *testing.T) {
	var want bytes.Buffer
	if err := WriteCodeDataCentric(&want, Env{Scale: 1}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	cold := Env{Scale: 1}
	cold.Cache = profcache.New(dir)
	var coldOut bytes.Buffer
	if err := WriteCodeDataCentric(&coldOut, cold); err != nil {
		t.Fatal(err)
	}
	if coldOut.String() != want.String() {
		t.Errorf("cold cached views differ from uncached\n--- got\n%s--- want\n%s", coldOut.String(), want.String())
	}
	if s := cold.Cache.Stats(); s.Misses != 1 || s.Stores != 1 {
		t.Errorf("cold stats = %+v, want the one view entry filled and stored", s)
	}
	if files := cellFiles(t, dir); len(files) != 1 {
		t.Fatalf("cold run left %d entries, want 1", len(files))
	}

	warm := Env{Scale: 1}
	warm.Cache = profcache.New(dir)
	var warmOut bytes.Buffer
	if err := WriteCodeDataCentric(&warmOut, warm); err != nil {
		t.Fatal(err)
	}
	if warmOut.String() != want.String() {
		t.Errorf("warm cached views differ from uncached\n--- got\n%s--- want\n%s", warmOut.String(), want.String())
	}
	if s := warm.Cache.Stats(); s.Misses != 0 || s.DiskHits != 1 || s.BadEntries != 0 {
		t.Errorf("warm stats = %+v, want the views served without profiling (0 misses)", s)
	}
}

// TestFigure10Cached: a Figure 10 cell is two cycle measurements, so the
// figure renders the same bytes serially, on a pool, from a cold cache
// and from a warm one that simulates nothing. A trace cap cannot move it
// (no trace is kept), which is why its keys leave the cap out. The
// instrumented side's cycles are a profiled run's: a hook costs its
// HookCost whatever records it.
func TestFigure10Cached(t *testing.T) {
	render := func(env Env) string {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteFigure10(&buf, env); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(Env{Scale: 1})
	dir := t.TempDir()
	cold := Env{Pool: runner.New(4), Scale: 1}
	cold.Cache = profcache.New(dir)
	warm := Env{Scale: 1}
	warm.Cache = profcache.New(dir)
	for _, tc := range []struct {
		name string
		env  Env
	}{
		{"uncached -j 4", Env{Pool: runner.New(4), Scale: 1}},
		{"cold cache", cold},
		{"warm cache", warm},
		{"trace cap", Env{Scale: 1, TraceCap: 2000}},
	} {
		if got := render(tc.env); got != want {
			t.Errorf("%s: Figure 10 differs from the uncached serial render\n--- got\n%s--- want\n%s", tc.name, got, want)
		}
	}
	n := int64(2 * 2 * len(apps.TableOrder)) // two architectures, two sides per app
	if s := cold.Cache.Stats(); s.Misses != n || s.Stores != n {
		t.Errorf("cold stats = %+v, want %d cycle entries filled and stored", s, n)
	}
	if s := warm.Cache.Stats(); s.Misses != 0 || s.Runs != 0 || s.DiskHits != n || s.BadEntries != 0 {
		t.Errorf("warm stats = %+v, want %d disk hits, 0 misses and 0 runs", s, n)
	}

	a, cfg, opts := apps.ByName("nw"), gpu.KeplerK40c(), instrument.MemoryAndBlocks()
	st, err := measureCycles(context.Background(), nil, nil, a, cfg, opts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Profile(a, cfg, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var profiled int64
	for _, kp := range p.Kernels {
		profiled += kp.Result.Cycles
	}
	if st.Cycles != profiled {
		t.Errorf("nw instrumented: %d cycles counted, %d profiled", st.Cycles, profiled)
	}
}

// TestInjectionBypassesCache: a fault-injected run must neither read nor
// write the cache — its results are wrong by design.
func TestInjectionBypassesCache(t *testing.T) {
	dir := t.TempDir()
	inj, err := faultinject.Parse("seed=7,panic=figure4/hotspot")
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Scale: 1}
	env.Cache = profcache.New(dir)
	env.Inject = inj
	env.KeepGoing = true
	var buf bytes.Buffer
	if err := WriteFigure4(&buf, env); err == nil {
		t.Fatal("injected run reported no error")
	}
	if s := env.Cache.Stats(); s.Requests() != 0 || s.Stores != 0 {
		t.Errorf("injected run touched the cache: %+v", s)
	}
	if files := cellFiles(t, dir); len(files) != 0 {
		t.Errorf("injected run wrote cache entries: %v", files)
	}
}

// TestTimeoutBypassesCache: per-cell deadlines make a run's success
// timing-dependent, so such runs bypass the cache both ways.
func TestTimeoutBypassesCache(t *testing.T) {
	dir := t.TempDir()
	env := Env{Scale: 1}
	env.Cache = profcache.New(dir)
	env.CellTimeout = time.Hour // generous: the cells succeed, only the policy is under test
	if got := renderFigure4(t, env); got == "" {
		t.Fatal("timed run produced no output")
	}
	if s := env.Cache.Stats(); s.Requests() != 0 || s.Stores != 0 {
		t.Errorf("timed run touched the cache: %+v", s)
	}
	if files := cellFiles(t, dir); len(files) != 0 {
		t.Errorf("timed run wrote cache entries: %v", files)
	}
}
