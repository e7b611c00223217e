package profcache_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/bypass"
	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/report"
)

var bothOpts = instrument.Options{Memory: true, Blocks: true}

// profileBFS runs the cheapest real profiling cell with both analyses
// instrumented, so round-trip tests cover non-empty site and block tables.
func profileBFS(t *testing.T) *profiler.Profiler {
	t.Helper()
	p, err := experiments.Profile(apps.ByName("bfs"), gpu.KeplerK40c(), bothOpts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// render exercises every analysis of a bundle the way the figures do
// (the Figure 4, 5 and Table 3 rows), so byte equality here means the
// entry loses nothing a reader of a "profile" entry reads.
func render(res *profiler.Analyses) string {
	var b bytes.Buffer
	report.ReuseHistogram(&b, "bfs", res.ReuseElem())
	report.ReuseHistogram(&b, "bfs-line", res.ReuseLine())
	report.MemDivDistribution(&b, "bfs", res.MemDiv())
	report.BranchDivTable(&b, []report.BranchRow{{App: "bfs", Result: res.BranchDiv()}})
	return b.String()
}

// TestKeySensitivity: changing any one determining input — app IR, a
// config field, an instrument option, the scale, the trace cap, or the
// cycles-run bypass setting — changes the key, and equal inputs produce
// equal keys.
func TestKeySensitivity(t *testing.T) {
	app := apps.ByName("bfs")
	cfg := gpu.KeplerK40c()
	opts := instrument.Options{Memory: true}

	irApp := *app
	irApp.Source += "\n; perturbed"
	otherApp := *app
	otherApp.Name = "bfs2"
	cfgL1 := cfg
	cfgL1.L1Bytes += 1024
	cfgLine := cfg
	cfgLine.L1LineSize = 32
	cfgName := cfg
	cfgName.Name = "kepler-variant"

	keys := []struct {
		name string
		key  profcache.Key
	}{
		{"base", profcache.ProfileKey(app, cfg, opts, 1, 0)},
		{"app name", profcache.ProfileKey(&otherApp, cfg, opts, 1, 0)},
		{"app IR", profcache.ProfileKey(&irApp, cfg, opts, 1, 0)},
		{"cfg L1Bytes", profcache.ProfileKey(app, cfgL1, opts, 1, 0)},
		{"cfg L1LineSize", profcache.ProfileKey(app, cfgLine, opts, 1, 0)},
		{"cfg Name", profcache.ProfileKey(app, cfgName, opts, 1, 0)},
		{"instrument option", profcache.ProfileKey(app, cfg, bothOpts, 1, 0)},
		{"shared-memory option", profcache.ProfileKey(app, cfg, instrument.MemorySharedAndBlocks(), 1, 0)},
		{"scale", profcache.ProfileKey(app, cfg, opts, 2, 0)},
		{"trace cap", profcache.ProfileKey(app, cfg, opts, 1, 4096)},
		{"cycles", profcache.CyclesKey(app, cfg, instrument.Options{}, 0, 1, 0)},
		{"cycles bypass setting", profcache.CyclesKey(app, cfg, instrument.Options{}, 3, 1, 0)},
		{"cycles scale", profcache.CyclesKey(app, cfg, instrument.Options{}, 0, 2, 0)},
		{"cycles instrumented", profcache.CyclesKey(app, cfg, instrument.MemoryAndBlocks(), 0, 1, 0)},
		{"cycles bound", profcache.CyclesKey(app, cfg, instrument.Options{}, 0, 1, 1000)},
		{"view kind", profcache.ViewKey(app, cfg, opts, 1, 0, "debugviews")},
		{"view name", profcache.ViewKey(app, cfg, opts, 1, 0, "cct")},
		{"advise view", profcache.ViewKey(app, cfg, opts, 1, 0, "advise:advisor-report/v1")},
		{"advise view, other schema", profcache.ViewKey(app, cfg, opts, 1, 0, "advise:advisor-report/v3")},
	}
	seen := make(map[string]string)
	for _, k := range keys {
		id := k.key.ID()
		if prev, dup := seen[id]; dup {
			t.Errorf("key %q collides with %q: %s", k.name, prev, k.key.Canonical())
		}
		seen[id] = k.name
	}
	if got := profcache.ProfileKey(app, cfg, opts, 1, 0).ID(); got != keys[0].key.ID() {
		t.Errorf("identical inputs produced different keys: %s vs %s", got, keys[0].key.ID())
	}

	// Every key folds in the build-derived cache version, so a rebuilt
	// binary addresses a fresh namespace and old entries self-invalidate
	// without any hand-bumped store version.
	base := profcache.ProfileKey(app, cfg, opts, 1, 0)
	if base.Build == "" || base.Build != profcache.BuildVersion() {
		t.Errorf("key build version = %q, want BuildVersion() = %q", base.Build, profcache.BuildVersion())
	}
	rebuilt := base
	rebuilt.Build = "0123456789abcdef"
	if rebuilt.ID() == base.ID() {
		t.Errorf("changing the build version did not change the key: %s", base.Canonical())
	}
}

// TestSingleFlight: concurrent requests for the same key run exactly one
// fill and share its result; distinct keys fill independently. Run under
// -race this is the stress test for the memoizer's synchronization.
func TestSingleFlight(t *testing.T) {
	const keys, waiters = 3, 16
	c := profcache.New("")
	app := apps.ByName("bfs")
	var fills [keys]atomic.Int64
	results := make([][]*profiler.Analyses, keys)
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		results[k] = make([]*profiler.Analyses, waiters)
		key := profcache.ProfileKey(app, gpu.KeplerK40c(), instrument.Options{Memory: true}, k+1, 0)
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func(k, w int, key profcache.Key) {
				defer wg.Done()
				res, err := c.Profile(context.Background(), key, 128, func(context.Context) (*profiler.Profiler, error) {
					fills[k].Add(1)
					return profiler.New(), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				results[k][w] = res
			}(k, w, key)
		}
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := fills[k].Load(); n != 1 {
			t.Errorf("key %d: %d fills, want exactly 1 (single-flight)", k, n)
		}
		for w := 1; w < waiters; w++ {
			if results[k][w] != results[k][0] {
				t.Errorf("key %d waiter %d got a different bundle", k, w)
			}
		}
	}
	s := c.Stats()
	if s.Misses != keys || s.MemoHits != keys*(waiters-1) || s.DiskHits != 0 {
		t.Errorf("stats = %+v, want %d misses and %d memo hits", s, keys, keys*(waiters-1))
	}
}

// TestFillErrorNotCached: a failing fill propagates its error and leaves
// no entry behind — the next request retries, exactly like not caching.
func TestFillErrorNotCached(t *testing.T) {
	dir := t.TempDir()
	c := profcache.New(dir)
	key := profcache.CyclesKey(apps.ByName("bfs"), gpu.KeplerK40c(), instrument.Options{}, 0, 1, 0)
	boom := fmt.Errorf("injected fill failure")
	if _, err := c.Cycles(context.Background(), key, func(context.Context) (profcache.CycleStats, error) {
		return profcache.CycleStats{}, boom
	}); err != boom {
		t.Fatalf("err = %v, want the fill error", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.cell")); len(files) != 0 {
		t.Errorf("failed fill wrote %v; errors must never be stored", files)
	}
	got, err := c.Cycles(context.Background(), key, func(context.Context) (profcache.CycleStats, error) {
		return profcache.CycleStats{Cycles: 42, MaxCTAs: 7}, nil
	})
	if err != nil || got.Cycles != 42 {
		t.Fatalf("retry after failed fill = %+v, %v; want a fresh successful fill", got, err)
	}
	if s := c.Stats(); s.Misses != 1 || s.Stores != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 store (the failed fill counts neither)", s)
	}
}

// TestCyclesBoundIsKeyed: a cycles entry stored under one bound — here a
// run stopped over it — is read back under that bound only. The same run
// under another bound, or under none, misses and fills its own entry.
func TestCyclesBoundIsKeyed(t *testing.T) {
	dir, ctx := t.TempDir(), context.Background()
	key := func(bound int64) profcache.Key {
		return profcache.CyclesKey(apps.ByName("syrk"), gpu.PascalP100(), instrument.Options{}, 3, 2, bound)
	}
	over := profcache.CycleStats{Cycles: 1001}
	if _, err := profcache.New(dir).Cycles(ctx, key(1000), func(context.Context) (profcache.CycleStats, error) {
		return over, nil
	}); err != nil {
		t.Fatal(err)
	}
	full := profcache.CycleStats{Cycles: 1234, MaxCTAs: 56}
	for _, bound := range []int64{0, 999, 1001, 2000} {
		c := profcache.New(dir)
		got, err := c.Cycles(ctx, key(bound), func(context.Context) (profcache.CycleStats, error) { return full, nil })
		if s := c.Stats(); err != nil || got != full || s.Misses != 1 || s.DiskHits != 0 {
			t.Errorf("bound %d: %+v, %v, stats %+v; want its own fill %+v", bound, got, err, s, full)
		}
	}
	c := profcache.New(dir)
	got, err := c.Cycles(ctx, key(1000), func(context.Context) (profcache.CycleStats, error) {
		t.Error("the entry stored under bound 1000 was not read back")
		return full, nil
	})
	if s := c.Stats(); err != nil || got != over || s.DiskHits != 1 {
		t.Errorf("bound 1000: %+v, %v, stats %+v; want the stored %+v from disk", got, err, s, over)
	}
}

// TestWaiterCancellation: a waiter whose context ends while another
// request owns the fill gets its context error, not a hang.
func TestWaiterCancellation(t *testing.T) {
	c := profcache.New("")
	key := profcache.CyclesKey(apps.ByName("bfs"), gpu.KeplerK40c(), instrument.Options{}, 0, 1, 0)
	block := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Cycles(context.Background(), key, func(context.Context) (profcache.CycleStats, error) {
			close(started)
			<-block
			return profcache.CycleStats{}, nil
		})
		done <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Cycles(ctx, key, nil); err != context.Canceled {
		t.Errorf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestOwnerCancellationHandsOver: when the owner of a fill gives up (its
// own context ends mid-fill — a client that disconnected), the requests
// waiting on that key do not inherit the cancellation: one of them takes
// the fill over and the rest share its result.
func TestOwnerCancellationHandsOver(t *testing.T) {
	c := profcache.New("")
	key := profcache.CyclesKey(apps.ByName("bfs"), gpu.KeplerK40c(), instrument.Options{}, 0, 1, 0)
	started := make(chan struct{})
	var fills atomic.Int32
	fill := func(ctx context.Context) (profcache.CycleStats, error) {
		if fills.Add(1) == 1 { // the owner: runs until its client goes away
			close(started)
			<-ctx.Done()
			return profcache.CycleStats{}, ctx.Err()
		}
		return profcache.CycleStats{Cycles: 42}, nil
	}
	ownerCtx, disconnect := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := c.Cycles(ownerCtx, key, fill)
		ownerErr <- err
	}()
	<-started

	const waiters = 3
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Cycles(context.Background(), key, fill)
			if err != nil || got.Cycles != 42 {
				t.Errorf("waiter %d = %+v, %v; want the takeover fill's result", i, got, err)
			}
		}(i)
	}
	// Nothing observable says "all three are parked on the entry". The
	// pause only makes the test bite: a waiter that arrives after the
	// owner gave up simply becomes the new owner, and every assertion
	// below holds just the same.
	time.Sleep(50 * time.Millisecond)
	disconnect()
	if err := <-ownerErr; err != context.Canceled {
		t.Errorf("owner err = %v, want its own context.Canceled", err)
	}
	wg.Wait()
	if n := fills.Load(); n != 2 {
		t.Errorf("%d fills, want 2: the abandoned one and exactly one takeover", n)
	}
	if s := c.Stats(); s.Misses != 1 || s.MemoHits != waiters-1 {
		t.Errorf("stats = %+v, want 1 miss and %d memo hits", s, waiters-1)
	}
}

// TestRunOwnerCancellationHandsOver: the first requester of a run — the
// owner of its view's fill and, inside it, of the simulation — goes away
// mid-simulation. Of the requests parked behind it (two for the same
// view, one for another view of the same run) one takes the simulation
// over: the run is simulated once to completion, each view is rendered
// once, and the run never reaches the disk.
func TestRunOwnerCancellationHandsOver(t *testing.T) {
	dir := t.TempDir()
	c := profcache.New(dir)
	app, cfg := apps.ByName("bfs"), gpu.KeplerK40c()
	runKey := profcache.ProfileKey(app, cfg, bothOpts, 1, 0)
	started := make(chan struct{})
	var sims atomic.Int32
	simulate := func(ctx context.Context) (*profiler.Profiler, error) {
		if sims.Add(1) == 1 { // the owner: simulates until its client goes away
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return profiler.New(), nil
	}
	var renders atomic.Int32
	view := func(ctx context.Context, name string) ([]byte, error) {
		return c.Bytes(ctx, profcache.ViewKey(app, cfg, bothOpts, 1, 0, name), func(ctx context.Context) ([]byte, error) {
			p, err := c.Run(ctx, runKey, simulate)
			if err != nil {
				return nil, err
			}
			renders.Add(1)
			return []byte(fmt.Sprintf("%s of %d kernels", name, len(p.Kernels))), nil
		})
	}
	ownerCtx, disconnect := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := view(ownerCtx, "a")
		ownerErr <- err
	}()
	<-started

	var wg sync.WaitGroup
	for i, name := range []string{"a", "a", "b"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			if got, err := view(context.Background(), name); err != nil || string(got) != name+" of 0 kernels" {
				t.Errorf("waiter %d = %q, %v; want view %s of the takeover's run", i, got, err, name)
			}
		}(i, name)
	}
	time.Sleep(50 * time.Millisecond) // lets the waiters park; see TestOwnerCancellationHandsOver
	disconnect()
	if err := <-ownerErr; err != context.Canceled {
		t.Errorf("owner err = %v, want its own context.Canceled", err)
	}
	wg.Wait()
	if n := sims.Load(); n != 2 {
		t.Errorf("%d simulations started, want 2: the abandoned one and exactly one takeover", n)
	}
	if n := renders.Load(); n != 2 {
		t.Errorf("%d renders, want one per view", n)
	}
	if s := c.Stats(); s.Runs != 1 || s.RunShares != 1 || s.Misses != 2 || s.MemoHits != 1 || s.Stores != 2 {
		t.Errorf("stats = %+v, want 1 run shared once, and 2 view misses, 1 memo hit, 2 stores", s)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 2 {
		t.Errorf("the directory holds %d files, want the two view entries only: %v", len(files), files)
	}
}

// TestSharedFillErrorStaysShared: a fill that fails while its owner is
// still there is a result; every waiter gets it and nobody runs it again.
func TestSharedFillErrorStaysShared(t *testing.T) {
	c := profcache.New("")
	key := profcache.CyclesKey(apps.ByName("bfs"), gpu.KeplerK40c(), instrument.Options{}, 0, 1, 0)
	boom := fmt.Errorf("injected fill failure")
	started, release := make(chan struct{}), make(chan struct{})
	var fills atomic.Int32
	fill := func(context.Context) (profcache.CycleStats, error) {
		if fills.Add(1) == 1 {
			close(started)
		}
		<-release
		return profcache.CycleStats{}, boom
	}
	errs := make(chan error, 2)
	go func() { _, err := c.Cycles(context.Background(), key, fill); errs <- err }()
	<-started
	go func() { _, err := c.Cycles(context.Background(), key, fill); errs <- err }()
	time.Sleep(50 * time.Millisecond) // as above: lets the waiter park
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != boom {
			t.Errorf("request %d err = %v, want the shared fill error", i, err)
		}
	}
}

// TestDiskRoundTrip: at both line sizes, a warm load of bfs (memory and
// blocks instrumented) decodes, without invoking the fill, a bundle that
// renders the Figure 4, 5 and Table 3 rows, and gives the Eq. (1) bypass
// prediction at every resident-CTA count, that the live bundle does.
func TestDiskRoundTrip(t *testing.T) {
	ctx, app := context.Background(), apps.ByName("bfs")
	for _, cfg := range []gpu.ArchConfig{gpu.KeplerK40c(), gpu.PascalP100()} {
		p, err := experiments.Profile(app, cfg, bothOpts, 1)
		if err != nil {
			t.Fatal(err)
		}
		dir, key := t.TempDir(), profcache.ProfileKey(app, cfg, bothOpts, 1, 0)
		cold := profcache.New(dir)
		live, err := cold.Profile(ctx, key, cfg.L1LineSize, func(context.Context) (*profiler.Profiler, error) {
			return p, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if s := cold.Stats(); s.Misses != 1 || s.Stores != 1 || s.StoreErrors != 0 {
			t.Fatalf("%s: cold stats = %+v, want 1 miss and 1 store", cfg.Name, s)
		}
		if live.ReuseLine().Samples == 0 || live.MemDiv().Total == 0 || live.BranchDiv().Total == 0 {
			t.Fatalf("%s: bfs recorded an empty aggregate", cfg.Name)
		}

		warm := profcache.New(dir)
		decoded, err := warm.Profile(ctx, key, cfg.L1LineSize, func(context.Context) (*profiler.Profiler, error) {
			t.Error("warm load must not re-profile")
			return nil, fmt.Errorf("unexpected fill")
		})
		if err != nil {
			t.Fatal(err)
		}
		if s := warm.Stats(); s.DiskHits != 1 || s.Misses != 0 || s.BadEntries != 0 {
			t.Errorf("%s: warm stats = %+v, want exactly 1 disk hit", cfg.Name, s)
		}
		if got, want := render(decoded), render(live); got != want {
			t.Errorf("%s: disk round trip changed the rows\n--- warm\n%s--- cold\n%s", cfg.Name, got, want)
		}
		for ctas := 1; ctas <= cfg.MaxCTAsPerSM; ctas++ {
			predict := func(a *profiler.Analyses) int {
				return bypass.PredictFromProfiles(cfg, a.ReuseLine(), a.ReuseElem(), a.MemDiv(), app.WarpsPerCTA, ctas)
			}
			if got, want := predict(decoded), predict(live); got != want {
				t.Errorf("%s, %d CTAs/SM: decoded bundle predicts %d warps, live %d", cfg.Name, ctas, got, want)
			}
		}
	}
}

// TestCyclesDiskRoundTrip is the cycles-entry analogue.
func TestCyclesDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := profcache.CyclesKey(apps.ByName("bfs"), gpu.KeplerK40c(), instrument.Options{}, 2, 1, 0)
	want := profcache.CycleStats{Cycles: 123456, MaxCTAs: 42}
	cold := profcache.New(dir)
	if _, err := cold.Cycles(context.Background(), key, func(context.Context) (profcache.CycleStats, error) {
		return want, nil
	}); err != nil {
		t.Fatal(err)
	}
	warm := profcache.New(dir)
	got, err := warm.Cycles(context.Background(), key, func(context.Context) (profcache.CycleStats, error) {
		t.Error("warm load must not re-run")
		return profcache.CycleStats{}, fmt.Errorf("unexpected fill")
	})
	if err != nil || got != want {
		t.Fatalf("warm cycles = %+v, %v; want %+v from disk", got, err, want)
	}
}

// TestAdviseRoundTrip: advise reports cache as views of opaque bytes — a
// warm load returns them byte-identical without invoking the fill, a
// damaged entry degrades to a counted miss, and the schema version is
// part of the view name so a bump orphans old entries instead of serving
// them.
func TestAdviseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	app := apps.ByName("bfs")
	key := profcache.ViewKey(app, gpu.KeplerK40c(), bothOpts, 1, 0, "advise:advisor-report/v1")
	want := []byte("{\n  \"schema\": \"advisor-report/v1\"\n}\n")

	cold := profcache.New(dir)
	got, err := cold.Bytes(context.Background(), key, func(context.Context) ([]byte, error) {
		return want, nil
	})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cold advise = %q, %v", got, err)
	}
	if s := cold.Stats(); s.Misses != 1 || s.Stores != 1 {
		t.Fatalf("cold stats = %+v, want 1 miss and 1 store", s)
	}

	warm := profcache.New(dir)
	got, err = warm.Bytes(context.Background(), key, func(context.Context) ([]byte, error) {
		t.Error("warm load must not re-run the join")
		return nil, fmt.Errorf("unexpected fill")
	})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("warm advise = %q, %v; want the stored bytes", got, err)
	}
	if s := warm.Stats(); s.DiskHits != 1 || s.Misses != 0 {
		t.Errorf("warm stats = %+v, want exactly 1 disk hit", s)
	}

	// A schema bump is a different key: the old entry is not served.
	bumped := profcache.ViewKey(app, gpu.KeplerK40c(), bothOpts, 1, 0, "advise:advisor-report/v3")
	if bumped.ID() == key.ID() {
		t.Fatalf("schema version is not part of the advise view key: %s", key.Canonical())
	}
	filled := false
	if _, err := warm.Bytes(context.Background(), bumped, func(context.Context) ([]byte, error) {
		filled = true
		return []byte("v2\n"), nil
	}); err != nil || !filled {
		t.Fatalf("bumped-schema advise: filled=%v err=%v, want a fresh fill", filled, err)
	}

	// Damaging the entry degrades to a counted miss and the refill
	// repairs the store.
	files, _ := filepath.Glob(filepath.Join(dir, "*.cell"))
	for _, f := range files {
		if err := os.WriteFile(f, []byte("junk\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damaged := profcache.New(dir)
	got, err = damaged.Bytes(context.Background(), key, func(context.Context) ([]byte, error) {
		return want, nil
	})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("advise after damage = %q, %v; a bad entry must be a miss", got, err)
	}
	if s := damaged.Stats(); s.BadEntries != 1 || s.Misses != 1 {
		t.Errorf("damaged stats = %+v, want 1 bad entry and 1 miss", s)
	}
}

// TestEmptyViewIsADiskHit: a view that renders to zero bytes (the folded
// reuse export of an app with no reuse) is a real result. Reopening the
// directory must serve it from disk — not reject it as a bad entry and
// simulate the cell again on every warm run.
func TestEmptyViewIsADiskHit(t *testing.T) {
	dir := t.TempDir()
	key := profcache.ViewKey(apps.ByName("nn"), gpu.KeplerK40c(), bothOpts, 1, 0, "export/folded/reuse")
	for _, empty := range [][]byte{nil, {}} {
		cold := profcache.New(dir)
		got, err := cold.Bytes(context.Background(), key, func(context.Context) ([]byte, error) { return empty, nil })
		if err != nil || len(got) != 0 {
			t.Fatalf("cold fill = %q, %v", got, err)
		}
		warm := profcache.New(dir)
		got, err = warm.Bytes(context.Background(), key, func(context.Context) ([]byte, error) {
			t.Error("an empty view was filled again after reopening the cache")
			return nil, nil
		})
		if err != nil || len(got) != 0 {
			t.Fatalf("warm load = %q, %v; want the empty view", got, err)
		}
		if s := warm.Stats(); s.DiskHits != 1 || s.Misses != 0 || s.BadEntries != 0 || s.Heals != 0 {
			t.Errorf("warm stats = %+v, want 1 disk hit and no miss, bad entry or heal", s)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptEntriesAreMisses: every way an on-disk entry can be damaged
// — truncation, garbage, a version bump, a checksum mismatch, emptiness,
// or an entry filed under the wrong key — degrades to a counted miss:
// the run completes with identical output, the bad entry is reported in
// the stats, and the refill repairs the store.
func TestCorruptEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	p := profileBFS(t)
	key := profcache.ProfileKey(apps.ByName("bfs"), gpu.KeplerK40c(), bothOpts, 1, 0)
	fill := func(context.Context) (*profiler.Profiler, error) { return p, nil }

	seed := profcache.New(dir)
	res, err := seed.Profile(context.Background(), key, 128, fill)
	if err != nil {
		t.Fatal(err)
	}
	want := render(res)
	files, err := filepath.Glob(filepath.Join(dir, "*.cell"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one entry file, got %v (%v)", files, err)
	}
	path := files[0]
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		mutate  func([]byte) []byte
		wantBad int64 // bad-entry count the stats must report
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, 1},
		{"empty", func([]byte) []byte { return nil }, 1},
		{"garbage", func([]byte) []byte { return []byte("not a cache entry at all\n") }, 1},
		{"foreign magic", func(b []byte) []byte {
			return bytes.Replace(b, []byte("cudaadvisor-profcache "), []byte("cudaadvisor-profcache2 "), 1)
		}, 1},
		{"checksum mismatch", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xff
			return c
		}, 1},
		{"header json mismatch", func(b []byte) []byte {
			// Valid header and checksum over a payload for a different key:
			// the embedded canonical key must reject it.
			otherDir := t.TempDir()
			other := profcache.New(otherDir)
			if _, err := other.Cycles(context.Background(),
				profcache.CyclesKey(apps.ByName("bfs"), gpu.KeplerK40c(), instrument.Options{}, 0, 1, 0),
				func(context.Context) (profcache.CycleStats, error) {
					return profcache.CycleStats{Cycles: 1}, nil
				}); err != nil {
				t.Fatal(err)
			}
			alien, _ := filepath.Glob(filepath.Join(otherDir, "*.cell"))
			raw, err := os.ReadFile(alien[0])
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(append([]byte(nil), pristine...)), 0o644); err != nil {
				t.Fatal(err)
			}
			c := profcache.New(dir)
			filled := false
			res, err := c.Profile(context.Background(), key, 128, func(ctx context.Context) (*profiler.Profiler, error) {
				filled = true
				return fill(ctx)
			})
			if err != nil {
				t.Fatalf("a damaged entry must be a miss, never an error; got %v", err)
			}
			if !filled {
				t.Fatal("damaged entry was served instead of refilled")
			}
			if got := render(res); got != want {
				t.Errorf("refill after %s produced different output", tc.name)
			}
			s := c.Stats()
			if s.BadEntries != tc.wantBad || s.Misses != 1 || s.DiskHits != 0 {
				t.Errorf("stats = %+v, want %d bad entries and 1 miss", s, tc.wantBad)
			}
			// The refill must have repaired the store in place.
			repaired := profcache.New(dir)
			if _, err := repaired.Profile(context.Background(), key, 128, func(context.Context) (*profiler.Profiler, error) {
				t.Error("store was not repaired by the refill")
				return nil, fmt.Errorf("unexpected fill")
			}); err != nil {
				t.Fatal(err)
			}
			if s := repaired.Stats(); s.DiskHits != 1 {
				t.Errorf("post-repair stats = %+v, want a clean disk hit", s)
			}
		})
	}

	if !strings.Contains(string(pristine), "cudaadvisor-profcache ") {
		t.Errorf("entry header missing the magic:\n%.80s", pristine)
	}
}
