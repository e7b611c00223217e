// Package profcache is a content-addressed cache of profiler results.
//
// Every profiling run in this repository is a pure function of its
// inputs: the application's device IR and host driver, the architecture
// configuration, the instrumentation options, the input scale, and the
// trace-buffer bounds (DESIGN.md "Scheduling determinism"). The same is
// true of the native cycle-model runs behind the bypassing studies. The
// cache exploits that purity: a canonical hash of those inputs fully
// determines the result, so repeated cells — Figure 4's applications
// reappearing in Figure 5, Figure 7's profiling runs reappearing from
// Figure 5's Pascal panel, the bypass timing-CTA measurement coinciding
// with the sweep's baseline point, and whole CI reruns — can be served
// from a cache with provably identical output.
//
// Two layers compose:
//
//   - an in-process memoizer with single-flight semantics: concurrent
//     requests for the same key (the -j 8 case) block on one fill
//     instead of profiling the same cell twice, and every requester gets
//     the same result object;
//   - an optional on-disk store (New with a non-empty dir): entries are
//     a stable, checksummed encoding of the per-cell analysis results,
//     written atomically (temp file + rename) and published under a
//     cross-process claim protocol (lock.go) so a fleet of processes —
//     CLI runs and serve daemons alike — sharing one directory fills
//     each key exactly once. Corrupt or truncated entries are treated
//     as misses, never as errors, and are healed (removed) on sight so
//     the refill repairs the store in place. The store self-invalidates
//     across rebuilds: every key folds in the binary's build version
//     (buildid.go), and a size budget with LRU eviction (evict.go) ages
//     the orphaned generations out.
//
// What is cached is the analysis bundle (reuse distance under both
// models, memory divergence at the architecture's line size, branch
// divergence), the cycle-model measurements, and rendered byte entries
// (encoded advisor reports, debug views) — not the raw traces.
// Anything non-deterministic (the wall-clock overhead study) or
// perturbed (fault injection, per-cell timeouts) must bypass the cache;
// see experiments.Env for the bypass policy.
package profcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profiler"
)

// Key identifies one cacheable cell. The zero value is not valid; build
// keys with ProfileKey, CyclesKey or ViewKey so every determining input
// is captured. Keys are content-addressed: App
// carries the application name, IR the digest of its device code,
// Arch/Opts canonical renderings of the full configuration structs, and
// Build the binary's build version — so changing any field of any
// input, or rebuilding the binary, changes the key.
type Key struct {
	Kind     string // "profile", "cycles" or "view"
	Build    string // build-derived cache version (BuildVersion())
	App      string
	IR       string // hex digest of the application's device IR text
	Arch     string // canonical rendering of the gpu.ArchConfig
	Opts     string // canonical rendering of the instrument.Options ("" for cycles)
	L1Warps  int    // cycles only: the rt bypassing setting (0 = none)
	Scale    int
	TraceCap int    // profile and view only: trace-buffer bound (0 = unbounded)
	View     string // view only: which rendered view the entry holds
}

// ProfileKey is the key of one instrumented profiling run. The key is
// conservative: it hashes the full architecture configuration even
// though the trace does not depend on cache geometry, so distinct L1
// splits never share entries (provably safe, occasionally wasteful).
func ProfileKey(app *apps.App, cfg gpu.ArchConfig, opts instrument.Options, scale, traceCap int) Key {
	return Key{
		Kind:     "profile",
		Build:    BuildVersion(),
		App:      app.Name,
		IR:       irFingerprint(app),
		Arch:     fmt.Sprintf("%+v", cfg),
		Opts:     fmt.Sprintf("%+v", opts),
		Scale:    scale,
		TraceCap: traceCap,
	}
}

// CyclesKey is the key of one native cycle-model run (no instrumentation,
// no trace) at the given bypassing setting.
func CyclesKey(app *apps.App, cfg gpu.ArchConfig, l1Warps, scale int) Key {
	return Key{
		Kind:    "cycles",
		Build:   BuildVersion(),
		App:     app.Name,
		IR:      irFingerprint(app),
		Arch:    fmt.Sprintf("%+v", cfg),
		L1Warps: l1Warps,
		Scale:   scale,
	}
}

// ViewKey is the key of one rendered view (the code-/data-centric CCT
// and per-object access-map dumps, the export serializations —
// "export:folded:<weight>" / "export:chrome" — and the encoded advisor
// report, whose view name carries its schema version so a schema bump
// orphans old entries): the exact bytes the view printer emits for a
// profiling run, named by view. Views are cached as rendered text
// because their inputs — the calling-context tree, the raw object
// access log, the per-SM schedules — are exactly what the analysis
// bundle drops to stay small.
func ViewKey(app *apps.App, cfg gpu.ArchConfig, opts instrument.Options, scale, traceCap int, view string) Key {
	k := ProfileKey(app, cfg, opts, scale, traceCap)
	k.Kind = "view"
	k.View = view
	return k
}

// irFingerprint digests the application's device code. The textual IR
// is the program; the host driver is Go code and therefore covered by
// the build version folded into every key, not by the fingerprint.
func irFingerprint(app *apps.App) string {
	h := sha256.New()
	h.Write([]byte(app.SourceFile))
	h.Write([]byte{0})
	h.Write([]byte(app.Source))
	return hex.EncodeToString(h.Sum(nil))
}

// Canonical renders the key as an unambiguous string: the preimage of ID.
func (k Key) Canonical() string {
	return fmt.Sprintf("kind=%s|build=%s|app=%q|ir=%s|arch=%q|opts=%q|l1warps=%d|scale=%d|tracecap=%d|view=%q",
		k.Kind, k.Build, k.App, k.IR, k.Arch, k.Opts, k.L1Warps, k.Scale, k.TraceCap, k.View)
}

// ID is the content address: the hex SHA-256 of the canonical key.
func (k Key) ID() string {
	sum := sha256.Sum256([]byte(k.Canonical()))
	return hex.EncodeToString(sum[:])
}

// CycleStats is the result of one native cycle-model run: the summed
// modeled kernel cycles and the largest launched grid in CTAs. One run
// yields both, so the bypass baseline and the Eq. (1) CTA measurement
// share a single entry.
type CycleStats struct {
	Cycles  int64
	MaxCTAs int
}

// Snapshot is a point-in-time copy of the cache counters. The request
// counts are deterministic for a fixed request set and disk state:
// single-flight makes fills (“misses”) equal the number of unique keys
// not already on disk, regardless of worker count or completion order.
// Evictions, heals and takeovers are janitorial counts — they never
// feed back into hit/miss accounting, so the warm-run "0 misses"
// invariant stays meaningful under a size budget.
type Snapshot struct {
	MemoHits    int64 // served from the in-process memoizer (incl. single-flight joins)
	DiskHits    int64 // deserialized from the on-disk store
	Misses      int64 // filled by running the cell
	BadEntries  int64 // on-disk entries rejected (corrupt/truncated/mismatched), counted as misses
	Stores      int64 // entries written to the on-disk store
	StoreErrors int64 // failed store attempts (logged in stats only, never fatal)
	Evictions   int64 // entries removed to satisfy the size budget
	Heals       int64 // bad entries removed on detection so the refill repairs in place
	Takeovers   int64 // stale cross-process claims reclaimed from dead writers
}

// Requests is the total number of cache lookups.
func (s Snapshot) Requests() int64 { return s.MemoHits + s.DiskHits + s.Misses }

// Cache is the two-layer result cache. The zero value is not usable;
// call New. A nil *Cache is valid everywhere it is consulted by the
// experiments layer and means "profile for real".
type Cache struct {
	dir        string        // "" = in-process memoizer only
	ttl        time.Duration // stale-claim bound; 0 = defaultClaimTTL
	budget     int64         // on-disk size budget in bytes; 0 = unlimited
	memoBudget int           // max resolved memoizer entries; 0 = unlimited

	mu      sync.Mutex
	entries map[string]*entry

	memoHits, diskHits, misses      atomic.Int64
	badEntries, stores, storeErrors atomic.Int64
	evictions, heals, takeovers     atomic.Int64
}

// entry is one single-flight slot: ready closes when val/err are set.
// val holds the kind-specific result (*Results, CycleStats, []byte).
type entry struct {
	ready chan struct{}
	val   any
	err   error
}

// New returns a cache. A non-empty dir enables the on-disk store rooted
// there (created lazily on first write).
func New(dir string) *Cache {
	return &Cache{dir: dir, entries: make(map[string]*entry)}
}

// Dir returns the on-disk store directory ("" when memory-only).
func (c *Cache) Dir() string { return c.dir }

// SetMemoBudget caps the in-process memoizer at n resolved entries
// (0 = unlimited, the CLI default — a run's working set is the run).
// Long-running daemons set a budget so the memoizer cannot grow without
// bound; evicted results remain one disk hit away, so the cap trades a
// deserialization for boundedness, never a re-run.
func (c *Cache) SetMemoBudget(n int) { c.memoBudget = n }

// Stats snapshots the cache counters.
func (c *Cache) Stats() Snapshot {
	return Snapshot{
		MemoHits:    c.memoHits.Load(),
		DiskHits:    c.diskHits.Load(),
		Misses:      c.misses.Load(),
		BadEntries:  c.badEntries.Load(),
		Stores:      c.stores.Load(),
		StoreErrors: c.storeErrors.Load(),
		Evictions:   c.evictions.Load(),
		Heals:       c.heals.Load(),
		Takeovers:   c.takeovers.Load(),
	}
}

// claim registers a single-flight slot for id. The second return is true
// for the owner (who must fill the entry and close ready, on every
// path); false means another request owns the fill and the caller should
// wait on ready.
func (c *Cache) claim(id string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		return e, false
	}
	e := &entry{ready: make(chan struct{})}
	c.entries[id] = e
	return e, true
}

// abandon removes a failed fill so later requests retry instead of
// replaying the error — the same semantics as not caching at all.
// Requests already waiting on the entry still observe its error.
func (c *Cache) abandon(id string) {
	c.mu.Lock()
	delete(c.entries, id)
	c.mu.Unlock()
}

// trimMemo enforces the memoizer budget after a publish. Only resolved
// entries are dropped — an in-flight entry is load-bearing for its
// waiters — and which resolved entries go is arbitrary (map order):
// with the disk store behind the memoizer, replacement policy is worth
// no bookkeeping. Waiters holding an evicted *entry are unaffected;
// they own the pointer, not the map slot.
func (c *Cache) trimMemo() {
	if c.memoBudget <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, e := range c.entries {
		if len(c.entries) <= c.memoBudget {
			break
		}
		select {
		case <-e.ready:
			delete(c.entries, id)
		default:
		}
	}
}

// wait blocks until the entry is filled or ctx ends.
func wait(ctx context.Context, e *entry) error {
	select {
	case <-e.ready:
		return e.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// get is the shared two-layer lookup: single-flight through the
// memoizer, then disk load / cross-process claim / fill / publish.
// A waiter whose owner failed retries from the top as long as its own
// context is alive — an owner's failure (most often the owner's client
// disconnecting mid-fill in the serve daemon) must not poison requests
// that are still live.
func (c *Cache) get(ctx context.Context, key Key,
	load func(Key) (any, bool),
	store func(Key, any),
	fill func(context.Context) (any, error),
) (any, error) {
	id := key.ID()
	for {
		e, owner := c.claim(id)
		if !owner {
			if err := wait(ctx, e); err != nil {
				return nil, err
			}
			if e.err != nil {
				if ctx.Err() != nil {
					return nil, e.err
				}
				continue // owner failed but we are live: retry the claim
			}
			c.memoHits.Add(1)
			return e.val, nil
		}
		val, err := c.fillEntry(ctx, key, id, load, store, fill)
		if err != nil {
			e.err = err
			c.abandon(id)
			close(e.ready)
			return nil, err
		}
		e.val = val
		close(e.ready)
		c.trimMemo()
		return val, nil
	}
}

// fillEntry resolves one memoizer-owned fill against the disk layer:
// serve from disk if published, otherwise win the cross-process claim
// (or wait out whichever process holds it, re-checking the store
// between backoffs) and run the fill exactly once fleet-wide.
func (c *Cache) fillEntry(ctx context.Context, key Key, id string,
	load func(Key) (any, bool),
	store func(Key, any),
	fill func(context.Context) (any, error),
) (any, error) {
	if c.dir == "" {
		val, err := fill(ctx)
		if err != nil {
			return nil, err
		}
		c.misses.Add(1)
		return val, nil
	}
	var backoff time.Duration
	for {
		if val, ok := load(key); ok {
			c.diskHits.Add(1)
			c.touchEntry(key)
			return val, nil
		}
		release, owned, err := c.acquireFill(ctx, id, &backoff)
		if err != nil {
			return nil, err
		}
		if !owned {
			continue // backed off; re-check whether the holder published
		}
		// Claim held. A fill may have been published between our load
		// and the claim (the previous holder releasing) — re-check
		// before paying for the run.
		if val, ok := load(key); ok {
			release()
			c.diskHits.Add(1)
			c.touchEntry(key)
			return val, nil
		}
		val, err := fill(ctx)
		if err != nil {
			release()
			return nil, err
		}
		c.misses.Add(1)
		store(key, val) // atomic publish happens before the claim drops
		release()
		c.maybeEvict()
		return val, nil
	}
}

// Profile returns the analysis bundle for key, serving from the memoizer
// or the disk store when possible and otherwise running fill exactly
// once per key (single-flight, in-process and across processes):
// concurrent requests for the same key share the one fill. fill errors
// are returned, never cached. The returned Results is shared between
// requesters and must be treated as immutable.
func (c *Cache) Profile(ctx context.Context, key Key, lineSize int, fill func(context.Context) (*profiler.Profiler, error)) (*Results, error) {
	v, err := c.get(ctx, key,
		func(k Key) (any, bool) { r, ok := c.loadProfile(k); return r, ok },
		func(k Key, v any) { c.storeProfile(k, v.(*Results)) },
		func(ctx context.Context) (any, error) {
			p, err := fill(ctx)
			if err != nil {
				return nil, err
			}
			res := NewResults(p, lineSize)
			res.ResolveAll() // derive everything, then drop the profiler: entries stay small
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	return v.(*Results), nil
}

// Cycles is Profile for native cycle-model runs.
func (c *Cache) Cycles(ctx context.Context, key Key, fill func(context.Context) (CycleStats, error)) (CycleStats, error) {
	v, err := c.get(ctx, key,
		func(k Key) (any, bool) { cyc, ok := c.loadCycles(k); return cyc, ok },
		func(k Key, v any) { c.storeCycles(k, v.(CycleStats)) },
		func(ctx context.Context) (any, error) { return fill(ctx) })
	if err != nil {
		return CycleStats{}, err
	}
	return v.(CycleStats), nil
}

// Bytes is Profile for opaque rendered entries: fill produces the final
// bytes (an encoded advisor report, a rendered debug view — anything
// whose key captures every determining input), and warm runs serve them
// without recomputing. The returned slice is shared between requesters
// and must be treated as immutable.
func (c *Cache) Bytes(ctx context.Context, key Key, fill func(context.Context) ([]byte, error)) ([]byte, error) {
	v, err := c.get(ctx, key,
		func(k Key) (any, bool) { b, ok := c.loadBytes(k); return b, ok },
		func(k Key, v any) { c.storeBytes(k, v.([]byte)) },
		func(ctx context.Context) (any, error) { return fill(ctx) })
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// Results is the analysis bundle of one profiled cell: every merged
// analysis a figure may ask of the run. Freshly profiled bundles hold
// the profiler and derive each analysis on first use (so an uncached
// Figure 4 pays only for reuse distance, as before the cache existed);
// ResolveAll forces everything and releases the profiler, which is the
// form cache entries and disk serialization use. Results served from the
// cache are shared between cells: treat every returned analysis as
// immutable.
type Results struct {
	mu       sync.Mutex
	p        *profiler.Profiler
	lineSize int

	reuseElem *analysis.ReuseResult
	reuseLine *analysis.ReuseResult
	memDiv    *analysis.MemDivResult
	branchDiv *analysis.BranchDivResult
}

// NewResults wraps a profiling run for lazy analysis derivation at the
// given cache-line size (the architecture's L1LineSize).
func NewResults(p *profiler.Profiler, lineSize int) *Results {
	return &Results{p: p, lineSize: lineSize}
}

// ReuseElem is the element-based reuse-distance profile (Figure 4).
func (r *Results) ReuseElem() *analysis.ReuseResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.reuseElem == nil {
		r.reuseElem = MergedReuse(r.p, analysis.DefaultElementReuse())
	}
	return r.reuseElem
}

// ReuseLine is the line-based reuse-distance profile at the cell's cache
// line size (the R.D. input of the Eq. (1) bypass model).
func (r *Results) ReuseLine() *analysis.ReuseResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.reuseLine == nil {
		r.reuseLine = MergedReuse(r.p, analysis.LineReuse(r.lineSize))
	}
	return r.reuseLine
}

// MemDiv is the memory-divergence profile at the cell's line size
// (Figure 5, and the M.D. input of the bypass model).
func (r *Results) MemDiv() *analysis.MemDivResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.memDiv == nil {
		r.memDiv = MergedMemDiv(r.p, r.lineSize)
	}
	return r.memDiv
}

// BranchDiv is the branch-divergence profile (Table 3); empty unless the
// run instrumented basic blocks.
func (r *Results) BranchDiv() *analysis.BranchDivResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.branchDiv == nil {
		r.branchDiv = MergedBranchDiv(r.p)
	}
	return r.branchDiv
}

// ResolveAll derives every analysis and drops the profiler reference, so
// the bundle no longer pins the raw traces. Cache entries are always
// resolved before they are published or serialized.
func (r *Results) ResolveAll() {
	r.ReuseElem()
	r.ReuseLine()
	r.MemDiv()
	r.BranchDiv()
	r.mu.Lock()
	r.p = nil
	r.mu.Unlock()
}

// MergedReuse aggregates the reuse profile over every kernel instance of
// the run (nil-safe: a nil profiler yields an empty profile).
func MergedReuse(p *profiler.Profiler, opt analysis.ReuseOptions) *analysis.ReuseResult {
	var total analysis.ReuseResult
	if p != nil {
		for _, kp := range p.Kernels {
			total.Merge(analysis.ReuseDistance(kp.Trace, opt))
		}
	}
	return &total
}

// MergedMemDiv aggregates memory divergence over every kernel instance.
func MergedMemDiv(p *profiler.Profiler, lineSize int) *analysis.MemDivResult {
	total := &analysis.MemDivResult{LineSize: lineSize}
	if p != nil {
		for _, kp := range p.Kernels {
			total.Merge(analysis.MemDivergence(kp.Trace, lineSize))
		}
	}
	return total
}

// MergedBranchDiv aggregates branch divergence over every kernel instance.
func MergedBranchDiv(p *profiler.Profiler) *analysis.BranchDivResult {
	total := &analysis.BranchDivResult{}
	if p != nil {
		for _, kp := range p.Kernels {
			total.Merge(analysis.BranchDivergence(kp.Trace, kp.Tables))
		}
	}
	return total
}
