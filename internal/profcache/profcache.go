// Package profcache is a content-addressed cache of profiler results.
//
// Every profiling run in this repository is a pure function of its
// inputs: the application's device IR and host driver, the architecture
// configuration, the instrumentation options, the input scale, and the
// trace-buffer bounds (DESIGN.md "Scheduling determinism"); so is every
// native cycle-model run behind the bypassing studies. A canonical hash
// of those inputs therefore determines the result, and repeated cells —
// Figure 4's applications reappearing in Figure 5, Figure 7's profiling
// runs reappearing from Figure 5's Pascal panel, the fourteen views a
// daemon serves of one run, whole CI reruns — are served with provably
// identical output.
//
// Two layers compose:
//
//   - an in-process memoizer with single-flight semantics: concurrent
//     requests for the same key (the -j 8 case) block on one fill and
//     get the same result object. Besides the entries it holds each
//     completed run itself (Run), detached, so that everything derived
//     from one run costs one simulation per process;
//   - an optional on-disk store (New with a non-empty dir): entries are
//     a stable, checksummed encoding, written atomically (temp file +
//     rename) and published under a cross-process claim protocol
//     (lock.go) so a fleet of processes sharing one directory fills each
//     key exactly once. Corrupt or truncated entries are misses, never
//     errors, and are removed on sight so the refill repairs the store
//     in place. Every key folds in the binary's build version
//     (buildid.go), and a size budget with LRU eviction (evict.go) ages
//     orphaned generations out.
//
// An entry is an analysis bundle's four figure aggregates ("profile"),
// a cycle-model measurement ("cycles"), or rendered bytes ("view": an
// encoded advisor report, a profile listing, an export). Anything
// non-deterministic (the wall-clock overhead study) or perturbed (fault
// injection, per-cell timeouts) must bypass the cache; see
// experiments.Env for the policy.
package profcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"
	"time"

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
// profiling run, named by view. The run they are rendered from is the
// one Run keeps under the ProfileKey of the same inputs.
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
	MemoHits    int64 `json:"memo_hits"`    // served from the in-process memoizer (incl. single-flight joins)
	DiskHits    int64 `json:"disk_hits"`    // deserialized from the on-disk store
	Misses      int64 `json:"misses"`       // filled by running the cell
	BadEntries  int64 `json:"bad_entries"`  // on-disk entries rejected (corrupt/truncated/mismatched), counted as misses
	Stores      int64 `json:"stores"`       // entries written to the on-disk store
	StoreErrors int64 `json:"store_errors"` // failed store attempts (logged in stats only, never fatal)
	Evictions   int64 `json:"evictions"`    // entries removed to satisfy the size budget
	Heals       int64 `json:"heals"`        // bad entries removed on detection so the refill repairs in place
	Takeovers   int64 `json:"takeovers"`    // stale cross-process claims reclaimed from dead writers
	Runs        int64 `json:"runs"`         // simulations performed through Run
	RunShares   int64 `json:"run_shares"`   // Run lookups served by another request's simulation
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
	runs, runShares                 atomic.Int64
}

// entry is one single-flight slot: ready closes when val/err are set.
// val holds the result in the type of the key's kind (lookup's T).
// ownerGone marks an err that is no result at all: the owner's context
// ended before its fill did.
type entry struct {
	ready     chan struct{}
	val       any
	err       error
	ownerGone bool
}

// New returns a cache. A non-empty dir enables the on-disk store rooted
// there (created lazily on first write).
func New(dir string) *Cache {
	return &Cache{dir: dir, entries: make(map[string]*entry)}
}

// SetMemoBudget caps the in-process memoizer at n resolved slots, results
// and runs alike (0 = unlimited, the CLI default — a run's working set is
// the run). Long-running daemons set a budget so the memoizer cannot grow
// without bound: a trimmed result is one disk read away, a trimmed run
// one simulation, paid only by a view of it not yet on disk.
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
		Runs:        c.runs.Load(),
		RunShares:   c.runShares.Load(),
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
// Requests already waiting on the entry still observe its error, unless
// it is only the owner's cancellation (see lookup).
func (c *Cache) abandon(id string) {
	c.mu.Lock()
	delete(c.entries, id)
	c.mu.Unlock()
}

// trimMemo enforces the memoizer budget after a publish. Only resolved
// entries are dropped — an in-flight entry is load-bearing for its
// waiters — and which resolved entries go is arbitrary (map order):
// with the disk store behind the results, replacement policy is worth
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

// codec is one entry kind's payload encoding: how a result becomes the
// bytes an entry file carries, and back. decode must refuse anything
// encode could not have written; a refusal makes the entry a bad one.
type codec[T any] struct {
	encode func(T) ([]byte, error)
	decode func([]byte) (T, error)
}

// lookup is the single-flight behind every memoizer slot: the first
// request for id runs resolve, the others wait and count themselves in
// joins. A waiter gets what its owner got, the error of a failed resolve
// included; only requests that arrive after the failure resolve again.
// The exception is an owner whose own context ended mid-resolve (a
// client that disconnected): that says nothing about the key, so its
// waiters claim again and one of them becomes the owner.
func lookup[T any](ctx context.Context, c *Cache, id string, joins *atomic.Int64, resolve func(context.Context) (T, error)) (T, error) {
	var zero T
	for {
		e, owner := c.claim(id)
		if owner {
			val, err := resolve(ctx)
			if err != nil {
				e.err, e.ownerGone = err, ctx.Err() != nil
				c.abandon(id)
				close(e.ready)
				return zero, err
			}
			e.val = val
			close(e.ready)
			c.trimMemo()
			return val, nil
		}
		select {
		case <-e.ready:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		switch {
		case e.err == nil:
			joins.Add(1)
			return e.val.(T), nil
		case !e.ownerGone:
			return zero, e.err
		case ctx.Err() != nil:
			return zero, ctx.Err()
		}
	}
}

// lookupEntry is the two-layer lookup behind every entry kind.
func lookupEntry[T any](ctx context.Context, c *Cache, key Key, kind codec[T], fill func(context.Context) (T, error)) (T, error) {
	return lookup(ctx, c, key.ID(), &c.memoHits, func(ctx context.Context) (T, error) {
		return fillEntry(ctx, c, key, kind, fill)
	})
}

// Run returns the completed run for key, a ProfileKey: what the
// "profile" entry and every "view" entry of the same inputs are derived
// from, so that all of them cost one simulation per process. It is a
// memoizer slot beside the entry of the same key — single-flight, under
// the memoizer budget, counted by Runs and RunShares only — with no disk
// form: what reaches the disk is rendered or encoded from the run. fill
// simulates and hands back a detached run (profiler.Analyses.Detach),
// which makes it cheap to keep; it is shared and must not be modified.
func (c *Cache) Run(ctx context.Context, key Key, fill func(context.Context) (*profiler.Profiler, error)) (*profiler.Profiler, error) {
	return lookup(ctx, c, "run:"+key.ID(), &c.runShares, func(ctx context.Context) (*profiler.Profiler, error) {
		p, err := fill(ctx)
		if err == nil {
			c.runs.Add(1)
		}
		return p, err
	})
}

// fillEntry resolves one memoizer-owned fill against the disk layer:
// serve from disk if published, otherwise win the cross-process claim
// (or wait out whichever process holds it, re-checking the store
// between backoffs) and run the fill exactly once fleet-wide.
func fillEntry[T any](ctx context.Context, c *Cache, key Key, kind codec[T], fill func(context.Context) (T, error)) (T, error) {
	var zero T
	if c.dir == "" {
		val, err := fill(ctx)
		if err != nil {
			return zero, err
		}
		c.misses.Add(1)
		return val, nil
	}
	// A missing entry file is a silent miss; one that fails verification
	// or decoding is a counted bad entry (and still a miss).
	load := func() (val T, ok bool) {
		raw, err := c.readEntry(key)
		if err == nil {
			val, err = kind.decode(raw)
		}
		switch {
		case err == nil:
			c.diskHits.Add(1)
			c.touchEntry(key)
			return val, true
		case !errors.Is(err, fs.ErrNotExist):
			c.badEntry(key)
		}
		return zero, false
	}
	var backoff time.Duration
	for {
		if val, ok := load(); ok {
			return val, nil
		}
		release, owned, err := c.acquireFill(ctx, key.ID(), &backoff)
		if err != nil {
			return zero, err
		}
		if !owned {
			continue // backed off; re-check whether the holder published
		}
		// Claim held. A fill may have been published between our load
		// and the claim (the previous holder releasing) — re-check
		// before paying for the run.
		if val, ok := load(); ok {
			release()
			return val, nil
		}
		val, err := fill(ctx)
		if err != nil {
			release()
			return zero, err
		}
		c.misses.Add(1)
		// A store failure is counted, never surfaced: the run already has
		// its result. The atomic publish happens before the claim drops.
		raw, err := kind.encode(val)
		if err == nil {
			err = c.publishEntry(key, raw)
		}
		if err != nil {
			c.storeErrors.Add(1)
		} else {
			c.stores.Add(1)
		}
		release()
		c.maybeEvict()
		return val, nil
	}
}

// Profile returns the analysis bundle for key, serving from the memoizer
// or the disk store when possible and otherwise running fill exactly
// once per key (single-flight, in-process and across processes):
// concurrent requests for the same key share the one fill. fill errors
// are returned, never cached. The bundle is detached before it is kept
// (which releases the records of the run fill returned); it is shared
// between requesters and must be treated as immutable.
func (c *Cache) Profile(ctx context.Context, key Key, lineSize int, fill func(context.Context) (*profiler.Profiler, error)) (*profiler.Analyses, error) {
	kind := codec[*profiler.Analyses]{
		encode: (*profiler.Analyses).MarshalJSON,
		decode: func(raw []byte) (*profiler.Analyses, error) {
			a := new(profiler.Analyses)
			return a, a.UnmarshalJSON(raw)
		},
	}
	return lookupEntry(ctx, c, key, kind, func(ctx context.Context) (*profiler.Analyses, error) {
		p, err := fill(ctx)
		if err != nil {
			return nil, err
		}
		a := p.Analyses(lineSize)
		a.Detach()
		return a, nil
	})
}

// Cycles is Profile for native cycle-model runs.
func (c *Cache) Cycles(ctx context.Context, key Key, fill func(context.Context) (CycleStats, error)) (CycleStats, error) {
	asJSON := codec[CycleStats]{
		encode: func(v CycleStats) ([]byte, error) { return json.Marshal(v) },
		decode: func(raw []byte) (v CycleStats, err error) { err = json.Unmarshal(raw, &v); return },
	}
	return lookupEntry(ctx, c, key, asJSON, fill)
}

// Bytes is Profile for opaque rendered entries: fill produces the final
// bytes (an encoded advisor report, a rendered debug view — anything
// whose key captures every determining input), and warm runs serve them
// without recomputing: the bytes are the payload. An empty result is a
// valid entry: some views render to nothing (a folded export whose
// weight is zero everywhere). The returned slice is shared between
// requesters and must be treated as immutable.
func (c *Cache) Bytes(ctx context.Context, key Key, fill func(context.Context) ([]byte, error)) ([]byte, error) {
	verbatim := codec[[]byte]{
		encode: func(b []byte) ([]byte, error) { return b, nil },
		decode: func(raw []byte) ([]byte, error) { return raw, nil },
	}
	return lookupEntry(ctx, c, key, verbatim, fill)
}
