package profcache_test

import (
	"bytes"
	"context"
	"os"
	"testing"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/profiler"
)

// entryKind is one kind of cache entry driven through its lookup: get
// looks key up in c with a fill that sets *filled, and returns the
// value's encoding.
type entryKind struct {
	key profcache.Key
	get func(c *profcache.Cache, filled *bool) ([]byte, error)
}

func fuzzKinds() []entryKind {
	app, cfg := apps.ByName("bfs"), gpu.KeplerK40c()
	ctx := context.Background()
	profile := profcache.ProfileKey(app, cfg, bothOpts, 1, 0)
	cycles := profcache.CyclesKey(app, cfg, instrument.Options{}, 0, 1, 0)
	view := profcache.ViewKey(app, cfg, bothOpts, 1, 0, "fuzz")
	over := profcache.CyclesKey(app, cfg, instrument.Options{}, 3, 1, 1000)
	cyclesKind := func(key profcache.Key, v profcache.CycleStats) entryKind {
		return entryKind{key, func(c *profcache.Cache, filled *bool) ([]byte, error) {
			got, err := c.Cycles(ctx, key, func(context.Context) (profcache.CycleStats, error) {
				*filled = true
				return v, nil
			})
			if err != nil {
				return nil, err
			}
			return profcache.EncodeCycles(got)
		}}
	}
	return []entryKind{
		{profile, func(c *profcache.Cache, filled *bool) ([]byte, error) {
			a, err := c.Profile(ctx, profile, 128, func(context.Context) (*profiler.Profiler, error) {
				*filled = true
				return profiler.New(), nil
			})
			if err != nil {
				return nil, err
			}
			return profcache.EncodeProfile(a)
		}},
		cyclesKind(cycles, profcache.CycleStats{Cycles: 7, MaxCTAs: 3}),
		{view, func(c *profcache.Cache, filled *bool) ([]byte, error) {
			return c.Bytes(ctx, view, func(context.Context) ([]byte, error) {
				*filled = true
				return []byte("fresh view\n"), nil
			})
		}},
		cyclesKind(over, profcache.CycleStats{Cycles: 1001}),
	}
}

// TestNonCanonicalEntriesAreBad: a checksummed payload that is not one
// of its kind's fixed-width values — one byte short, one byte long, or
// the value's old JSON form — is a bad entry, healed and refilled, never
// a disk hit.
func TestNonCanonicalEntriesAreBad(t *testing.T) {
	// Each kind's payload for fuzzKinds' values in the JSON form entries
	// had before the fixed-width layouts.
	oldJSON := map[string]string{
		"profile": `{"LineSize":128,` +
			`"ReuseElem":{"Buckets":[0,0,0,0,0,0,0,0],"Samples":0,"Infinite":0,"FiniteSum":0,"FiniteN":0,"Streaming":0,"EventsRecorded":0,"EventsSeen":0},` +
			`"ReuseLine":{"Buckets":[0,0,0,0,0,0,0,0],"Samples":0,"Infinite":0,"FiniteSum":0,"FiniteN":0,"Streaming":0,"EventsRecorded":0,"EventsSeen":0},` +
			`"MemDiv":{"LineSize":128,"Total":0,"WeightedSum":0,"EventsRecorded":0,"EventsSeen":0,` +
			`"Dist":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"Sites":[]},` +
			`"BranchDiv":{"Divergent":0,"Total":0,"EventsRecorded":0,"EventsSeen":0,"Blocks":[]}}`,
		"cycles": `{"Cycles":7,"MaxCTAs":3}`,
	}
	for _, kind := range fuzzKinds()[:2] {
		var filled bool
		canon, err := kind.get(profcache.New(t.TempDir()), &filled)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name    string
			payload []byte
		}{
			{"one byte short", canon[:len(canon)-1]},
			{"one byte long", append(append([]byte(nil), canon...), 0)},
			{"old JSON", []byte(oldJSON[kind.key.Kind])},
		} {
			c := profcache.New(t.TempDir())
			if err := c.PublishEntry(kind.key, tc.payload); err != nil {
				t.Fatal(err)
			}
			var filled bool
			if _, err := kind.get(c, &filled); err != nil {
				t.Fatal(err)
			}
			if s := c.Stats(); !filled || s.BadEntries != 1 || s.Heals != 1 || s.Misses != 1 || s.DiskHits != 0 {
				t.Errorf("%s entry, %s: filled %v, stats %+v; want 1 bad entry, 1 heal and 1 miss",
					kind.key.Kind, tc.name, filled, s)
			}
		}
	}
}

// FuzzDecodeEntry writes fuzzed bytes as the entry file of a profile,
// two cycles and a view key, and wraps a fuzzed payload in a valid envelope
// for each. Every lookup must be either a miss that runs the fill, or a
// disk hit whose value encodes byte for byte to the payload the file
// carries (a hit is canonical by construction). It never panics. The
// seeds are a valid entry of each kind and its payload, one of them a
// cycles entry recording a run stopped over its bound.
func FuzzDecodeEntry(f *testing.F) {
	kinds := fuzzKinds()
	dir := f.TempDir()
	seed := profcache.New(dir)
	for _, k := range kinds {
		var filled bool
		payload, err := k.get(seed, &filled)
		if err != nil {
			f.Fatal(err)
		}
		file, err := os.ReadFile(seed.EntryPath(k.key))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file, payload)
	}
	f.Add([]byte("cudaadvisor-profcache 00\n"), []byte("null"))
	f.Fuzz(func(t *testing.T, file, payload []byte) {
		dir := t.TempDir()
		for _, k := range kinds {
			for _, wrap := range []bool{false, true} {
				// A fresh memoizer over the one directory: each lookup
				// starts from the entry file written just before it.
				c := profcache.New(dir)
				carried := payload
				if wrap {
					if err := c.PublishEntry(k.key, payload); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := os.WriteFile(c.EntryPath(k.key), file, 0o644); err != nil {
						t.Fatal(err)
					}
					// What a valid file would carry after its header and key lines.
					_, rest, _ := bytes.Cut(file, []byte("\n"))
					_, carried, _ = bytes.Cut(rest, []byte("\n"))
				}
				var filled bool
				got, err := k.get(c, &filled)
				if err != nil {
					t.Fatalf("%s lookup (wrapped %v): %v", k.key.Kind, wrap, err)
				}
				s := c.Stats()
				if filled {
					if s.Misses != 1 || s.DiskHits != 0 {
						t.Fatalf("%s lookup ran the fill but counted %+v", k.key.Kind, s)
					}
					continue
				}
				if s.DiskHits != 1 || s.Misses != 0 {
					t.Fatalf("%s lookup neither filled nor hit: %+v", k.key.Kind, s)
				}
				if !bytes.Equal(got, carried) {
					t.Fatalf("%s hit (wrapped %v) returned %q, want the payload %q", k.key.Kind, wrap, got, carried)
				}
			}
		}
	})
}
