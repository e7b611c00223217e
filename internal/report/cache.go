package report

import (
	"fmt"
	"io"

	"cudaadvisor/internal/profcache"
)

// CacheStats renders the opt-in (-cache-stats) summary of the profile
// cache's effectiveness on two lines: the entry counters, then the run
// slot's (simulations performed, lookups another request's simulation
// served). The CLI writes it to stderr so that stdout stays
// byte-identical to an uncached run. The counts are deterministic for a
// fixed command and cache state at every worker count: single-flight
// makes the fills equal the unique keys not already on disk. A nil cache
// reports "off". Evictions and heals are janitorial, counted apart from
// misses and appended last, so scripts matching the hit/miss prefix keep
// working and a warm run under a size budget can show "0 misses, … 2
// evictions".
func CacheStats(w io.Writer, c *profcache.Cache) {
	if c == nil {
		fmt.Fprintln(w, "cache: off")
		return
	}
	s := c.Stats()
	fmt.Fprintf(w, "cache: %d requests, %d memo hits, %d disk hits, %d misses, %d bad entries, %d stores, %d store errors, %d evictions, %d heals\n",
		s.Requests(), s.MemoHits, s.DiskHits, s.Misses, s.BadEntries, s.Stores, s.StoreErrors, s.Evictions, s.Heals)
	fmt.Fprintf(w, "cache runs: %d simulated, %d shared\n", s.Runs, s.RunShares)
}
