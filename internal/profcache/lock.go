// Cross-process fill coordination. Processes sharing one cache
// directory must agree that each key is filled exactly once: N fleet
// members asked for the same cold cell should run one simulation, not
// N. The protocol is a claim file per key, created with O_CREATE|O_EXCL
// (atomic on every filesystem Go targets):
//
//   - the process that wins the create owns the fill. While it works it
//     heartbeats the claim's mtime so observers can tell a live fill
//     from a dead one; when the entry is published (atomic temp+rename)
//     or the fill fails, it removes the claim.
//   - every other process backs off exponentially, re-checking for the
//     published entry between sleeps. It never waits on the claim
//     itself — the entry appearing is the only success signal, so a
//     claim removed without an entry (failed fill) simply lets the next
//     checker claim and retry.
//   - a claim whose mtime is older than the staleness bound is a dead
//     writer (killed mid-fill — the one crash mode the atomic publish
//     cannot clean up after). Any observer may take it over: remove the
//     stale claim and race for a fresh O_EXCL create. Losers of that
//     race go back to waiting, so takeover never yields two owners.
//
// A writer killed mid-fill therefore leaves only a reclaimable claim
// (and possibly an orphaned .tmp- file, swept by the evictor), never a
// truncated entry: the published-entry invariant is the rename's.
package profcache

import (
	"context"
	"fmt"
	"os"
	"time"
)

// Claim timing defaults. ClaimTTL must comfortably exceed the heartbeat
// interval, not the fill duration — a live owner refreshes the claim
// every claimTTL/4, so only a dead owner's claim ever goes stale.
const (
	defaultClaimTTL = 10 * time.Second
	claimBackoffMin = time.Millisecond
	claimBackoffMax = 100 * time.Millisecond
)

// claimTTL returns the staleness bound for claim files.
func (c *Cache) claimTTL() time.Duration {
	if c.ttl > 0 {
		return c.ttl
	}
	return defaultClaimTTL
}

// claimPath returns the claim file for a key id.
func (c *Cache) claimPath(id string) string { return c.dir + string(os.PathSeparator) + id + ".claim" }

// tryClaim attempts the O_EXCL create. On success it starts the
// heartbeat and returns a release function (idempotent) that stops the
// heartbeat and removes the claim.
func (c *Cache) tryClaim(id string) (release func(), ok bool) {
	if err := os.MkdirAll(c.dir, 0o777); err != nil {
		return nil, false
	}
	path := c.claimPath(id)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
	if err != nil {
		return nil, false
	}
	fmt.Fprintf(f, "pid %d\n", os.Getpid())
	f.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(c.claimTTL() / 4)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				now := time.Now()
				// Best effort: a failed touch only risks a spurious
				// takeover, which the O_EXCL race resolves safely.
				_ = os.Chtimes(path, now, now)
			}
		}
	}()
	var once bool
	return func() {
		if once {
			return
		}
		once = true
		close(stop)
		<-done
		_ = os.Remove(path)
	}, true
}

// claimStale reports whether the claim for id exists and has not been
// heartbeated within the TTL. A missing claim is not stale — it is
// gone, which callers detect by retrying tryClaim.
func (c *Cache) claimStale(id string) bool {
	fi, err := os.Stat(c.claimPath(id))
	if err != nil {
		return false
	}
	return time.Since(fi.ModTime()) > c.claimTTL()
}

// acquireFill coordinates one disk fill for id across processes:
// it returns (release, true, nil) when this process owns the fill,
// (nil, false, nil) when another process owns it and the caller should
// re-check the store for the published entry, and an error only when
// ctx ends. Between failed attempts it sleeps the caller-threaded
// backoff (exponential, capped), so a fleet of waiters polls gently.
func (c *Cache) acquireFill(ctx context.Context, id string, backoff *time.Duration) (release func(), owned bool, err error) {
	if rel, ok := c.tryClaim(id); ok {
		return rel, true, nil
	}
	if c.claimStale(id) {
		// Dead writer: remove the stale claim and race for a fresh one.
		// Several observers may remove and race concurrently; O_EXCL
		// picks exactly one winner and the rest return to waiting.
		_ = os.Remove(c.claimPath(id))
		c.takeovers.Add(1)
		if rel, ok := c.tryClaim(id); ok {
			return rel, true, nil
		}
	}
	if *backoff < claimBackoffMin {
		*backoff = claimBackoffMin
	}
	t := time.NewTimer(*backoff)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, false, ctx.Err()
	case <-t.C:
	}
	if *backoff *= 2; *backoff > claimBackoffMax {
		*backoff = claimBackoffMax
	}
	return nil, false, nil
}
