package profcache

import "time"

// SetClaimTTL overrides the stale-claim bound, so that dead-writer
// takeover is fast in a test; the default is generous enough that a
// heavily loaded heartbeat cannot be mistaken for a corpse.
func (c *Cache) SetClaimTTL(d time.Duration) { c.ttl = d }
