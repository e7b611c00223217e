package profcache

import (
	"time"

	"cudaadvisor/internal/profiler"
)

// SetClaimTTL overrides the stale-claim bound, so that dead-writer
// takeover is fast in a test; the default is generous enough that a
// heavily loaded heartbeat cannot be mistaken for a corpse.
func (c *Cache) SetClaimTTL(d time.Duration) { c.ttl = d }

// EntryPath is the store file of key.
func (c *Cache) EntryPath(key Key) string { return c.entryPath(key) }

// PublishEntry writes payload as key's entry, in a valid envelope.
func (c *Cache) PublishEntry(key Key, payload []byte) error { return c.publishEntry(key, payload) }

// EncodeProfile is the payload of a "profile" entry holding a (encoding
// does not read the line size).
func EncodeProfile(a *profiler.Analyses) ([]byte, error) { return profileCodec(0).encode(a) }

// EncodeCycles is the payload of a "cycles" entry holding v.
func EncodeCycles(v CycleStats) ([]byte, error) { return fixed[CycleStats]().encode(v) }
