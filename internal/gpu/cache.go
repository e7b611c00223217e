package gpu

// l1cache is a set-associative data cache with LRU replacement and the
// GPU L1 policy the paper's reuse-distance definition assumes:
// write-no-allocate, write-evict (a store invalidates the line and writes
// through, so the next read of that address misses).
type l1cache struct {
	sets      int
	assoc     int
	lineShift uint
	setMask   uint64 // sets-1 when sets is a power of two above 1, else 0

	ways  []l1way // ways[set*assoc+way]
	stamp int64

	// CacheStats counters.
	stats CacheStats
}

// l1way is one cache way; a set's ways are contiguous.
type l1way struct {
	tag uint64 // line+1; 0 marks an invalid way
	lru int64  // recency stamp; larger = more recent
}

// CacheStats summarizes L1 behaviour for a launch.
type CacheStats struct {
	Accesses int64 // L1 lookups (read transactions through the cache)
	Hits     int64
	Misses   int64
	Bypassed int64 // read transactions that skipped L1
	Writes   int64 // write transactions (write-through, never allocate)
}

// HitRate returns hits/accesses, or 0 when there were no accesses.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

func newL1(cfg ArchConfig) *l1cache {
	sets := cfg.L1Sets()
	if sets < 1 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < cfg.L1LineSize {
		shift++
	}
	n := sets * cfg.L1Assoc
	mask := uint64(0)
	if sets&(sets-1) == 0 {
		mask = uint64(sets - 1)
	}
	return &l1cache{
		sets:      sets,
		assoc:     cfg.L1Assoc,
		lineShift: shift,
		setMask:   mask,
		ways:      make([]l1way, n),
	}
}

func (c *l1cache) lineOf(addr uint64) uint64 { return addr >> c.lineShift }

// setOf returns the ways of line's set, masking instead of dividing when
// the set count allows.
func (c *l1cache) setOf(line uint64) []l1way {
	set := line & c.setMask
	if c.setMask == 0 {
		set = line % uint64(c.sets)
	}
	return c.ways[int(set)*c.assoc:][:c.assoc]
}

// read performs a read lookup for the line containing addr, allocating on
// miss. It reports whether the access hit.
func (c *l1cache) read(addr uint64) bool {
	c.stats.Accesses++
	line := c.lineOf(addr)
	set, tag := c.setOf(line), line+1
	c.stamp++
	for w := range set {
		if set[w].tag == tag {
			set[w].lru = c.stamp
			c.stats.Hits++
			return true
		}
	}
	// Miss: allocate into way 0, the first invalid way after it, or
	// else the least recently used way.
	c.stats.Misses++
	victim := 0
	for w := 1; w < len(set); w++ {
		if set[w].tag == 0 {
			victim = w
			break
		}
		if set[w].lru < set[victim].lru {
			victim = w
		}
	}
	set[victim] = l1way{tag: tag, lru: c.stamp}
	return false
}

// write performs a write-through, write-evict store transaction: the line
// is invalidated if present and never allocated.
func (c *l1cache) write(addr uint64) {
	c.stats.Writes++
	line := c.lineOf(addr)
	set := c.setOf(line)
	for w := range set {
		if set[w].tag == line+1 {
			set[w].tag = 0 // the stamp stays: victim choice still reads it
			return
		}
	}
}

// bypass records a read transaction that skipped the cache.
func (c *l1cache) bypass() { c.stats.Bypassed++ }

// mshr models the SM's miss-status holding registers as a bounded FIFO of
// outstanding-miss completion times. Because the per-SM scheduler always
// runs the minimum-ready warp, allocation times are non-decreasing and a
// FIFO suffices.
type mshr struct {
	completions []int64 // ring buffer
	head, tail  int
	n, cap      int
}

func newMSHR(capacity int) *mshr {
	if capacity < 1 {
		capacity = 1
	}
	return &mshr{completions: make([]int64, capacity), cap: capacity}
}

// alloc reserves an entry for a miss issued at time now that completes at
// now+latency (after any stall for a free entry). It returns the
// completion time of the new miss.
func (m *mshr) alloc(now int64, latency int64) int64 {
	// Retire completed entries.
	for m.n > 0 && m.completions[m.head] <= now {
		m.head, m.n = m.next(m.head), m.n-1
	}
	start := now
	if m.n == m.cap {
		// Stall until the oldest outstanding miss retires.
		start = m.completions[m.head]
		m.head, m.n = m.next(m.head), m.n-1
	}
	done := start + latency
	m.completions[m.tail] = done
	m.tail, m.n = m.next(m.tail), m.n+1
	return done
}

// next is ring index i+1, wrapped by compare-and-reset instead of %.
func (m *mshr) next(i int) int {
	if i++; i == m.cap {
		return 0
	}
	return i
}
