// Package gpu implements the SIMT execution substrate the reproduction
// runs kernels on: a functional interpreter for the miniature IR with the
// grid/CTA/warp/thread hierarchy, IPDOM reconvergence-stack divergence
// handling, a per-warp coalescing unit, a set-associative write-evict L1
// data cache with MSHRs, shared memory with CTA barriers, and an
// approximate warp-interleaved timing model.
//
// The paper runs on real Kepler (Tesla K40c) and Pascal (Tesla P100)
// GPUs; this simulator is the substitution documented in DESIGN.md. All
// functional quantities the profiler consumes (effective addresses,
// coalesced cache lines, per-warp active masks, per-CTA access order) are
// exact; cycle counts are a model, used only where the paper itself needs
// only relative shape (cache-bypassing speedups, overhead ratios).
package gpu

// WarpSize is the number of threads per warp, fixed at 32 as on all
// NVIDIA architectures the paper targets.
const WarpSize = 32

// FullMask is the active mask with all lanes live.
const FullMask = uint32(0xFFFFFFFF)

// ArchConfig describes a simulated GPU architecture.
type ArchConfig struct {
	Name string

	SMs           int // streaming multiprocessors
	MaxCTAsPerSM  int // resident CTA limit per SM
	MaxWarpsPerSM int

	// L1 data cache geometry.
	L1Bytes    int // capacity in bytes
	L1LineSize int // bytes per line (128 on Kepler, 32 on Pascal)
	L1Assoc    int // ways

	// MSHRs: maximum outstanding L1 misses per SM. Bypassed reads share
	// this one FIFO (they consume the same LSU resources on their way to
	// L2), so bypassing never wins by queueing alone — only by
	// preserving L1 hits for the warps that keep using it.
	MSHRs int

	// Latencies in cycles.
	IssueCost int // per-instruction issue
	L1HitLat  int
	MissLat   int // L1 miss to DRAM and back
	BypassLat int // global access that skips L1
	SharedLat int
	AtomLat   int // per-lane serialized atomic cost
	HookCost  int // per instrumentation hook call (atomics + buffer store)

	// L1FillOcc is the L1 port occupancy of a miss, cycles per
	// transaction: the fill path is held that long, while a hit holds
	// the port for no cycle. Bypassed accesses skip the L1 port entirely
	// — the bandwidth relief that makes bypassing pay off on thrashing
	// kernels and the reason the benefit fades once the working set fits
	// (Figures 6/7).
	L1FillOcc int

	SharedMemPerBlock int64 // shared memory available to one CTA

	// SharedMemPerSM is the SM's total shared-memory capacity: CTAs
	// using large shared arrays limit residency the same way the CTA and
	// warp limits do (occupancy = min of all three). 0 disables the
	// shared-memory occupancy limit (pre-existing configs).
	SharedMemPerSM int64
}

// L1Sets returns the number of cache sets.
func (c ArchConfig) L1Sets() int { return c.L1Bytes / (c.L1LineSize * c.L1Assoc) }

// KeplerK40c returns the Kepler configuration from Table 1 of the paper:
// Tesla K40c, compute capability 3.5, 128-byte L1 lines. The L1 size is
// configurable on Kepler (16/32/48 KB shares on-chip storage with shared
// memory); pass the desired split to WithL1.
func KeplerK40c() ArchConfig {
	return ArchConfig{
		Name:              "kepler-k40c",
		SMs:               15,
		MaxCTAsPerSM:      4,
		MaxWarpsPerSM:     64,
		L1Bytes:           16 * 1024,
		L1LineSize:        128,
		L1Assoc:           4,
		MSHRs:             128,
		IssueCost:         2,
		L1HitLat:          32,
		MissLat:           350,
		BypassLat:         350,
		SharedLat:         26,
		AtomLat:           48,
		HookCost:          40,
		L1FillOcc:         6,
		SharedMemPerBlock: 48 * 1024,
		// Table 1: K40c pairs a 16 KB L1 with a 48 KB shared-memory
		// share of the 64 KB on-chip split.
		SharedMemPerSM: 48 * 1024,
	}
}

// PascalP100 returns the Pascal configuration from Table 1: Tesla P100,
// compute capability 6.0, 24 KB unified L1/texture cache with 32-byte
// lines. The unified cache sits in the TPC rather than the SM, which the
// paper notes makes bypassing cheaper; modeled with a lower bypass
// latency relative to miss latency.
func PascalP100() ArchConfig {
	return ArchConfig{
		Name:              "pascal-p100",
		SMs:               56,
		MaxCTAsPerSM:      4,
		MaxWarpsPerSM:     64,
		L1Bytes:           24 * 1024,
		L1LineSize:        32,
		L1Assoc:           6,
		MSHRs:             160,
		IssueCost:         2,
		L1HitLat:          28,
		MissLat:           320,
		BypassLat:         320,
		SharedLat:         24,
		AtomLat:           40,
		HookCost:          40,
		L1FillOcc:         6,
		SharedMemPerBlock: 64 * 1024,
		// Table 1: P100 has a dedicated 64 KB shared memory per SM,
		// separate from the unified L1/texture cache.
		SharedMemPerSM: 64 * 1024,
	}
}

// WithL1 returns a copy of the configuration with the L1 capacity set to
// bytes (e.g. the 16/48 KB Kepler splits the paper evaluates).
func (c ArchConfig) WithL1(bytes int) ArchConfig {
	c.L1Bytes = bytes
	return c
}
