package analysis

import "cudaadvisor/internal/runner"

// A per-instance derivation is a sum over its trace, so it runs as one
// loop over a share of the trace — a range of CTAs for the reuse walk, a
// range of records for the other analyses — and the shares' results
// merge exactly, in trace order, into what one loop over the whole trace
// gives. Given a pool with more than one worker and one of them idle, a
// trace big enough is cut into up to maxRanges shares that run through
// runner.Shards, the launch's non-blocking fan-out: a helper takes a
// share only while a slot is free and hands the slot back after it, and
// the caller runs whatever is left. A nil pool runs one share.

// maxRanges bounds the shares of one derivation.
const maxRanges = 8

// The fewest records a share holds, for the reuse walk and for the
// record loops: enough to be worth a goroutine, few enough that a helper
// returns its slot soon. Only a test lowers them.
var walkRangeMin, recordRangeMin = 16 << 10, 32 << 10

// shares is how many ranges n records split into under pool.
func shares(pool *runner.Pool, n, least int) int {
	if pool.Workers() < 2 || !pool.Idle() {
		return 1
	}
	return max(1, min(maxRanges, n/least))
}

// recordBounds cuts [0, n) records into equal ranges: range i is
// [b[i], b[i+1]).
func recordBounds(pool *runner.Pool, n int) []int {
	parts := shares(pool, n, recordRangeMin)
	b := make([]int, parts+1)
	for i := range b {
		b[i] = i * n / parts
	}
	return b
}

// ctaBounds cuts the CTA groups of a trace into contiguous ranges of
// about equal record count: range i is ctas[b[i]:b[i+1]].
func ctaBounds(pool *runner.Pool, ctas [][]int32) []int {
	total := 0
	for _, records := range ctas {
		total += len(records)
	}
	parts := shares(pool, total, walkRangeMin)
	if parts == 1 {
		return []int{0, len(ctas)}
	}
	size, b, run := (total+parts-1)/parts, []int{0}, 0
	for c := 0; c+1 < len(ctas); c++ {
		if run += len(ctas[c]); run >= size {
			b, run = append(b, c+1), 0
		}
	}
	return append(b, len(ctas))
}

// fanOut derives one result per range of bounds on pool and merges them
// in range order into the first, which it returns.
func fanOut[R any](pool *runner.Pool, bounds []int, derive func(lo, hi int) R, merge func(into, r R)) R {
	out := make([]R, len(bounds)-1)
	runner.Shards(pool, len(out), func(i int) { out[i] = derive(bounds[i], bounds[i+1]) })
	for _, r := range out[1:] {
		merge(out[0], r)
	}
	return out[0]
}
