package gpu

import "math/bits"

// coalesceLines appends to dst the unique cache-line base addresses
// touched by the active lanes of one warp memory instruction, in first-
// touch order — the behaviour of the coalescing unit that sits in front
// of L1. Accesses that straddle a line boundary contribute both lines.
// dst is returned to allow reuse of the caller's buffer. Lines are the
// cache's (addr >> lineShift), lineSize being a power of two.
func coalesceLines(dst []uint64, mask uint32, addrs *[WarpSize]uint64, size, lineSize int) []uint64 {
	dst = dst[:0]
	lineMask := ^uint64(0) << uint(bits.Len(uint(lineSize-1)))
	// lo and hi bound the lines collected so far. Lanes mostly touch the
	// line the previous lane did, or — strided and scattered accesses —
	// one beyond everything seen, so most lanes are settled by comparing
	// against the newest entry and the bounds; only the rest scan.
	lo, hi := ^uint64(0), uint64(0)
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		line := addrs[lane] & lineMask
		last := (addrs[lane] + uint64(size) - 1) & lineMask
		for {
			if n := len(dst); n == 0 || line != dst[n-1] {
				if (line > hi || line < lo) || !contains(dst, line) {
					dst = append(dst, line)
					lo, hi = min(lo, line), max(hi, line)
				}
			}
			if line == last {
				break
			}
			line = last
		}
	}
	return dst
}

func contains(lines []uint64, line uint64) bool {
	for _, l := range lines {
		if l == line {
			return true
		}
	}
	return false
}

// UniqueLines returns the number of unique cache lines touched by the
// masked addresses — the per-instruction memory-divergence quantity from
// Section 4.2(B) of the paper. Exported for the analyzer.
func UniqueLines(mask uint32, addrs *[WarpSize]uint64, size, lineSize int) int {
	var buf [2 * WarpSize]uint64
	return len(coalesceLines(buf[:0], mask, addrs, size, lineSize))
}
