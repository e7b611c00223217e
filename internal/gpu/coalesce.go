package gpu

import "math/bits"

// coalesceLines appends to dst the unique cache-line base addresses
// touched by the active lanes of one warp memory instruction, in first-
// touch order — the behaviour of the coalescing unit that sits in front
// of L1. Accesses that straddle a line boundary contribute both lines.
// dst is returned to allow reuse of the caller's buffer. Lines are the
// cache's (addr >> lineShift), lineSize being a power of two.
func coalesceLines(dst []uint64, mask uint32, addrs *[WarpSize]uint64, size, lineSize int) []uint64 {
	stride, affine := rowStride(mask, addrs)
	return coalesceRow(dst, mask, addrs, size, lineSize, stride, affine)
}

// coalesceRow is coalesceLines for a row whose rowStride is known: the
// lines of an affine row come from arithmetic where they can, and the
// rest from the lane walk.
func coalesceRow(dst []uint64, mask uint32, addrs *row, size, lineSize int, stride int64, affine bool) []uint64 {
	if affine {
		if lines, ok := strideLines(dst, addrs[0], stride, size, lineSize); ok {
			return lines
		}
	}
	return laneLines(dst, mask, addrs, size, lineSize)
}

// rowStride returns d when mask is full and every lane addresses
// addrs[0] + lane·d, d ≥ 0, without wrapping around the address space:
// no lane lies below the one before. One scan of the lane differences
// decides it. A row at a negative stride is left to the lane walk: none
// of the ten apps issues one.
func rowStride(mask uint32, addrs *row) (d int64, affine bool) {
	if mask != FullMask {
		return 0, false
	}
	step := addrs[1] - addrs[0]
	for l := 2; l < WarpSize; l++ {
		if addrs[l]-addrs[l-1] != step {
			return 0, false
		}
	}
	if step > ^uint64(0)/(WarpSize-1) || addrs[WarpSize-1] < addrs[0] {
		return 0, false
	}
	return int64(step), true
}

// strideLines appends the lines of a row rowStride accepted, a0 +
// lane·d, in the lane walk's first-touch order, when arithmetic gives
// them: a uniform row touches the line of its address and of its last
// byte; a row whose stride and width are at most a line touches every
// line from the first lane's up to the last lane's last byte's; and
// under a stride at least as wide as an access no lane touches a line
// below the lane before's, so each lane's lines are new unless they are
// the newest. It reports false for any other row, and for one whose
// last byte wraps.
func strideLines(dst []uint64, a0 uint64, d int64, size, lineSize int) ([]uint64, bool) {
	ls, n := uint64(lineSize), uint64(size)
	line, top := a0&^(ls-1), (a0+n-1)&^(ls-1)
	end := a0 + uint64(d)*(WarpSize-1) + n - 1 // the last lane's last byte
	if top < line || end < a0 {
		return dst[:0], false
	}
	dst = append(dst[:0], line)
	if top != line {
		dst = append(dst, top)
	}
	switch {
	case d == 0:
	case d <= int64(lineSize) && size <= lineSize:
		for l, last := top, end&^(ls-1); l != last; {
			l += ls
			dst = append(dst, l)
		}
	case d >= int64(size):
		for a, lane := a0, 1; lane < WarpSize; lane++ {
			a += uint64(d)
			if l := a &^ (ls - 1); l != dst[len(dst)-1] {
				dst = append(dst, l)
			}
			if l := (a + n - 1) &^ (ls - 1); l != dst[len(dst)-1] {
				dst = append(dst, l)
			}
		}
	default:
		return dst[:0], false
	}
	return dst, true
}

// laneLines is the lane walk behind coalesceLines.
func laneLines(dst []uint64, mask uint32, addrs *row, size, lineSize int) []uint64 {
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
