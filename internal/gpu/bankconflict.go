package gpu

import "cudaadvisor/internal/ir"

// Shared-memory bank geometry: 32 banks of 4-byte words, the Kepler and
// Pascal default mode. The bank pattern repeats every NumBanks*BankWidth
// = 128 bytes.
const (
	NumBanks  = 32
	BankWidth = 4
)

// SharedRaceSite reports one shared-memory load site at which the
// per-barrier-interval last-writer check observed reads of words written
// by a different thread of the same CTA since the previous barrier.
// Count is the number of offending lane reads over the whole launch.
type SharedRaceSite struct {
	Loc   ir.Loc
	Count int64
}

// BankConflictDegree returns the bank-conflict degree of one warp
// shared-memory access: the maximum, over the 32 banks, of the number of
// distinct 4-byte words the active lanes address in that bank. Lanes
// hitting the same word broadcast-merge and cost nothing extra; the
// hardware replays the access degree-1 additional times. The degree is
// always in [1, 32], even for an all-inactive mask. Exported for the
// trace analysis and the static advisor, which both count with it.
func BankConflictDegree(mask uint32, addrs *[WarpSize]uint64, size int) int {
	if size < 1 {
		size = 1
	}
	var words [NumBanks][WarpSize]uint64
	var n [NumBanks]int
	deg := 1
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		a := addrs[lane]
		first := a / BankWidth
		last := (a + uint64(size) - 1) / BankWidth
		for w := first; w <= last; w++ {
			b := w % NumBanks
			dup := false
			for i := 0; i < n[b]; i++ {
				if words[b][i] == w {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if n[b] < WarpSize {
				words[b][n[b]] = w
				n[b]++
				if n[b] > deg {
					deg = n[b]
				}
			}
		}
	}
	if deg > NumBanks {
		deg = NumBanks
	}
	return deg
}
