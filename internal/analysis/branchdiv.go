package analysis

import (
	"math/bits"
	"sort"

	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/trace"
)

// BranchDivResult is the control-flow profile of Section 4.2(C): how many
// dynamic basic-block executions were divergent — executed by a warp with
// only a subset of its live threads active (Table 3's "# divergent
// blocks" over "# total blocks").
type BranchDivResult struct {
	Divergent int64
	Total     int64

	// EventsRecorded/EventsSeen carry the trace's block-event coverage
	// (see ReuseResult): Recorded < Seen means a sampled, partial profile.
	EventsRecorded int64
	EventsSeen     int64

	blocks map[int32]*BlockDivergence
}

// Partial reports whether the underlying trace dropped events.
func (r *BranchDivResult) Partial() bool { return r.EventsSeen > r.EventsRecorded }

// Coverage returns the recorded share of seen events (1 when complete).
func (r *BranchDivResult) Coverage() float64 {
	if !r.Partial() {
		return 1
	}
	return float64(r.EventsRecorded) / float64(r.EventsSeen)
}

// BlockDivergence aggregates per static basic block: how many times the
// block executed, how often it diverged, and how many threads executed it
// — the per-branch insight the paper describes ("how many times a branch
// is executed, how many threads execute this branch and how often a
// certain branch causes a warp to diverge").
type BlockDivergence struct {
	Block     instrument.BlockInfo
	ID        int32
	Execs     int64 // dynamic warp-level executions
	Divergent int64
	Threads   int64 // total threads that entered
	Ctx       int32 // representative calling context
	Loc       ir.Loc
}

// Percent returns the application-level divergence percentage of Table 3.
func (r *BranchDivResult) Percent() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Divergent) / float64(r.Total)
}

// Blocks returns per-block aggregates, highest divergence rate first.
func (r *BranchDivResult) Blocks() []*BlockDivergence {
	out := make([]*BlockDivergence, 0, len(r.blocks))
	for _, b := range r.blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Divergent != out[j].Divergent {
			return out[i].Divergent > out[j].Divergent
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Merge accumulates other into r.
func (r *BranchDivResult) Merge(other *BranchDivResult) {
	r.Divergent += other.Divergent
	r.Total += other.Total
	r.EventsRecorded += other.EventsRecorded
	r.EventsSeen += other.EventsSeen
	if r.blocks == nil {
		r.blocks = make(map[int32]*BlockDivergence)
	}
	for id, b := range other.blocks {
		if cur, ok := r.blocks[id]; ok {
			cur.Execs += b.Execs
			cur.Divergent += b.Divergent
			cur.Threads += b.Threads
		} else {
			cp := *b
			r.blocks[id] = &cp
		}
	}
}

// BranchDivergence computes the block-divergence profile of a kernel
// trace. tables resolves block ids to names; it may be nil.
func BranchDivergence(tr *trace.KernelTrace, tables *instrument.Tables) *BranchDivResult {
	res := &BranchDivResult{blocks: make(map[int32]*BlockDivergence)}
	res.EventsRecorded, res.EventsSeen = tr.BlocksCoverage()
	for i := range tr.Blocks {
		be := &tr.Blocks[i]
		res.Total++
		div := be.Divergent()
		if div {
			res.Divergent++
		}
		b := res.blocks[be.Block]
		if b == nil {
			b = &BlockDivergence{ID: be.Block, Ctx: be.Ctx, Loc: tr.Locs.Loc(be.Loc)}
			if tables != nil {
				b.Block = tables.Block(be.Block)
			}
			res.blocks[be.Block] = b
		}
		b.Execs++
		b.Threads += int64(bits.OnesCount32(be.Mask))
		if div {
			b.Divergent++
		}
	}
	return res
}
