package analysis

import (
	"sort"

	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/runner"
	"cudaadvisor/internal/trace"
)

// BranchDivResult is the control-flow profile of Section 4.2(C): how many
// dynamic basic-block executions were divergent — executed by a warp with
// only a subset of its live threads active (Table 3's "# divergent
// blocks" over "# total blocks").
type BranchDivResult struct {
	Divergent int64
	Total     int64

	Events // the trace's block-event coverage

	blocks    map[int32]*BlockDivergence
	divergent map[ContextSite]int64
}

// DivergentByContext is Divergent spread over the leaves of the
// calling-context tree: divergent executions per (context, location).
// It comes from a trace only; a cache entry does not carry it.
func (r *BranchDivResult) DivergentByContext() map[ContextSite]int64 { return r.divergent }

// BlockDivergence aggregates per static basic block: how many times the
// block executed and how often it diverged — the per-branch insight the
// paper describes ("how many times a branch is executed ... and how often
// a certain branch causes a warp to diverge").
type BlockDivergence struct {
	Block     instrument.BlockInfo
	ID        int32
	Execs     int64 // dynamic warp-level executions
	Divergent int64
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
	r.Add(other.EventsRecorded, other.EventsSeen)
	r.divergent = mergeSums(r.divergent, other.divergent)
	mergeTable(&r.blocks, other.blocks, func(cur, b *BlockDivergence) {
		cur.Execs += b.Execs
		cur.Divergent += b.Divergent
	})
}

// BranchDivergence computes the block-divergence profile of a kernel
// trace. tables resolves block ids to names; it may be nil.
func BranchDivergence(tr *trace.KernelTrace, tables *instrument.Tables) *BranchDivResult {
	return BranchDivergenceOn(tr, tables, nil)
}

// BranchDivergenceOn is BranchDivergence with the trace's block-record
// ranges derived on pool (see fanOut). Ranges merge in trace order, so a
// block's Loc is that of its first execution in the trace.
func BranchDivergenceOn(tr *trace.KernelTrace, tables *instrument.Tables, pool *runner.Pool) *BranchDivResult {
	res := fanOut(pool, recordBounds(pool, len(tr.Blocks)), func(lo, hi int) *BranchDivResult { return branchDivRange(tr, tables, lo, hi) }, (*BranchDivResult).Merge)
	res.Add(tr.BlocksCoverage())
	return res
}

// branchDivRange is the profile of the block records [lo, hi) of tr.
func branchDivRange(tr *trace.KernelTrace, tables *instrument.Tables, lo, hi int) *BranchDivResult {
	res := &BranchDivResult{blocks: make(map[int32]*BlockDivergence), divergent: make(map[ContextSite]int64)}
	for i := lo; i < hi; i++ {
		be := &tr.Blocks[i]
		res.Total++
		div := be.Divergent()
		if div {
			res.Divergent++
			res.divergent[ContextSite{be.Ctx, tr.Locs.Loc(be.Loc)}]++
		}
		b := res.blocks[be.Block]
		if b == nil {
			b = &BlockDivergence{ID: be.Block, Loc: tr.Locs.Loc(be.Loc)}
			if tables != nil {
				b.Block = tables.Block(be.Block)
			}
			res.blocks[be.Block] = b
		}
		b.Execs++
		if div {
			b.Divergent++
		}
	}
	return res
}
