package analysis

import "cudaadvisor/internal/ir"

// ContextSite is a leaf of a run's calling-context tree: a source
// location reached through the context with id Ctx (kept as recorded,
// so an id the tree does not hold stays visible). Contexts are interned
// per run, not per kernel, so sums keyed by it merge across instances
// and still tell apart one device function reached from two kernels.
type ContextSite struct {
	Ctx int32
	Loc ir.Loc
}

// mergeSums accumulates src into dst (made on first use) and returns it.
func mergeSums(dst, src map[ContextSite]int64) map[ContextSite]int64 {
	if dst == nil {
		dst = make(map[ContextSite]int64, len(src))
	}
	for k, n := range src {
		dst[k] += n
	}
	return dst
}

// mergeTable accumulates src, a per-instance table of aggregates, into
// *dst (made on first use): add folds an entry into the one *dst already
// holds under its key, a new key gets a copy of the entry.
func mergeTable[K comparable, V any](dst *map[K]*V, src map[K]*V, add func(cur, s *V)) {
	if *dst == nil {
		*dst = make(map[K]*V, len(src))
	}
	for k, s := range src {
		if cur, ok := (*dst)[k]; ok {
			add(cur, s)
		} else {
			cp := *s
			(*dst)[k] = &cp
		}
	}
}
