package ir

// Control-flow analysis: post-dominators (Cooper-Harvey-Kennedy; the
// dominator side lives with its tests). The SIMT executor uses the
// immediate post-dominator of each branching block as the warp
// reconvergence point, the standard IPDOM scheme.

// VirtualExit is the pseudo-index used by PostDominators for the virtual
// exit node that all return blocks feed into.
const VirtualExit = -2

// PostDominators computes the immediate post-dominator of every block,
// indexed by Block.Index. Blocks whose only post-dominator is the virtual
// exit (e.g. blocks ending in ret, or branch blocks whose arms both
// return) map to VirtualExit. Blocks that cannot reach an exit (infinite
// loops) or are unreachable map to -1.
func PostDominators(f *Function) []int {
	n := len(f.Blocks)
	// Build the reverse CFG with a virtual exit node at index n.
	preds := make([][]int, n+1) // preds in reverse graph = succs in CFG
	succs := make([][]int, n+1)
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			preds[b.Index] = append(preds[b.Index], s.Index)
		}
		if t := b.Terminator(); t != nil && t.Op == OpRet {
			preds[b.Index] = append(preds[b.Index], n)
			succs[n] = append(succs[n], b.Index)
		}
	}
	for i := 0; i <= n; i++ {
		for _, p := range preds[i] {
			succs[p] = append(succs[p], i)
		}
	}

	// Reverse postorder of the reverse CFG from the virtual exit.
	seen := make([]bool, n+1)
	var post []int
	var dfs func(i int)
	dfs = func(i int) {
		seen[i] = true
		for _, s := range succs[i] {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, i)
	}
	dfs(n)
	rpo := make([]int, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}

	idom := chkIdx(n+1, rpo, func(i int) []int { return preds[i] })

	out := make([]int, n)
	for i := 0; i < n; i++ {
		switch {
		case !seen[i] || idom[i] == -1:
			out[i] = -1
		case idom[i] == n:
			out[i] = VirtualExit
		default:
			out[i] = idom[i]
		}
	}
	return out
}

// chkIdx is chk over plain integer node indices; rpo[0] must be the root.
func chkIdx(n int, rpo []int, preds func(int) []int) []int {
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	if len(rpo) == 0 {
		return idom
	}
	order := make([]int, n)
	for i := range order {
		order[i] = -1
	}
	for i, b := range rpo {
		order[b] = i
	}
	root := rpo[0]
	idom[root] = root

	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			newIdom := -1
			for _, p := range preds(b) {
				if order[p] == -1 || idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}
