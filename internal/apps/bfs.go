package apps

import (
	"fmt"

	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/rt"
)

// bfs is Rodinia's breadth-first search: frontier-based level expansion
// over a CSR graph with bool masks (8-bit loads — the Listing 6 data
// types). Kernel reads neighbor ids from the edge list and scatters cost
// updates through them: the irregular accesses spread the unique-line
// distribution (Figure 5), nearly every element is touched once per
// level (the >99% no-reuse that excludes bfs from Figure 4), and the
// sparse frontier mask makes ~30% of dynamic blocks divergent (Table 3).
// The paper's graph1MW_6.txt is a 1M-node random graph of average degree
// 6; the generator below produces the same structure at simulator scale.
const bfsSource = `
module bfs

// nodes: (start, degree) int32 pairs; mask/updating/visited: byte flags
kernel @Kernel(%g_nodes: ptr, %g_edges: ptr, %g_mask: ptr, %g_updating: ptr, %g_visited: ptr, %g_cost: ptr, %n: i32) {
entry:
  %txr = sreg tid.x
  %bx  = sreg ctaid.x
  %bd  = sreg ntid.x
  %b   = mul i32 %bx, %bd
  %tid = add i32 %b, %txr
  %cn  = icmp lt i32 %tid, %n
  cbr %cn, checkmask, exit
checkmask:
  %ma = gep %g_mask, %tid, 1
  %mv = ld i8 global [%ma]
  %active = icmp ne i32 %mv, 0
  cbr %active, expand, exit
expand:
  st i8 global [%ma], 0
  %np    = mul i32 %tid, 2
  %sa    = gep %g_nodes, %np, 4
  %start = ld i32 global [%sa]
  %np1   = add i32 %np, 1
  %da    = gep %g_nodes, %np1, 4
  %deg   = ld i32 global [%da]
  %end   = add i32 %start, %deg
  %e     = mov i32 %start
  %ca    = gep %g_cost, %tid, 4
  %mycost = ld i32 global [%ca]
  br head
head:
  %hc = icmp lt i32 %e, %end
  cbr %hc, body, exit
body:
  %ea = gep %g_edges, %e, 4
  %id = ld i32 global [%ea]
  %va = gep %g_visited, %id, 1
  %vv = ld i8 global [%va]
  %unseen = icmp eq i32 %vv, 0
  cbr %unseen, update, next
update:
  %nc  = add i32 %mycost, 1
  %nca = gep %g_cost, %id, 4
  st i32 global [%nca], %nc
  %ua = gep %g_updating, %id, 1
  st i8 global [%ua], 1
  br next
next:
  %e = add i32 %e, 1
  br head
exit:
  ret
}

kernel @Kernel2(%g_mask: ptr, %g_updating: ptr, %g_visited: ptr, %g_over: ptr, %n: i32) {
entry:
  %txr = sreg tid.x
  %bx  = sreg ctaid.x
  %bd  = sreg ntid.x
  %b   = mul i32 %bx, %bd
  %tid = add i32 %b, %txr
  %cn  = icmp lt i32 %tid, %n
  cbr %cn, checkupd, exit
checkupd:
  %ua = gep %g_updating, %tid, 1
  %uv = ld i8 global [%ua]
  %upd = icmp ne i32 %uv, 0
  cbr %upd, promote, exit
promote:
  %ma = gep %g_mask, %tid, 1
  st i8 global [%ma], 1
  %va = gep %g_visited, %tid, 1
  st i8 global [%va], 1
  st i8 global [%g_over], 1
  st i8 global [%ua], 0
  br exit
exit:
  ret
}
`

// bfsGraph generates a connected random graph in CSR form: a chain (for
// connectivity) plus random extra edges for an average degree around 6,
// mirroring graph1MW_6's construction. The extra edges are drawn from a
// bounded window around each node, which gives BFS frontiers the id
// locality large generated graphs have (frontier bands fill warps rather
// than scattering single threads over the whole id space).
func bfsGraph(n int, seed int64) (nodes []int32, edges []int32) {
	r := rng(seed)
	adj := make([][]int32, n)
	addEdge := func(a, b int32) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for i := 0; i+1 < n; i++ {
		addEdge(int32(i), int32(i+1))
	}
	const window = 256
	for a := 0; a < n; a++ {
		for k := 0; k < 2; k++ {
			b := a + 1 + r.Intn(window)
			if b >= n {
				continue
			}
			addEdge(int32(a), int32(b))
		}
	}
	nodes = make([]int32, 2*n)
	for i := 0; i < n; i++ {
		nodes[2*i] = int32(len(edges))
		nodes[2*i+1] = int32(len(adj[i]))
		edges = append(edges, adj[i]...)
	}
	return nodes, edges
}

// bfsRef computes BFS levels sequentially.
func bfsRef(nodes, edges []int32, n, src int) []int32 {
	cost := make([]int32, n)
	for i := range cost {
		cost[i] = -1
	}
	cost[src] = 0
	frontier := []int32{int32(src)}
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			start, deg := nodes[2*u], nodes[2*u+1]
			for e := start; e < start+deg; e++ {
				v := edges[e]
				if cost[v] == -1 {
					cost[v] = cost[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return cost
}

func runBFS(ctx *rt.Context, prog *instrument.Program, scale int) error {
	defer ctx.Enter("main")()
	n := 4096 * scale
	nodes, edges := bfsGraph(n, 6)
	const src = 0

	defer ctx.Enter("BFSGraph")()
	hNodes := ctx.Malloc(int64(4*len(nodes)), "h_graph_nodes")
	putI32s(hNodes, nodes)
	hEdges := ctx.Malloc(int64(4*len(edges)), "h_graph_edges")
	putI32s(hEdges, edges)
	hMask := ctx.Malloc(int64(n), "h_graph_mask")
	hUpdating := ctx.Malloc(int64(n), "h_updating_graph_mask")
	hVisited := ctx.Malloc(int64(n), "h_graph_visited")
	hCost := ctx.Malloc(int64(4*n), "h_cost")
	hOver := ctx.Malloc(1, "h_over")

	mask := make([]bool, n)
	visited := make([]bool, n)
	cost := make([]int32, n)
	for i := range cost {
		cost[i] = -1
	}
	mask[src], visited[src], cost[src] = true, true, 0
	putBools(hMask, mask)
	putBools(hUpdating, make([]bool, n))
	putBools(hVisited, visited)
	putI32s(hCost, cost)

	alloc := func(bytes int64) (rt.DevPtr, error) { return ctx.CudaMalloc(bytes) }
	dNodes, err := alloc(int64(4 * len(nodes)))
	if err != nil {
		return err
	}
	dEdges, err := alloc(int64(4 * len(edges)))
	if err != nil {
		return err
	}
	dMask, err := alloc(int64(n))
	if err != nil {
		return err
	}
	dUpdating, err := alloc(int64(n))
	if err != nil {
		return err
	}
	dVisited, err := alloc(int64(n))
	if err != nil {
		return err
	}
	dCost, err := alloc(int64(4 * n))
	if err != nil {
		return err
	}
	dOver, err := alloc(1)
	if err != nil {
		return err
	}
	for _, cp := range []struct {
		d rt.DevPtr
		h *rt.HostBuf
	}{{dNodes, hNodes}, {dEdges, hEdges}, {dMask, hMask},
		{dUpdating, hUpdating}, {dVisited, hVisited}, {dCost, hCost}} {
		if err := ctx.MemcpyH2D(cp.d, cp.h, cp.h.Bytes()); err != nil {
			return err
		}
	}

	const cta = 512 // 16 warps per CTA (Table 2)
	grid := rt.Dim((n + cta - 1) / cta)
	for iter := 0; ; iter++ {
		if iter > n {
			return fmt.Errorf("bfs: did not converge after %d levels", iter)
		}
		hOver.Data[0] = 0
		if err := ctx.MemcpyH2D(dOver, hOver, 1); err != nil {
			return err
		}
		if _, err := ctx.Launch(prog, "Kernel", grid, rt.Dim(cta),
			rt.Ptr(dNodes), rt.Ptr(dEdges), rt.Ptr(dMask), rt.Ptr(dUpdating),
			rt.Ptr(dVisited), rt.Ptr(dCost), rt.I32(int32(n))); err != nil {
			return err
		}
		if _, err := ctx.Launch(prog, "Kernel2", grid, rt.Dim(cta),
			rt.Ptr(dMask), rt.Ptr(dUpdating), rt.Ptr(dVisited), rt.Ptr(dOver),
			rt.I32(int32(n))); err != nil {
			return err
		}
		if err := ctx.MemcpyD2H(hOver, dOver, 1); err != nil {
			return err
		}
		if hOver.Data[0] == 0 {
			break
		}
	}

	if err := ctx.MemcpyD2H(hCost, dCost, int64(4*n)); err != nil {
		return err
	}
	got := getI32s(hCost, n)
	want := bfsRef(nodes, edges, n, src)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("bfs: cost[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

func init() {
	register(&App{
		Name:            "bfs",
		Description:     "Breadth-first search over a CSR random graph (frontier expansion)",
		Suite:           "rodinia",
		WarpsPerCTA:     16,
		BlockDims:       [3]int{512, 1, 1},
		SourceFile:      "bfs.mir",
		Source:          bfsSource,
		Run:             runBFS,
		BypassFavorable: true,
	})
}
