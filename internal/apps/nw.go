package apps

import (
	"fmt"

	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/rt"
)

// nw is Rodinia's Needleman-Wunsch sequence alignment: a dynamic program
// over the score matrix processed in 16x16 tiles along anti-diagonals,
// one kernel launch per tile diagonal with a single 16-thread CTA per
// tile (1 warp, Table 2). Inside a tile the 16 threads sweep 31 internal
// anti-diagonals under "if tx <= m" guards — almost every dynamic block
// is divergent, which is why nw tops Table 3 at ~69%.
const nwSource = `
module nw

func @maximum(%a: i32, %b: i32, %c: i32): i32 {
entry:
  %m1 = smax i32 %a, %b
  %m2 = smax i32 %m1, %c
  ret %m2
}

// nw_cell computes one DP cell (i, j) of the tile: neighbors from the
// shared tile, the reference score from global memory, and the result
// stored both to the shared tile (for the next wavefront) and to the
// global matrix.
func @nw_cell(%tp: ptr, %ref: ptr, %matrix: ptr, %inw: i32, %cols: i32, %i: i32, %j: i32, %penalty: i32) {
entry:
  %iok = icmp le i32 %i, 16
  cbr %iok, calc, exit
calc:
  %im1  = sub i32 %i, 1
  %jm1  = sub i32 %j, 1
  %dnw0 = mul i32 %im1, 17
  %dnw  = add i32 %dnw0, %jm1
  %pnw  = gep %tp, %dnw, 4
  %vnw  = ld i32 shared [%pnw]
  %dn   = add i32 %dnw, 1
  %pn   = gep %tp, %dn, 4
  %vn   = ld i32 shared [%pn]
  %dw0  = mul i32 %i, 17
  %dw   = add i32 %dw0, %jm1
  %pw   = gep %tp, %dw, 4
  %vw   = ld i32 shared [%pw]
  %grow = mul i32 %i, %cols
  %gr0  = add i32 %inw, %grow
  %gr   = add i32 %gr0, %j
  %prv  = gep %ref, %gr, 4
  %vsr  = ld i32 global [%prv]
  %diag = add i32 %vnw, %vsr
  %left = sub i32 %vw, %penalty
  %up   = sub i32 %vn, %penalty
  %mx   = call @maximum(%diag, %left, %up)
  %dij  = add i32 %dw0, %j
  %pij  = gep %tp, %dij, 4
  st i32 shared [%pij], %mx
  %pgv  = gep %matrix, %gr, 4
  st i32 global [%pgv], %mx
  br exit
exit:
  ret
}

// matrix and ref are (n+1)x(n+1) row-major i32; one CTA per tile on the
// current anti-diagonal: tile x = ctaid.x + bxoff, tile y = bytop - ctaid.x.
kernel @needle_cuda_shared(%ref: ptr, %matrix: ptr, %cols: i32, %penalty: i32, %bxoff: i32, %bytop: i32) {
  shared @temp: i32[289]
entry:
  %tx  = sreg tid.x
  %bx0 = sreg ctaid.x
  %bix = add i32 %bx0, %bxoff
  %biy = sub i32 %bytop, %bx0
  %tp  = shptr @temp
  %rowbase = mul i32 %biy, 16
  %colbase = mul i32 %bix, 16
  %nw0  = mul i32 %rowbase, %cols
  %inw  = add i32 %nw0, %colbase
  // west column: temp[(tx+1)*17 + 0] = matrix[inw + cols*(tx+1)]
  %tx1  = add i32 %tx, 1
  %wrow = mul i32 %tx1, %cols
  %iw   = add i32 %inw, %wrow
  %pwv  = gep %matrix, %iw, 4
  %wv   = ld i32 global [%pwv]
  %wti  = mul i32 %tx1, 17
  %pws  = gep %tp, %wti, 4
  st i32 shared [%pws], %wv
  // north row: temp[0*17 + tx+1] = matrix[inw + tx+1]
  %in_  = add i32 %inw, %tx1
  %pnv  = gep %matrix, %in_, 4
  %nv   = ld i32 global [%pnv]
  %pns  = gep %tp, %tx1, 4
  st i32 shared [%pns], %nv
  %c0 = icmp eq i32 %tx, 0
  cbr %c0, corner, sync0
corner:
  %pcv = gep %matrix, %inw, 4
  %cv  = ld i32 global [%pcv]
  st i32 shared [%tp], %cv
  br sync0
sync0:
  bar
  %m = mov i32 0
  br wf1head
wf1head:
  %w1c = icmp lt i32 %m, 16
  cbr %w1c, wf1check, wf2init
wf1check:
  %act1 = icmp le i32 %tx, %m
  cbr %act1, wf1calc, wf1sync
wf1calc:
  %i1 = add i32 %tx, 1
  %jd = sub i32 %m, %tx
  %j1 = add i32 %jd, 1
  call @nw_cell(%tp, %ref, %matrix, %inw, %cols, %i1, %j1, %penalty)
  br wf1sync
wf1sync:
  bar
  %m = add i32 %m, 1
  br wf1head
wf2init:
  %m = mov i32 14
  br wf2head
wf2head:
  %w2c = icmp ge i32 %m, 0
  cbr %w2c, wf2check, exit
wf2check:
  %act2 = icmp le i32 %tx, %m
  cbr %act2, wf2calc, wf2sync
wf2calc:
  %base = sub i32 16, %m
  %i2   = add i32 %base, %tx
  %j2   = sub i32 16, %tx
  call @nw_cell(%tp, %ref, %matrix, %inw, %cols, %i2, %j2, %penalty)
  br wf2sync
wf2sync:
  bar
  %m = sub i32 %m, 1
  br wf2head
exit:
  ret
}
`

func nwDim(scale int) int { return 128 * scale }

func runNW(ctx *rt.Context, prog *instrument.Program, scale int) error {
	defer ctx.Enter("main")()
	n := nwDim(scale) // matrix is (n+1)x(n+1); paper input 2048, penalty 10
	cols := n + 1
	const penalty = int32(10)
	r := rng(23)
	ref := make([]int32, cols*cols)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			ref[i*cols+j] = int32(r.Intn(10))
		}
	}
	matrix := make([]int32, cols*cols)
	for i := 0; i <= n; i++ {
		matrix[i*cols] = -int32(i) * penalty
		matrix[i] = -int32(i) * penalty
	}

	defer ctx.Enter("runTest")()
	hRef := ctx.Malloc(int64(4*len(ref)), "referrence")
	putI32s(hRef, ref)
	hMat := ctx.Malloc(int64(4*len(matrix)), "input_itemsets")
	putI32s(hMat, matrix)
	dRef, err := ctx.CudaMalloc(int64(4 * len(ref)))
	if err != nil {
		return err
	}
	dMat, err := ctx.CudaMalloc(int64(4 * len(matrix)))
	if err != nil {
		return err
	}
	if err := ctx.MemcpyH2D(dRef, hRef, hRef.Bytes()); err != nil {
		return err
	}
	if err := ctx.MemcpyH2D(dMat, hMat, hMat.Bytes()); err != nil {
		return err
	}

	bw := n / 16 // tiles per side
	launch := func(grid int, bxoff, bytop int32) error {
		_, err := ctx.Launch(prog, "needle_cuda_shared", rt.Dim(grid), rt.Dim(16),
			rt.Ptr(dRef), rt.Ptr(dMat), rt.I32(int32(cols)), rt.I32(penalty),
			rt.I32(bxoff), rt.I32(bytop))
		return err
	}
	// Growing half of the tile anti-diagonals...
	for blk := 1; blk <= bw; blk++ {
		if err := launch(blk, 0, int32(blk-1)); err != nil {
			return err
		}
	}
	// ...then the shrinking half.
	for blk := bw - 1; blk >= 1; blk-- {
		if err := launch(blk, int32(bw-blk), int32(bw-1)); err != nil {
			return err
		}
	}

	if err := ctx.MemcpyD2H(hMat, dMat, hMat.Bytes()); err != nil {
		return err
	}
	got := getI32s(hMat, len(matrix))
	want := nwRef(ref, penalty, n)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("nw: matrix[%d][%d] = %d, want %d",
				i/cols, i%cols, got[i], want[i])
		}
	}
	return nil
}

// nwRef is the sequential DP.
func nwRef(ref []int32, penalty int32, n int) []int32 {
	cols := n + 1
	m := make([]int32, cols*cols)
	for i := 0; i <= n; i++ {
		m[i*cols] = -int32(i) * penalty
		m[i] = -int32(i) * penalty
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			diag := m[(i-1)*cols+j-1] + ref[i*cols+j]
			left := m[i*cols+j-1] - penalty
			up := m[(i-1)*cols+j] - penalty
			best := diag
			if left > best {
				best = left
			}
			if up > best {
				best = up
			}
			m[i*cols+j] = best
		}
	}
	return m
}

func init() {
	register(&App{
		Name:        "nw",
		Description: "Needleman-Wunsch sequence alignment: tiled wavefront dynamic programming",
		Suite:       "rodinia",
		WarpsPerCTA: 1,
		BlockDims:   [3]int{16, 1, 1},
		SourceFile:  "nw.mir",
		Source:      nwSource,
		Run:         runNW,
	})
}
