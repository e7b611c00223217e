package apps

import (
	"math"

	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/rt"
)

// lavaMD is Rodinia's molecular-dynamics kernel: particles live in a 3D
// grid of boxes; each CTA owns one home box and accumulates the cutoff
// potential/force contributions from every neighbor box (including
// itself), staging each neighbor's particles in shared memory behind
// barriers. 128 threads per CTA (4 warps, Table 2) serve 96 particles
// per box; the "tx < par" guards stay warp-uniform, and lavaMD's modest
// ~14% divergence in Table 3 comes from the data-dependent interaction
// cutoff inside the pair loop. Neighbor particles are re-read only
// across CTAs, never within one, so global reuse is mostly no-reuse
// (Figure 4) while the 16-byte particle stride spreads a few lines per
// access (Figure 5).
const lavamdSource = `
module lavaMD

// rv: 4 floats per particle (v, x, y, z); qv: 1 float per particle;
// fv: 4 floats per particle accumulated in place;
// nncount: neighbors per box; nnlist: 27 ids per box.
kernel @kernel_gpu_cuda(%nncount: ptr, %nnlist: ptr, %rv: ptr, %qv: ptr, %fv: ptr, %par: i32, %a2: f32, %cutoff: f32) {
  shared @rA: f32[384]
  shared @rB: f32[384]
  shared @qB: f32[96]
entry:
  %tx = sreg tid.x
  %bx = sreg ctaid.x
  %pa = shptr @rA
  %pb = shptr @rB
  %pq = shptr @qB
  %cl = icmp lt i32 %tx, %par
  cbr %cl, loadhome, synch
loadhome:
  %hb   = mul i32 %bx, %par
  %hi   = add i32 %hb, %tx
  %hoff = mul i32 %hi, 4
  %soff = mul i32 %tx, 4
  %k    = mov i32 0
  br lhead
lhead:
  %lc = icmp lt i32 %k, 4
  cbr %lc, lbody, synch
lbody:
  %gidx = add i32 %hoff, %k
  %ga   = gep %rv, %gidx, 4
  %gv   = ld f32 global [%ga]
  %sidx = add i32 %soff, %k
  %sa   = gep %pa, %sidx, 4
  st f32 shared [%sa], %gv
  %k = add i32 %k, 1
  br lhead
synch:
  bar
  %pnn = gep %nncount, %bx, 4
  %nn  = ld i32 global [%pnn]
  %fx  = mov f32 0.0
  %fy  = mov f32 0.0
  %fz  = mov f32 0.0
  %fw  = mov f32 0.0
  %nbi = mov i32 0
  br nbhead
nbhead:
  %nc = icmp lt i32 %nbi, %nn
  cbr %nc, nbload, finish
nbload:
  %nli0 = mul i32 %bx, 27
  %nli  = add i32 %nli0, %nbi
  %pnb  = gep %nnlist, %nli, 4
  %nb   = ld i32 global [%pnb]
  %cl2  = icmp lt i32 %tx, %par
  cbr %cl2, loadnb, nbsync
loadnb:
  %nbb   = mul i32 %nb, %par
  %ni    = add i32 %nbb, %tx
  %noff  = mul i32 %ni, 4
  %soff2 = mul i32 %tx, 4
  %k2    = mov i32 0
  br nbl_head
nbl_head:
  %nlc = icmp lt i32 %k2, 4
  cbr %nlc, nbl_body, loadq
nbl_body:
  %ngidx = add i32 %noff, %k2
  %nga   = gep %rv, %ngidx, 4
  %ngv   = ld f32 global [%nga]
  %nsidx = add i32 %soff2, %k2
  %nsa   = gep %pb, %nsidx, 4
  st f32 shared [%nsa], %ngv
  %k2 = add i32 %k2, 1
  br nbl_head
loadq:
  %pqg = gep %qv, %ni, 4
  %qvv = ld f32 global [%pqg]
  %pqs = gep %pq, %tx, 4
  st f32 shared [%pqs], %qvv
  br nbsync
nbsync:
  bar
  %cl3 = icmp lt i32 %tx, %par
  cbr %cl3, compute, nbdone
compute:
  %soff3 = mul i32 %tx, 4
  %pav  = gep %pa, %soff3, 4
  %av   = ld f32 shared [%pav]
  %sx0  = add i32 %soff3, 1
  %pax  = gep %pa, %sx0, 4
  %ax   = ld f32 shared [%pax]
  %sy0  = add i32 %soff3, 2
  %pay  = gep %pa, %sy0, 4
  %ay   = ld f32 shared [%pay]
  %sz0  = add i32 %soff3, 3
  %paz  = gep %pa, %sz0, 4
  %az   = ld f32 shared [%paz]
  %j    = mov i32 0
  br jhead
jhead:
  %jc = icmp lt i32 %j, %par
  cbr %jc, jbody, jdone
jbody:
  %joff = mul i32 %j, 4
  %pbv  = gep %pb, %joff, 4
  %bv   = ld f32 shared [%pbv]
  %jx0  = add i32 %joff, 1
  %pbx  = gep %pb, %jx0, 4
  %bxv  = ld f32 shared [%pbx]
  %jy0  = add i32 %joff, 2
  %pby  = gep %pb, %jy0, 4
  %byv  = ld f32 shared [%pby]
  %jz0  = add i32 %joff, 3
  %pbz  = gep %pb, %jz0, 4
  %bzv  = ld f32 shared [%pbz]
  %dotx = fmul f32 %ax, %bxv
  %doty = fmul f32 %ay, %byv
  %dotz = fmul f32 %az, %bzv
  %dxy  = fadd f32 %dotx, %doty
  %dot  = fadd f32 %dxy, %dotz
  %vsum = fadd f32 %av, %bv
  %r2   = fsub f32 %vsum, %dot
  %near = fcmp lt f32 %r2, %cutoff
  cbr %near, jforce, jnext
jforce:
  %u2   = fmul f32 %a2, %r2
  %nu2  = fneg f32 %u2
  %vij  = fexp f32 %nu2
  %fs   = fmul f32 %vij, 2.0
  %dx   = fsub f32 %ax, %bxv
  %dy   = fsub f32 %ay, %byv
  %dz   = fsub f32 %az, %bzv
  %fxij = fmul f32 %fs, %dx
  %fyij = fmul f32 %fs, %dy
  %fzij = fmul f32 %fs, %dz
  %pqj  = gep %pq, %j, 4
  %qj   = ld f32 shared [%pqj]
  %tW   = fmul f32 %qj, %vij
  %fw   = fadd f32 %fw, %tW
  %tX   = fmul f32 %qj, %fxij
  %fx   = fadd f32 %fx, %tX
  %tY   = fmul f32 %qj, %fyij
  %fy   = fadd f32 %fy, %tY
  %tZ   = fmul f32 %qj, %fzij
  %fz   = fadd f32 %fz, %tZ
  br jnext
jnext:
  %j = add i32 %j, 1
  br jhead
jdone:
  br nbdone
nbdone:
  bar
  %nbi = add i32 %nbi, 1
  br nbhead
finish:
  %cl4 = icmp lt i32 %tx, %par
  cbr %cl4, store, exit
store:
  %hb2  = mul i32 %bx, %par
  %hi2  = add i32 %hb2, %tx
  %fo   = mul i32 %hi2, 4
  %pfw  = gep %fv, %fo, 4
  %ofw  = ld f32 global [%pfw]
  %nfw  = fadd f32 %ofw, %fw
  st f32 global [%pfw], %nfw
  %fo1  = add i32 %fo, 1
  %pfx  = gep %fv, %fo1, 4
  %ofx  = ld f32 global [%pfx]
  %nfx  = fadd f32 %ofx, %fx
  st f32 global [%pfx], %nfx
  %fo2  = add i32 %fo, 2
  %pfy  = gep %fv, %fo2, 4
  %ofy  = ld f32 global [%pfy]
  %nfy  = fadd f32 %ofy, %fy
  st f32 global [%pfy], %nfy
  %fo3  = add i32 %fo, 3
  %pfz  = gep %fv, %fo3, 4
  %ofz  = ld f32 global [%pfz]
  %nfz  = fadd f32 %ofz, %fz
  st f32 global [%pfz], %nfz
  br exit
exit:
  ret
}
`

const lavaPar = 96 // particles per box (Rodinia uses 100; 96 fills 3 warps)

// lavaCutoff drops far pairs, the MD interaction cutoff; its quantile in
// the r2 distribution sets the warp-mixing rate of the jforce branch.
const lavaCutoff = float32(1.15)

func lavaBoxes1d(scale int) int { return 2 * scale }

// lavaNeighbors builds the per-box neighbor lists (self included).
func lavaNeighbors(b int) (counts, list []int32) {
	n := b * b * b
	counts = make([]int32, n)
	list = make([]int32, n*27)
	id := func(x, y, z int) int { return (z*b+y)*b + x }
	for z := 0; z < b; z++ {
		for y := 0; y < b; y++ {
			for x := 0; x < b; x++ {
				home := id(x, y, z)
				k := 0
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							nx, ny, nz := x+dx, y+dy, z+dz
							if nx < 0 || ny < 0 || nz < 0 || nx >= b || ny >= b || nz >= b {
								continue
							}
							list[home*27+k] = int32(id(nx, ny, nz))
							k++
						}
					}
				}
				counts[home] = int32(k)
			}
		}
	}
	return counts, list
}

func runLavaMD(ctx *rt.Context, prog *instrument.Program, scale int) error {
	defer ctx.Enter("main")()
	b := lavaBoxes1d(scale)
	nBoxes := b * b * b
	nPart := nBoxes * lavaPar
	const alpha = float32(0.5)
	a2 := 2 * alpha * alpha
	r := rng(13)
	rv := make([]float32, 4*nPart) // (v, x, y, z) per particle
	qv := make([]float32, nPart)
	for i := 0; i < nPart; i++ {
		rv[4*i] = 0.1 + r.Float32()
		rv[4*i+1] = r.Float32()
		rv[4*i+2] = r.Float32()
		rv[4*i+3] = r.Float32()
		qv[i] = r.Float32()
	}
	counts, list := lavaNeighbors(b)

	defer ctx.Enter("kernel_gpu_cuda_wrapper")()
	hCounts := ctx.Malloc(int64(4*len(counts)), "box_nn")
	putI32s(hCounts, counts)
	hList := ctx.Malloc(int64(4*len(list)), "box_nei")
	putI32s(hList, list)
	dCounts, err := ctx.CudaMalloc(int64(4 * len(counts)))
	if err != nil {
		return err
	}
	dList, err := ctx.CudaMalloc(int64(4 * len(list)))
	if err != nil {
		return err
	}
	if err := ctx.MemcpyH2D(dCounts, hCounts, hCounts.Bytes()); err != nil {
		return err
	}
	if err := ctx.MemcpyH2D(dList, hList, hList.Bytes()); err != nil {
		return err
	}
	dRv, _, err := uploadF32s(ctx, "d_rv_gpu", rv)
	if err != nil {
		return err
	}
	dQv, _, err := uploadF32s(ctx, "d_qv_gpu", qv)
	if err != nil {
		return err
	}
	hFv := ctx.Malloc(int64(4*4*nPart), "d_fv_gpu")
	dFv, err := ctx.CudaMalloc(int64(4 * 4 * nPart))
	if err != nil {
		return err
	}
	if err := ctx.MemcpyH2D(dFv, hFv, hFv.Bytes()); err != nil { // zeroed
		return err
	}

	if _, err := ctx.Launch(prog, "kernel_gpu_cuda", rt.Dim(nBoxes), rt.Dim(128),
		rt.Ptr(dCounts), rt.Ptr(dList), rt.Ptr(dRv), rt.Ptr(dQv), rt.Ptr(dFv),
		rt.I32(lavaPar), rt.F32(a2), rt.F32(lavaCutoff)); err != nil {
		return err
	}

	got, err := downloadF32s(ctx, hFv, dFv, 4*nPart)
	if err != nil {
		return err
	}
	want := lavaRef(rv, qv, counts, list, b, a2)
	return checkF32s("lavaMD fv", got, want, 1e-3)
}

// lavaRef computes the same cutoff interactions sequentially, in the same
// neighbor and particle order as the kernel.
func lavaRef(rv, qv []float32, counts, list []int32, b int, a2 float32) []float32 {
	nBoxes := b * b * b
	fv := make([]float32, 4*nBoxes*lavaPar)
	for home := 0; home < nBoxes; home++ {
		for tx := 0; tx < lavaPar; tx++ {
			hi := home*lavaPar + tx
			av, ax, ay, az := rv[4*hi], rv[4*hi+1], rv[4*hi+2], rv[4*hi+3]
			var fw, fx, fy, fz float32
			for k := int32(0); k < counts[home]; k++ {
				nb := list[home*27+int(k)]
				for j := 0; j < lavaPar; j++ {
					ni := int(nb)*lavaPar + j
					bv, bx, by, bz := rv[4*ni], rv[4*ni+1], rv[4*ni+2], rv[4*ni+3]
					dot := (ax*bx + ay*by) + az*bz
					r2 := (av + bv) - dot
					if r2 >= lavaCutoff {
						continue
					}
					vij := float32(math.Exp(float64(-(a2 * r2))))
					fs := vij * 2
					qj := qv[ni]
					fw += qj * vij
					fx += qj * (fs * (ax - bx))
					fy += qj * (fs * (ay - by))
					fz += qj * (fs * (az - bz))
				}
			}
			fv[4*hi] += fw
			fv[4*hi+1] += fx
			fv[4*hi+2] += fy
			fv[4*hi+3] += fz
		}
	}
	return fv
}

func init() {
	register(&App{
		Name:        "lavaMD",
		Description: "Molecular dynamics: per-box particle interactions over 3D neighbor lists",
		Suite:       "rodinia",
		WarpsPerCTA: 4,
		BlockDims:   [3]int{128, 1, 1},
		SourceFile:  "lavaMD.mir",
		Source:      lavamdSource,
		Run:         runLavaMD,
	})
}
