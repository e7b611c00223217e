package profiler_test

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"os"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/report"
	"cudaadvisor/internal/rt"
)

// saxpySrc is saxpy with a deliberate re-read of x, so the reuse
// histogram has something to show besides cold misses.
const saxpySrc = `
module quickstart

kernel @saxpy(%x: ptr, %y: ptr, %n: i32, %a: f32) {
entry:
  %tx = sreg tid.x
  %bx = sreg ctaid.x
  %bd = sreg ntid.x
  %b  = mul i32 %bx, %bd
  %i  = add i32 %b, %tx
  %c  = icmp lt i32 %i, %n
  cbr %c, body, exit
body:
  %xa = gep %x, %i, 4
  %xv = ld f32 global [%xa]
  %ya = gep %y, %i, 4
  %yv = ld f32 global [%ya]
  %ax = fmul f32 %xv, %a
  %s  = fadd f32 %ax, %yv
  %x2 = ld f32 global [%xa]
  %s2 = fadd f32 %s, %x2
  st f32 global [%ya], %s2
  br exit
exit:
  ret
}
`

// Example_quickstart is the Figure 1 workflow on a hand-written kernel:
// the device code is compiled through the instrumentation engine,
// launched through the CUDA-style host runtime on the simulated Kepler
// device under a profiler, and the analyzer's reuse-distance histogram
// and data-centric view are printed.
func Example_quickstart() {
	// 1. Parse the device code and run it through the instrumentation
	//    engine (an LLVM-pass analog) with memory tracing enabled.
	module, err := irtext.Parse("quickstart.mir", saxpySrc)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := instrument.Instrument(module, instrument.Options{Memory: true})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Drive the host side: allocate, copy, launch, copy back. Every
	//    call raises the events the paper's mandatory host instrumentation
	//    produces, so the profiler sees the full data flow.
	arch := gpu.KeplerK40c()
	p := profiler.New()
	ctx := rt.NewContext(gpu.NewDevice(arch, 1<<20), p)
	defer ctx.Enter("main")()

	const n = 4096
	hx := ctx.Malloc(4*n, "h_x")
	hy := ctx.Malloc(4*n, "h_y")
	for i := 0; i < n; i++ {
		putF32(hx, i, float32(i))
		putF32(hy, i, 1)
	}
	dx, err := ctx.CudaMalloc(4 * n)
	if err != nil {
		log.Fatal(err)
	}
	dy, err := ctx.CudaMalloc(4 * n)
	if err != nil {
		log.Fatal(err)
	}
	if err := ctx.MemcpyH2D(dx, hx, 4*n); err != nil {
		log.Fatal(err)
	}
	if err := ctx.MemcpyH2D(dy, hy, 4*n); err != nil {
		log.Fatal(err)
	}
	res, err := ctx.Launch(prog, "saxpy", rt.Dim(n/256), rt.Dim(256),
		rt.Ptr(dx), rt.Ptr(dy), rt.I32(n), rt.F32(2.5))
	if err != nil {
		log.Fatal(err)
	}
	if err := ctx.MemcpyD2H(hy, dy, 4*n); err != nil {
		log.Fatal(err)
	}

	// 3. Ask the analyzer what it saw.
	fmt.Printf("launch: %d CTAs, %d modeled cycles, %d of %d L1 lookups hit\n\n",
		res.CTAs, res.Cycles, res.Cache.Hits, res.Cache.Accesses)
	report.ReuseHistogram(os.Stdout, "saxpy", p.Analyses(arch.L1LineSize).ReuseElem())

	fmt.Println("\ndata-centric view of y:")
	report.DataCentric(os.Stdout, p, uint64(dy))

	fmt.Printf("\ny[10] = %g (want %g)\n", getF32(hy, 10), 2.5*10+1+10)
	// Output:
	// launch: 16 CTAs, 1080 modeled cycles, 128 of 384 L1 lookups hit
	//
	// reuse distance: saxpy (12288 accesses, mean finite 511.0, streaming elements 4096)
	//         0   0.00% ........................................
	//       1-2   0.00% ........................................
	//       3-8   0.00% ........................................
	//      9-32   0.00% ........................................
	//    33-128   0.00% ........................................
	//   129-512  33.33% #############...........................
	//      >512   0.00% ........................................
	//       inf  66.67% ###########################.............
	//
	// data-centric view of y:
	// device object: [0x4100, 0x8100) 16384 bytes, cudaMalloc at example_test.go:84:0
	//     CPU 0: main():: example_test.go:71
	// transfer: HostToDevice 16384 bytes at example_test.go:91:0
	// transfer: DeviceToHost 16384 bytes at example_test.go:99:0
	// host object: "h_y" [0x7f0000004000, 0x7f0000008000) 16384 bytes, malloc at example_test.go:75:0
	//     CPU 0: main():: example_test.go:71
	//
	// y[10] = 36 (want 36)
}

func putF32(h *rt.HostBuf, i int, v float32) {
	binary.LittleEndian.PutUint32(h.Data[4*i:], math.Float32bits(v))
}

func getF32(h *rt.HostBuf, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(h.Data[4*i:]))
}

// gatherSrc mixes branch divergence (an odd/even split plus a
// data-dependent clamp) with memory divergence (a strided gather): even
// threads gather with a wide stride, odd threads read contiguously, and
// negative results are clamped.
const gatherSrc = `
module divergence

kernel @gather(%in: ptr, %out: ptr, %n: i32, %stride: i32) {
entry:
  %tx = sreg tid.x
  %bx = sreg ctaid.x
  %bd = sreg ntid.x
  %b  = mul i32 %bx, %bd
  %i  = add i32 %b, %tx
  %c  = icmp lt i32 %i, %n
  cbr %c, pick, exit
pick:
  %bit  = and i32 %i, 1
  %even = icmp eq i32 %bit, 0
  cbr %even, strided, contiguous
strided:
  %si  = mul i32 %i, %stride
  %sm  = srem i32 %si, %n
  %sa  = gep %in, %sm, 4
  %v   = ld f32 global [%sa]
  br clampcheck
contiguous:
  %ca = gep %in, %i, 4
  %v  = ld f32 global [%ca]
  br clampcheck
clampcheck:
  %neg = fcmp lt f32 %v, 0.0
  cbr %neg, clamp, store
clamp:
  %v = mov f32 0.0
  br store
store:
  %oa = gep %out, %i, 4
  st f32 global [%oa], %v
  br exit
exit:
  ret
}
`

// Example_divergence runs the control-flow and memory analyses on a
// kernel with both kinds of divergence, and prints the most divergent
// sites with their calling contexts (the Figure 8 view).
func Example_divergence() {
	module, err := irtext.Parse("divergence.mir", gatherSrc)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := instrument.Instrument(module, instrument.MemoryAndBlocks())
	if err != nil {
		log.Fatal(err)
	}

	arch := gpu.KeplerK40c()
	p := profiler.New()
	ctx := rt.NewContext(gpu.NewDevice(arch, 1<<20), p)
	defer ctx.Enter("main")()
	const n = 8192
	h := ctx.Malloc(4*n, "h_in")
	for i := 0; i < n; i++ {
		putF32(h, i, float32(i%17)-4)
	}
	din, err := ctx.CudaMalloc(4 * n)
	if err != nil {
		log.Fatal(err)
	}
	dout, err := ctx.CudaMalloc(4 * n)
	if err != nil {
		log.Fatal(err)
	}
	if err := ctx.MemcpyH2D(din, h, 4*n); err != nil {
		log.Fatal(err)
	}
	if _, err := ctx.Launch(prog, "gather", rt.Dim(n/256), rt.Dim(256),
		rt.Ptr(din), rt.Ptr(dout), rt.I32(n), rt.I32(33)); err != nil {
		log.Fatal(err)
	}

	an := p.Analyses(arch.L1LineSize)
	fmt.Println("== branch divergence ==")
	report.BranchDivergence(os.Stdout, an.BranchDiv())

	fmt.Println("\n== memory divergence ==")
	report.MemDivDistribution(os.Stdout, "all kernels", an.MemDiv())

	fmt.Println("\n== most divergent sites with calling context (Figure 8 view) ==")
	report.CodeCentric(os.Stdout, p, an.MemDiv(), 2)
	// Output:
	// == branch divergence ==
	// branch divergence: 768 of 2048 dynamic blocks divergent (37.50%)
	//   gather/strided at divergence.mir:18:3: 256 of 256 executions divergent
	//   gather/contiguous at divergence.mir:24:3: 256 of 256 executions divergent
	//   gather/clamp at divergence.mir:31:3: 256 of 256 executions divergent
	//   gather/entry at divergence.mir:6:3: 0 of 256 executions divergent
	//   gather/pick at divergence.mir:14:3: 0 of 256 executions divergent
	//
	// == memory divergence ==
	// memory divergence: all kernels (128 B lines, 768 warp instructions, degree 6.00)
	//    1 lines  66.67% ###########################.............
	//   16 lines  33.33% #############...........................
	//
	// == most divergent sites with calling context (Figure 8 view) ==
	// site 1: divergence.mir:21:3 — 16.00 unique lines/instruction (max 16, 256 executions)
	// CPU 0: main():: example_test.go:205
	// CPU 1: gather():: example_test.go:222
	// site 2: divergence.mir:25:3 — 1.00 unique lines/instruction (max 1, 256 executions)
	// CPU 0: main():: example_test.go:205
	// CPU 1: gather():: example_test.go:222
}
