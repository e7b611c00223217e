package profiler

import (
	"encoding/binary"
	"testing"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/trace"
)

const appSrc = `
module app
func @bump(%x: f32): f32 {
entry:
  %y = fadd f32 %x, 1.0
  ret %y
}
kernel @work(%p: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %c  = icmp lt i32 %tx, %n
  cbr %c, body, exit
body:
  %a = gep %p, %tx, 4
  %v = ld f32 global [%a]
  %w = call @bump(%v)
  st f32 global [%a], %w
  br exit
exit:
  ret
}
`

// runApp executes the little host driver under a fresh profiler and
// returns the profiler and its single kernel profile.
func runApp(t *testing.T, opts instrument.Options) (*Profiler, *KernelProfile, rt.DevPtr) {
	t.Helper()
	m, err := irtext.Parse("app.mir", appSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	prog, err := instrument.Instrument(m, opts)
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}

	p := New()
	cfg := gpu.KeplerK40c()
	cfg.SMs = 2
	ctx := rt.NewContext(gpu.NewDevice(cfg, 1<<20), p)

	const n = 48 // 2 warps, second partially populated
	leaveMain := ctx.Enter("main")
	h := ctx.Malloc(4*n, "h_data")
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(h.Data[4*i:], uint32(i))
	}
	d, err := ctx.CudaMalloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyH2D(d, h, 4*n); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Launch(prog, "work", rt.Dim(1), rt.Dim(64), rt.Ptr(d), rt.I32(n)); err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if err := ctx.MemcpyD2H(h, d, 4*n); err != nil {
		t.Fatal(err)
	}
	leaveMain()

	if len(p.Kernels) != 1 {
		t.Fatalf("kernels profiled = %d, want 1", len(p.Kernels))
	}
	return p, p.Kernels[0], d
}

func TestProfilerCollectsMemTrace(t *testing.T) {
	_, kp, d := runApp(t, instrument.Options{Memory: true})
	// 2 warps, each: 1 ld + 1 st (warp 1 has 16 active lanes only).
	if got := len(kp.Trace.Mem); got != 4 {
		t.Fatalf("mem records = %d, want 4", got)
	}
	loads, stores := 0, 0
	for _, m := range kp.Trace.Mem {
		switch m.Kind {
		case trace.Load:
			loads++
		case trace.Store:
			stores++
		}
		if m.Bits != 32 {
			t.Errorf("record bits = %d", m.Bits)
		}
		lane0 := firstLane(m.Mask)
		want := uint64(d) + uint64(m.Warp)*gpu.WarpSize*4 + uint64(lane0)*4
		var addrs [trace.WarpSize]uint64
		kp.Trace.LaneAddrs(&m, &addrs)
		if addrs[lane0] != want {
			t.Errorf("warp %d first-lane addr = %#x, want %#x", m.Warp, addrs[lane0], want)
		}
	}
	if loads != 2 || stores != 2 {
		t.Errorf("loads/stores = %d/%d, want 2/2", loads, stores)
	}
	// Warp 1 is partially active: 48-32=16 lanes.
	for _, m := range kp.Trace.Mem {
		if m.Warp == 1 && popcountMask(m.Mask) != 16 {
			t.Errorf("warp 1 mask = %#x, want 16 lanes", m.Mask)
		}
	}
}

func popcountMask(m uint32) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

func TestProfilerCodeCentricPath(t *testing.T) {
	p, kp, _ := runApp(t, instrument.Options{Memory: true})
	// The ld record's context: main -> work (kernel) and, because the ld
	// precedes the call, no device frame yet.
	var ld, st *trace.MemAccess
	for i := range kp.Trace.Mem {
		m := &kp.Trace.Mem[i]
		if m.Warp != 0 {
			continue
		}
		switch m.Kind {
		case trace.Load:
			ld = m
		case trace.Store:
			st = m
		}
	}
	if ld == nil || st == nil {
		t.Fatal("missing warp-0 records")
	}
	path := p.CCT.Path(ld.Ctx)
	if len(path) != 2 {
		t.Fatalf("ld path = %v, want [main work]", path)
	}
	if path[0].Func != "main" || path[0].Device {
		t.Errorf("path[0] = %+v, want CPU main", path[0])
	}
	if path[1].Func != "work" {
		t.Errorf("path[1] = %+v, want work", path[1])
	}
	// The store happens after @bump returned: the shadow stack must have
	// popped back to the kernel frame.
	if st.Ctx != ld.Ctx {
		t.Errorf("store ctx %d != load ctx %d (push/pop unbalanced)", st.Ctx, ld.Ctx)
	}
}

func TestProfilerDeviceCallPath(t *testing.T) {
	// Instrument memory inside the callee too by moving the access there.
	src := `
module app2
func @touch(%p: ptr, %i: i32): f32 {
entry:
  %a = gep %p, %i, 4
  %v = ld f32 global [%a]
  ret %v
}
kernel @work(%p: ptr) {
entry:
  %tx = sreg tid.x
  %v  = call @touch(%p, %tx)
  %a  = gep %p, %tx, 4
  st f32 global [%a], %v
  ret
}
`
	m, err := irtext.Parse("app2.mir", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := instrument.Instrument(m, instrument.Options{Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	cfg := gpu.KeplerK40c()
	cfg.SMs = 1
	ctx := rt.NewContext(gpu.NewDevice(cfg, 1<<20), p)
	leave := ctx.Enter("main")
	d, _ := ctx.CudaMalloc(4 * 32)
	if _, err := ctx.Launch(prog, "work", rt.Dim(1), rt.Dim(32), rt.Ptr(d)); err != nil {
		t.Fatal(err)
	}
	leave()

	kp := p.Kernels[0]
	var ld *trace.MemAccess
	for i := range kp.Trace.Mem {
		if kp.Trace.Mem[i].Kind == trace.Load {
			ld = &kp.Trace.Mem[i]
		}
	}
	if ld == nil {
		t.Fatal("no load record")
	}
	path := p.CCT.Path(ld.Ctx)
	// main -> work -> touch (device frame)
	if len(path) != 3 {
		t.Fatalf("path = %v, want 3 frames", path)
	}
	if path[2].Func != "touch" || !path[2].Device {
		t.Errorf("leaf frame = %+v, want device touch", path[2])
	}
	// Formatted like Figure 8.
	text := trace.FormatPath(path)
	for _, want := range []string{"CPU 0: main()", "work()", "GPU 2: touch()"} {
		if !contains(text, want) {
			t.Errorf("formatted path missing %q:\n%s", want, text)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestProfilerDataCentric(t *testing.T) {
	p, kp, d := runApp(t, instrument.Options{Memory: true})
	obj := p.DataObjectFor(uint64(d) + 16)
	if obj == nil {
		t.Fatal("no data object for device address")
	}
	if obj.Dev == nil || !obj.Dev.Device {
		t.Fatal("device allocation missing")
	}
	// One H2D and one D2H copy overlap the allocation.
	if len(obj.Copies) != 2 {
		t.Fatalf("copies = %d, want 2", len(obj.Copies))
	}
	if len(obj.Hosts) != 1 || obj.Hosts[0].Label != "h_data" {
		t.Fatalf("hosts = %+v, want h_data", obj.Hosts)
	}
	// The allocation context includes main.
	path := p.CCT.Path(obj.Hosts[0].Ctx)
	if len(path) != 1 || path[0].Func != "main" {
		t.Errorf("host alloc ctx = %v, want [main]", path)
	}
	_ = kp
}

func TestProfilerBlockTrace(t *testing.T) {
	_, kp, _ := runApp(t, instrument.Options{Blocks: true})
	if len(kp.Trace.Blocks) == 0 {
		t.Fatal("no block records")
	}
	res := analysis.BranchDivergence(kp.Trace, kp.Tables)
	// The CTA has 64 threads but n=48: warp 0 is uniform, warp 1 diverges
	// at the guard. Dynamic executions: entry x2 (uniform), body x2 (warp
	// 1 divergent), bump/entry x2 (warp 1 divergent, called under the
	// guard mask), exit x2 (reconverged, uniform) = 8 total, 2 divergent.
	if res.Total != 8 {
		t.Fatalf("total block executions = %d, want 8", res.Total)
	}
	if res.Divergent != 2 {
		t.Errorf("divergent = %d, want 2", res.Divergent)
	}
}

func TestProfilerBlockDivergence(t *testing.T) {
	src := `
module div
kernel @k(%p: ptr) {
entry:
  %tx  = sreg tid.x
  %bit = and i32 %tx, 1
  %c   = icmp eq i32 %bit, 0
  cbr %c, even, odd
even:
  br join
odd:
  br join
join:
  ret
}
`
	m, err := irtext.Parse("div.mir", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := instrument.Instrument(m, instrument.Options{Blocks: true})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	cfg := gpu.KeplerK40c()
	cfg.SMs = 1
	ctx := rt.NewContext(gpu.NewDevice(cfg, 1<<20), p)
	d, _ := ctx.CudaMalloc(4)
	if _, err := ctx.Launch(prog, "k", rt.Dim(1), rt.Dim(32), rt.Ptr(d)); err != nil {
		t.Fatal(err)
	}
	res := analysis.BranchDivergence(p.Kernels[0].Trace, p.Kernels[0].Tables)
	// entry: full (not divergent); even: 16 lanes (divergent);
	// odd: 16 lanes (divergent); join: full (not divergent).
	if res.Total != 4 {
		t.Fatalf("total blocks = %d, want 4", res.Total)
	}
	if res.Divergent != 2 {
		t.Errorf("divergent = %d, want 2", res.Divergent)
	}
	if pct := res.Percent(); pct != 50 {
		t.Errorf("percent = %g, want 50", pct)
	}
	blocks := res.Blocks()
	if blocks[0].Block.Block != "even" && blocks[0].Block.Block != "odd" {
		t.Errorf("most divergent block = %+v", blocks[0].Block)
	}
}

func TestProfilerNativeProgramNoTrace(t *testing.T) {
	m, err := irtext.Parse("app.mir", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	p := New()
	cfg := gpu.KeplerK40c()
	cfg.SMs = 1
	ctx := rt.NewContext(gpu.NewDevice(cfg, 1<<20), p)
	d, _ := ctx.CudaMalloc(4 * 32)
	if _, err := ctx.Launch(instrument.NativeProgram(m), "work", rt.Dim(1), rt.Dim(32), rt.Ptr(d), rt.I32(32)); err != nil {
		t.Fatal(err)
	}
	kp := p.Kernels[0]
	if len(kp.Trace.Mem) != 0 || len(kp.Trace.Blocks) != 0 {
		t.Error("native program produced trace records")
	}
	if kp.Result == nil {
		t.Error("kernel result not recorded")
	}
}

func TestProfilerOnKernelEndCallback(t *testing.T) {
	m, err := irtext.Parse("app.mir", appSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := instrument.Instrument(m, instrument.Options{Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	fired := 0
	p.OnKernelEnd = func(kp *KernelProfile) {
		fired++
		if kp.Result == nil {
			t.Error("OnKernelEnd before result recorded")
		}
	}
	cfg := gpu.KeplerK40c()
	cfg.SMs = 1
	ctx := rt.NewContext(gpu.NewDevice(cfg, 1<<20), p)
	d, _ := ctx.CudaMalloc(4 * 32)
	for i := 0; i < 3; i++ {
		if _, err := ctx.Launch(prog, "work", rt.Dim(1), rt.Dim(32), rt.Ptr(d), rt.I32(32)); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 3 {
		t.Errorf("OnKernelEnd fired %d times, want 3", fired)
	}
	if got := len(p.KernelsByName("work")); got != 3 {
		t.Errorf("instances = %d, want 3", got)
	}
}
