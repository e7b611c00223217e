package rt

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
)

const copySrc = `
module copymod
kernel @copy(%src: ptr, %dst: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %bx = sreg ctaid.x
  %bd = sreg ntid.x
  %b  = mul i32 %bx, %bd
  %i  = add i32 %b, %tx
  %c  = icmp lt i32 %i, %n
  cbr %c, body, exit
body:
  %sa = gep %src, %i, 4
  %v  = ld i32 global [%sa]
  %da = gep %dst, %i, 4
  st i32 global [%da], %v
  br exit
exit:
  ret
}
`

func newCtx(t *testing.T, l Listener) (*Context, *instrument.Program) {
	t.Helper()
	m, err := irtext.Parse("copy.mir", copySrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	cfg := gpu.KeplerK40c()
	cfg.SMs = 2
	return NewContext(gpu.NewDevice(cfg, 1<<20), l), instrument.NativeProgram(m)
}

// eventLog records the listener event sequence.
type eventLog struct {
	NopListener
	events []string
}

func (e *eventLog) HostEnter(fn string, loc ir.Loc) { e.events = append(e.events, "enter:"+fn) }
func (e *eventLog) HostLeave()                      { e.events = append(e.events, "leave") }
func (e *eventLog) HostAlloc(b *HostBuf, loc ir.Loc) {
	e.events = append(e.events, "halloc:"+b.Label)
}
func (e *eventLog) DeviceAlloc(p uint64, n int64, loc ir.Loc) {
	e.events = append(e.events, "dalloc")
}
func (e *eventLog) Memcpy(k CopyKind, dst, src uint64, n int64, loc ir.Loc) {
	e.events = append(e.events, "memcpy:"+k.String())
}
func (e *eventLog) KernelLaunch(info *LaunchInfo) (gpu.Hooks, error) {
	e.events = append(e.events, "launch:"+info.Kernel)
	return nil, nil
}
func (e *eventLog) KernelEnd(info *LaunchInfo, res *gpu.LaunchResult) {
	e.events = append(e.events, "end:"+info.Kernel)
}

func TestContextEventSequence(t *testing.T) {
	log := &eventLog{}
	ctx, prog := newCtx(t, log)

	leave := ctx.Enter("main")
	h := ctx.Malloc(256, "h_buf")
	for i := range h.Data {
		h.Data[i] = byte(i)
	}
	d, err := ctx.CudaMalloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyH2D(d, h, 256); err != nil {
		t.Fatal(err)
	}
	d2, err := ctx.CudaMalloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Launch(prog, "copy", Dim(1), Dim(64), Ptr(d), Ptr(d2), I32(64)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyD2H(h, d2, 256); err != nil {
		t.Fatal(err)
	}
	leave()

	want := []string{
		"enter:main", "halloc:h_buf", "dalloc", "memcpy:HostToDevice",
		"dalloc", "launch:copy", "end:copy", "memcpy:DeviceToHost", "leave",
	}
	got := strings.Join(log.events, ",")
	if got != strings.Join(want, ",") {
		t.Errorf("event sequence = %s\nwant %s", got, strings.Join(want, ","))
	}
	// The copied-back data must equal the original bytes (copy kernel).
	for i := 0; i < 256; i++ {
		if h.Data[i] != byte(i) {
			t.Fatalf("round trip corrupted byte %d: %d", i, h.Data[i])
		}
	}
}

func TestLaunchUnknownKernel(t *testing.T) {
	ctx, prog := newCtx(t, nil)
	if _, err := ctx.Launch(prog, "nope", Dim(1), Dim(32)); err == nil {
		t.Fatal("launch of unknown kernel succeeded")
	}
}

func TestMemcpyBounds(t *testing.T) {
	ctx, _ := newCtx(t, nil)
	h := ctx.Malloc(16, "small")
	d, err := ctx.CudaMalloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyH2D(d, h, 64); err == nil {
		t.Error("oversized H2D accepted")
	}
	if err := ctx.MemcpyD2H(h, d, 64); err == nil {
		t.Error("oversized D2H accepted")
	}
}

func TestHostBufAddressesDisjoint(t *testing.T) {
	ctx, _ := newCtx(t, nil)
	a := ctx.Malloc(100, "a")
	b := ctx.Malloc(100, "b")
	if a.Addr == b.Addr {
		t.Error("host allocations share a virtual address")
	}
	if b.Addr < a.Addr+100 {
		t.Errorf("host allocations overlap: %#x and %#x", a.Addr, b.Addr)
	}
}

func TestBypassOptionMapping(t *testing.T) {
	ctx, prog := newCtx(t, nil)
	d, err := ctx.CudaMalloc(4 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ctx.CudaMalloc(4 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	run := func(l1Warps int) *gpu.LaunchResult {
		ctx.Options.L1Warps = l1Warps
		res, err := ctx.Launch(prog, "copy", Dim(2), Dim(256), Ptr(d), Ptr(d2), I32(512))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(0); res.Cache.Bypassed != 0 {
		t.Errorf("default: %d bypassed accesses, want 0", res.Cache.Bypassed)
	}
	if res := run(FullBypass); res.Cache.Accesses != 0 {
		t.Errorf("FullBypass: %d L1 accesses, want 0", res.Cache.Accesses)
	}
	res := run(2)
	if res.Cache.Bypassed == 0 || res.Cache.Accesses == 0 {
		t.Errorf("k=2: accesses=%d bypassed=%d, want both nonzero",
			res.Cache.Accesses, res.Cache.Bypassed)
	}
}

func TestCycleCounter(t *testing.T) {
	counter := NewCycleCounter()
	ctx, prog := newCtx(t, counter)
	d, _ := ctx.CudaMalloc(4 * 64)
	d2, _ := ctx.CudaMalloc(4 * 64)
	var sum int64
	for i := 0; i < 3; i++ {
		res, err := ctx.Launch(prog, "copy", Dim(1), Dim(64), Ptr(d), Ptr(d2), I32(64))
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Cycles
	}
	if counter.Cycles <= 0 || counter.Cycles != sum {
		t.Errorf("cycles = %d, want the 3 launches' %d", counter.Cycles, sum)
	}
}

func TestArgEncodings(t *testing.T) {
	if Ptr(DevPtr(0x1234)).bits != 0x1234 {
		t.Error("Ptr encoding wrong")
	}
	if I32(-1).bits != ir.I32Bits(-1) {
		t.Error("I32 encoding wrong")
	}
	if F32(1.5).bits != ir.F32Bits(1.5) {
		t.Error("F32 encoding wrong")
	}
	if Dim(5) != [3]int{5, 1, 1} || Dim2(2, 3) != [3]int{2, 3, 1} {
		t.Error("Dim helpers wrong")
	}
}

// gatedListener vetoes device allocations above a byte threshold — the
// shape a fault-injecting listener uses to test allocator-failure paths.
type gatedListener struct {
	NopListener
	limit   int64
	allocs  int
	vetoErr error
}

func (g *gatedListener) AllocCheck(n int64) error {
	if n > g.limit {
		return g.vetoErr
	}
	return nil
}

func (g *gatedListener) DeviceAlloc(p uint64, n int64, loc ir.Loc) { g.allocs++ }

func TestCudaMallocConsultsAllocGate(t *testing.T) {
	sentinel := errors.New("injected allocator failure")
	g := &gatedListener{limit: 1024, vetoErr: sentinel}
	ctx, _ := newCtx(t, g)

	if _, err := ctx.CudaMalloc(512); err != nil {
		t.Fatalf("allocation under the limit failed: %v", err)
	}
	if g.allocs != 1 {
		t.Fatalf("DeviceAlloc events = %d, want 1", g.allocs)
	}

	_, err := ctx.CudaMalloc(4096)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the gate's sentinel", err)
	}
	if !strings.Contains(err.Error(), "cudaMalloc(4096)") {
		t.Errorf("err = %v, want the vetoed size in the message", err)
	}
	if g.allocs != 1 {
		t.Errorf("vetoed allocation still raised DeviceAlloc (allocs = %d)", g.allocs)
	}
}

// TestLaunchOptionsCtx: an ended context in LaunchOptions stops kernel
// launches at the runtime layer.
func TestLaunchOptionsCtx(t *testing.T) {
	ctx, prog := newCtx(t, nil)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx.Options.Ctx = cctx
	src, _ := ctx.CudaMalloc(64)
	dst, _ := ctx.CudaMalloc(64)
	_, err := ctx.Launch(prog, "copy", Dim(1), Dim(32), Ptr(src), Ptr(dst), I32(16))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ctx.Options.Ctx = nil
	if _, err := ctx.Launch(prog, "copy", Dim(1), Dim(32), Ptr(src), Ptr(dst), I32(16)); err != nil {
		t.Fatalf("launch without ctx failed: %v", err)
	}
}
