package gpu

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
)

func parseKernel(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := irtext.Parse("test.mir", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return m
}

func newTestDevice() *Device {
	cfg := KeplerK40c()
	cfg.SMs = 2
	return NewDevice(cfg, 16<<20)
}

// writeF32s stores a float32 slice to device memory.
func writeF32s(t *testing.T, d *Device, addr uint64, vals []float32) {
	t.Helper()
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		bits := math.Float32bits(v)
		buf[4*i] = byte(bits)
		buf[4*i+1] = byte(bits >> 8)
		buf[4*i+2] = byte(bits >> 16)
		buf[4*i+3] = byte(bits >> 24)
	}
	if err := d.Mem.WriteBytes(addr, buf); err != nil {
		t.Fatal(err)
	}
}

const scaleSrc = `
module scale
kernel @scale(%in: ptr, %out: ptr, %n: i32, %k: f32) {
entry:
  %tx   = sreg tid.x
  %bx   = sreg ctaid.x
  %bd   = sreg ntid.x
  %base = mul i32 %bx, %bd
  %i    = add i32 %base, %tx
  %c    = icmp lt i32 %i, %n
  cbr %c, body, exit
body:
  %a = gep %in, %i, 4
  %v = ld f32 global [%a]
  %w = fmul f32 %v, %k
  %o = gep %out, %i, 4
  st f32 global [%o], %w
  br exit
exit:
  ret
}
`

func TestLaunchVectorScale(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, scaleSrc)
	const n = 1000 // not a multiple of CTA size: exercises the guard
	in, _ := d.Mem.Alloc(4 * n)
	out, _ := d.Mem.Alloc(4 * n)
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i) + 0.5
	}
	writeF32s(t, d, in, vals)

	res, err := d.Launch(m.Func("scale"), LaunchParams{
		Grid:          [3]int{8, 1, 1},
		Block:         [3]int{128, 1, 1},
		Args:          []uint64{in, out, ir.I32Bits(n), ir.F32Bits(2)},
		L1WarpsPerCTA: -1,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := d.Mem.Float32Slice(out, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != vals[i]*2 {
			t.Fatalf("out[%d] = %g, want %g", i, got[i], vals[i]*2)
		}
	}
	if res.Cycles <= 0 || res.WarpInstrs <= 0 {
		t.Errorf("result not populated: %+v", res)
	}
	if res.CTAs != 8 || res.WarpsPerCTA != 4 {
		t.Errorf("CTAs/warps = %d/%d, want 8/4", res.CTAs, res.WarpsPerCTA)
	}
	if res.Cache.Accesses == 0 {
		t.Error("no L1 accesses recorded")
	}
}

const divergeSrc = `
module diverge
kernel @tag(%out: ptr, %n: i32) {
entry:
  %tx  = sreg tid.x
  %bit = and i32 %tx, 1
  %c   = icmp eq i32 %bit, 0
  cbr %c, even, odd
even:
  %ve = mov i32 100
  br join
odd:
  %vo = mov i32 200
  br join
join:
  %v = select i32 %c, %ve, %vo
  %a = gep %out, %tx, 4
  st i32 global [%a], %v
  ret
}
`

func TestLaunchBranchDivergenceReconverges(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, divergeSrc)
	out, _ := d.Mem.Alloc(4 * 32)
	_, err := d.Launch(m.Func("tag"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
		Args: []uint64{out, ir.I32Bits(32)}, L1WarpsPerCTA: -1,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, _ := d.Mem.Int32Slice(out, 32)
	for i, v := range got {
		want := int32(100)
		if i%2 == 1 {
			want = 200
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

// Per-lane loop trip counts: lane i runs i iterations.
const loopSrc = `
module loop
kernel @tri(%out: ptr) {
entry:
  %tx = sreg tid.x
  %i  = mov i32 0
  %s  = mov i32 0
  br head
head:
  %c = icmp lt i32 %i, %tx
  cbr %c, body, exit
body:
  %s = add i32 %s, %i
  %i = add i32 %i, 1
  br head
exit:
  %a = gep %out, %tx, 4
  st i32 global [%a], %s
  ret
}
`

func TestLaunchDivergentLoop(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, loopSrc)
	out, _ := d.Mem.Alloc(4 * 32)
	_, err := d.Launch(m.Func("tri"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
		Args: []uint64{out}, L1WarpsPerCTA: -1,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, _ := d.Mem.Int32Slice(out, 32)
	for i, v := range got {
		want := int32(i * (i - 1) / 2) // sum 0..i-1
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

const earlyRetSrc = `
module early
kernel @guarded(%out: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %c  = icmp ge i32 %tx, %n
  cbr %c, bail, work
bail:
  ret
work:
  %a = gep %out, %tx, 4
  st i32 global [%a], 7
  ret
}
`

func TestLaunchEarlyReturn(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, earlyRetSrc)
	out, _ := d.Mem.Alloc(4 * 32)
	_, err := d.Launch(m.Func("guarded"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
		Args: []uint64{out, ir.I32Bits(10)}, L1WarpsPerCTA: -1,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, _ := d.Mem.Int32Slice(out, 32)
	for i, v := range got {
		want := int32(0)
		if i < 10 {
			want = 7
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

const callSrc = `
module callmod
func @sq(%x: f32): f32 {
entry:
  %y = fmul f32 %x, %x
  ret %y
}
func @poly(%x: f32, %odd: i1): f32 {
entry:
  cbr %odd, oddcase, evencase
oddcase:
  %a = fadd f32 %x, 1.0
  %r1 = call @sq(%a)
  ret %r1
evencase:
  %r2 = call @sq(%x)
  ret %r2
}
kernel @k(%out: ptr) {
entry:
  %tx  = sreg tid.x
  %bit = and i32 %tx, 1
  %co  = icmp eq i32 %bit, 1
  %xf  = sitofp %tx
  %r   = call @poly(%xf, %co)
  %a   = gep %out, %tx, 4
  st f32 global [%a], %r
  ret
}
`

func TestLaunchDivergentDeviceCalls(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, callSrc)
	out, _ := d.Mem.Alloc(4 * 32)
	_, err := d.Launch(m.Func("k"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
		Args: []uint64{out}, L1WarpsPerCTA: -1,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, _ := d.Mem.Float32Slice(out, 32)
	for i, v := range got {
		x := float32(i)
		want := x * x
		if i%2 == 1 {
			want = (x + 1) * (x + 1)
		}
		if v != want {
			t.Fatalf("out[%d] = %g, want %g", i, v, want)
		}
	}
}

// Shared-memory reversal with a barrier: out[i] = in[blockDim-1-i].
const sharedSrc = `
module sharedmod
kernel @reverse(%in: ptr, %out: ptr) {
  shared @tile: f32[64]
entry:
  %tx  = sreg tid.x
  %bd  = sreg ntid.x
  %tp  = shptr @tile
  %a   = gep %in, %tx, 4
  %v   = ld f32 global [%a]
  %sa  = gep %tp, %tx, 4
  st f32 shared [%sa], %v
  bar
  %bm1 = sub i32 %bd, 1
  %ri  = sub i32 %bm1, %tx
  %sb  = gep %tp, %ri, 4
  %w   = ld f32 shared [%sb]
  %o   = gep %out, %tx, 4
  st f32 global [%o], %w
  ret
}
`

func TestLaunchSharedMemoryBarrier(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, sharedSrc)
	const n = 64 // 2 warps: the barrier actually synchronizes
	in, _ := d.Mem.Alloc(4 * n)
	out, _ := d.Mem.Alloc(4 * n)
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)
	}
	writeF32s(t, d, in, vals)
	_, err := d.Launch(m.Func("reverse"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{n, 1, 1},
		Args: []uint64{in, out}, L1WarpsPerCTA: -1,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, _ := d.Mem.Float32Slice(out, n)
	for i, v := range got {
		if v != float32(n-1-i) {
			t.Fatalf("out[%d] = %g, want %g", i, v, float32(n-1-i))
		}
	}
}

const atomicSrc = `
module atomicmod
kernel @count(%ctr: ptr) {
entry:
  %old = atomadd i32 global [%ctr], 1
  ret
}
`

func TestLaunchAtomicAdd(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, atomicSrc)
	ctr, _ := d.Mem.Alloc(4)
	_, err := d.Launch(m.Func("count"), LaunchParams{
		Grid: [3]int{4, 1, 1}, Block: [3]int{64, 1, 1},
		Args: []uint64{ctr}, L1WarpsPerCTA: -1,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, _ := d.Mem.Int32Slice(ctr, 1)
	if got[0] != 256 {
		t.Errorf("counter = %d, want 256", got[0])
	}
}

func TestLaunchFaultOutOfBounds(t *testing.T) {
	cfg := KeplerK40c()
	cfg.SMs = 2
	d := NewDevice(cfg, 4096) // tiny device memory: accesses past it fault
	m := parseKernel(t, scaleSrc)
	// n says 1 million but the device only holds 4 KB.
	in, _ := d.Mem.Alloc(64)
	out, _ := d.Mem.Alloc(64)
	_, err := d.Launch(m.Func("scale"), LaunchParams{
		Grid: [3]int{1024, 1, 1}, Block: [3]int{256, 1, 1},
		Args:          []uint64{in, out, ir.I32Bits(1 << 20), ir.F32Bits(1)},
		L1WarpsPerCTA: -1,
	})
	if err == nil {
		t.Fatal("out-of-bounds kernel did not fault")
	}
	var f *Fault
	if !asFault(err, &f) {
		t.Fatalf("error %T is not a *Fault: %v", err, err)
	}
	if f.Loc.Line == 0 {
		t.Errorf("fault without source location: %v", f)
	}
	if !strings.Contains(f.Msg, "out of range") {
		t.Errorf("fault message = %q", f.Msg)
	}
}

func asFault(err error, out **Fault) bool {
	f, ok := err.(*Fault)
	if ok {
		*out = f
	}
	return ok
}

const divZeroSrc = `
module dz
kernel @dz(%out: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %q  = sdiv i32 100, %tx
  %a  = gep %out, %tx, 4
  st i32 global [%a], %q
  ret
}
`

func TestLaunchFaultDivByZero(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, divZeroSrc)
	out, _ := d.Mem.Alloc(4 * 32)
	_, err := d.Launch(m.Func("dz"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
		Args: []uint64{out, ir.I32Bits(0)}, L1WarpsPerCTA: -1,
	})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero fault", err)
	}
}

const divBarrierSrc = `
module db
kernel @bad(%n: i32) {
entry:
  %tx = sreg tid.x
  %c  = icmp lt i32 %tx, 16
  cbr %c, low, high
low:
  bar
  br high
high:
  ret
}
`

func TestLaunchFaultDivergentBarrier(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, divBarrierSrc)
	_, err := d.Launch(m.Func("bad"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
		Args: []uint64{ir.I32Bits(0)}, L1WarpsPerCTA: -1,
	})
	if err == nil || !strings.Contains(err.Error(), "divergent barrier") {
		t.Fatalf("err = %v, want divergent barrier fault", err)
	}
}

func TestLaunchRunawayGuard(t *testing.T) {
	src := `
module run
kernel @forever() {
entry:
  br entry
}
`
	d := newTestDevice()
	m := parseKernel(t, src)
	_, err := d.Launch(m.Func("forever"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
		maxWarpInstrs: 10000, L1WarpsPerCTA: -1,
	})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want instruction budget fault", err)
	}
}

func TestLaunchHorizontalBypassing(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, scaleSrc)
	const n = 4096
	in, _ := d.Mem.Alloc(4 * n)
	out, _ := d.Mem.Alloc(4 * n)
	p := LaunchParams{
		Grid: [3]int{8, 1, 1}, Block: [3]int{256, 1, 1},
		Args: []uint64{in, out, ir.I32Bits(n), ir.F32Bits(3)},
	}

	p.L1WarpsPerCTA = -1
	resAll, err := d.Launch(m.Func("scale"), p)
	if err != nil {
		t.Fatal(err)
	}
	if resAll.Cache.Bypassed != 0 {
		t.Errorf("bypassed = %d with bypassing disabled", resAll.Cache.Bypassed)
	}

	p.L1WarpsPerCTA = 2 // warps 0,1 use L1; 2..7 bypass
	resHalf, err := d.Launch(m.Func("scale"), p)
	if err != nil {
		t.Fatal(err)
	}
	if resHalf.Cache.Bypassed == 0 {
		t.Error("no bypassed accesses with L1WarpsPerCTA=2")
	}
	if resHalf.Cache.Accesses >= resAll.Cache.Accesses {
		t.Errorf("L1 accesses did not drop: %d -> %d", resAll.Cache.Accesses, resHalf.Cache.Accesses)
	}

	p.L1WarpsPerCTA = 0 // full bypass
	resNone, err := d.Launch(m.Func("scale"), p)
	if err != nil {
		t.Fatal(err)
	}
	if resNone.Cache.Accesses != 0 {
		t.Errorf("L1 accesses = %d with full bypass", resNone.Cache.Accesses)
	}
}

// hookRecorder captures hook invocations.
type hookRecorder struct {
	calls []hookCall
}

type hookCall struct {
	callee string
	mask   uint32
	args   []LaneValues
	cta    int
	warp   int
}

func (h *hookRecorder) OnHook(w *WarpView, call *ir.Instr, args []*LaneValues) error {
	rows := make([]LaneValues, len(args)) // the rows are lent: keep copies
	for i, a := range args {
		rows[i] = *a
	}
	h.calls = append(h.calls, hookCall{
		callee: call.Callee, mask: w.ActiveMask, args: rows,
		cta: w.CTALinear, warp: w.WarpInCTA,
	})
	return nil
}

const hookSrc = `
module hooked
kernel @k(%p: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %a  = gep %p, %tx, 4
  call @__advisor_record_mem(%a, 32, 1)
  %v  = ld f32 global [%a]
  ret
}
`

func TestLaunchHookDispatch(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, hookSrc)
	p, _ := d.Mem.Alloc(4 * 64)
	rec := &hookRecorder{}
	res, err := d.Launch(m.Func("k"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{64, 1, 1},
		Args:  []uint64{p, ir.I32Bits(64)},
		Hooks: rec, L1WarpsPerCTA: -1,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if len(rec.calls) != 2 { // one per warp
		t.Fatalf("hook calls = %d, want 2", len(rec.calls))
	}
	if res.HookCalls != 2 {
		t.Errorf("res.HookCalls = %d", res.HookCalls)
	}
	c := rec.calls[0]
	if c.callee != ir.HookPrefix+"record_mem" {
		t.Errorf("callee = %q", c.callee)
	}
	if c.mask != FullMask {
		t.Errorf("mask = %#x", c.mask)
	}
	// Per-lane addresses must be p + 4*lane (warp 0) etc.
	for _, call := range rec.calls {
		base := p + uint64(call.warp)*WarpSize*4
		for lane := 0; lane < WarpSize; lane++ {
			if got := call.args[0][lane]; got != base+uint64(4*lane) {
				t.Fatalf("warp %d lane %d addr = %#x, want %#x", call.warp, lane, got, base+uint64(4*lane))
			}
		}
		if call.args[1][0] != 32 || call.args[2][0] != 1 {
			t.Errorf("const hook args = %d, %d", call.args[1][0], call.args[2][0])
		}
	}
}

func TestLaunchHooksNilSkipsHooks(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, hookSrc)
	p, _ := d.Mem.Alloc(4 * 64)
	res, err := d.Launch(m.Func("k"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{64, 1, 1},
		Args: []uint64{p, ir.I32Bits(64)}, L1WarpsPerCTA: -1,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if res.HookCalls != 2 {
		t.Errorf("hook calls counted = %d", res.HookCalls)
	}
}

func TestLaunchDeterministic(t *testing.T) {
	d1 := newTestDevice()
	d2 := newTestDevice()
	m := parseKernel(t, scaleSrc)
	const n = 2048
	run := func(d *Device) *LaunchResult {
		in, _ := d.Mem.Alloc(4 * n)
		out, _ := d.Mem.Alloc(4 * n)
		res, err := d.Launch(m.Func("scale"), LaunchParams{
			Grid: [3]int{16, 1, 1}, Block: [3]int{128, 1, 1},
			Args:          []uint64{in, out, ir.I32Bits(n), ir.F32Bits(2)},
			L1WarpsPerCTA: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(d1), run(d2)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("non-deterministic launch results:\n%+v\n%+v", r1, r2)
	}
}

func TestLaunchArgsValidation(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, scaleSrc)
	if _, err := d.Launch(m.Func("scale"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
		Args: []uint64{1, 2}, L1WarpsPerCTA: -1,
	}); err == nil {
		t.Error("arg count mismatch accepted")
	}
	if _, err := d.Launch(m.Func("scale"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{2048, 1, 1},
		Args: []uint64{1, 2, 3, 4}, L1WarpsPerCTA: -1,
	}); err == nil {
		t.Error("oversized CTA accepted")
	}
}
