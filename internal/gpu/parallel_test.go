package gpu

import (
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/runner"
)

// testPool returns a pool with a genuinely >1 worker count even on a
// single-core machine (runner.New clamps to GOMAXPROCS, which would
// silently degrade these tests to the serial path they are meant to
// compare against).
func testPool(t *testing.T, workers int) *runner.Pool {
	t.Helper()
	if runtime.GOMAXPROCS(0) < workers {
		old := runtime.GOMAXPROCS(workers)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	p := runner.New(workers)
	if p.Workers() != workers {
		t.Fatalf("pool has %d workers, want %d", p.Workers(), workers)
	}
	return p
}

// pcall is one recorded hook event with every field the profiler can
// observe, including the per-warp HookCtx scratch the recorder mutates to
// verify per-warp continuity from one event of a warp to the next.
type pcall struct {
	callee  string
	cta     int
	warp    int
	sm      int
	mask    uint32
	cycle   int64
	hookCtx int32
	arg0    uint64
}

// ctxRecorder records every hook event and advances the warp's HookCtx
// the way the profiler's shadow stack does, so the recorded stream proves
// both global ordering and per-warp context continuity. failAt > 0 makes
// the failAt-th call error (1-based), modeling an injected hook fault.
type ctxRecorder struct {
	calls  []pcall
	failAt int
}

func (r *ctxRecorder) OnHook(w *WarpView, call *ir.Instr, args []LaneValues) error {
	r.calls = append(r.calls, pcall{
		callee: call.Callee, cta: w.CTALinear, warp: w.WarpInCTA, sm: w.SM,
		mask: w.ActiveMask, cycle: w.Cycle, hookCtx: w.HookCtx, arg0: args[0][0],
	})
	w.HookCtx++ // per-warp continuity: the warp's next event must see the incremented value
	if r.failAt > 0 && len(r.calls) == r.failAt {
		return fmt.Errorf("injected hook error (call %d)", r.failAt)
	}
	return nil
}

// parallelScaleSrc touches global memory per thread with a hook per
// visit, so each warp raises several events (exercising HookCtx
// continuity across the events of one warp).
const parallelScaleSrc = `
module par
kernel @work(%in: ptr, %out: ptr, %n: i32) {
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
  call @__advisor_record_mem(%a, 32, 1)
  %v = ld f32 global [%a]
  %w = fmul f32 %v, 3.0
  %o = gep %out, %i, 4
  call @__advisor_record_mem(%o, 32, 2)
  st f32 global [%o], %w
  br exit
exit:
  ret
}
`

// nativeScaleSrc is parallelScaleSrc as the uninstrumented program: no
// hook call anywhere in the module, so a pooled launch of it shards.
var nativeScaleSrc = regexp.MustCompile(`(?m)^.*call @`+ir.HookPrefix+`.*\n`).
	ReplaceAllString(parallelScaleSrc, "")

type parRun struct {
	res   LaunchResult
	mem   []byte
	calls []pcall
	err   error
}

// runParKernel executes parallelScaleSrc on a fresh device with the given
// SM count and pool, returning everything observable.
func runParKernel(t *testing.T, sms int, pool *runner.Pool, failAt int) parRun {
	t.Helper()
	rec := &ctxRecorder{failAt: failAt}
	r := launchScale(t, parallelScaleSrc, rec, sms, pool)
	r.calls = rec.calls
	return r
}

// launchScale runs the @work kernel of src (parallelScaleSrc or its native
// twin) over 4096 elements on a fresh device.
func launchScale(t *testing.T, src string, hooks Hooks, sms int, pool *runner.Pool) parRun {
	t.Helper()
	cfg := KeplerK40c()
	cfg.SMs = sms
	d := NewDevice(cfg, 16<<20)
	m := parseKernel(t, src)
	const n = 4096
	in, _ := d.Mem.Alloc(4 * n)
	out, _ := d.Mem.Alloc(4 * n)
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i%97) + 0.25
	}
	writeF32s(t, d, in, vals)

	res, err := d.Launch(m.Func("work"), LaunchParams{
		Grid: [3]int{32, 1, 1}, Block: [3]int{128, 1, 1},
		Args:  []uint64{in, out, ir.I32Bits(n)},
		Hooks: hooks, Pool: pool, L1WarpsPerCTA: -1,
	})
	r := parRun{err: err}
	if err == nil {
		r.res = *res
		r.mem = make([]byte, 4*n)
		if err := d.Mem.ReadBytes(out, r.mem); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestParallelLaunchByteIdentical is the tentpole guarantee: at every SM
// count, a pooled launch must be byte-identical to the serial one —
// LaunchResult, final memory, and the complete hook event stream
// including per-warp HookCtx continuity. The hooked kernel keeps the SM
// order at every worker count, so its arm holds by construction; the
// native arm is the one that fans out, and run under -race it proves the
// shard fan-out is race-free.
func TestParallelLaunchByteIdentical(t *testing.T) {
	pool := testPool(t, 8)
	for _, sms := range []int{1, 2, 15} {
		t.Run(fmt.Sprintf("SMs=%d", sms), func(t *testing.T) {
			serial := runParKernel(t, sms, nil, 0)
			if serial.err != nil {
				t.Fatal(serial.err)
			}
			par := runParKernel(t, sms, pool, 0)
			if par.err != nil {
				t.Fatal(par.err)
			}
			if !reflect.DeepEqual(serial.res, par.res) {
				t.Errorf("LaunchResult differs:\nserial: %+v\npooled: %+v", serial.res, par.res)
			}
			if string(serial.mem) != string(par.mem) {
				t.Error("final memory image differs between serial and pooled launch")
			}
			if len(serial.calls) != len(par.calls) {
				t.Fatalf("hook stream length %d != %d", len(serial.calls), len(par.calls))
			}
			for i := range serial.calls {
				if serial.calls[i] != par.calls[i] {
					t.Fatalf("hook event %d differs:\nserial: %+v\npooled: %+v",
						i, serial.calls[i], par.calls[i])
				}
			}

			nserial := launchScale(t, nativeScaleSrc, nil, sms, nil)
			npar := launchScale(t, nativeScaleSrc, nil, sms, pool)
			if nserial.err != nil || npar.err != nil || nserial.res.HookCalls != 0 {
				t.Fatalf("native launch: serial=%v pooled=%v, %d hook calls", nserial.err, npar.err, nserial.res.HookCalls)
			}
			if !reflect.DeepEqual(nserial.res, npar.res) {
				t.Errorf("native LaunchResult differs:\nserial: %+v\npooled: %+v", nserial.res, npar.res)
			}
			if string(nserial.mem) != string(npar.mem) || string(nserial.mem) != string(serial.mem) {
				t.Error("native final memory image differs between serial, pooled and hooked launch")
			}
		})
	}
}

// Injected hook errors must fault the same call, with the same text, at
// every worker count — the property fault-injection ordinals key on.
func TestParallelLaunchFaultIdentity(t *testing.T) {
	pool := testPool(t, 8)
	for _, failAt := range []int{1, 7, 100} {
		serial := runParKernel(t, 15, nil, failAt)
		par := runParKernel(t, 15, pool, failAt)
		if serial.err == nil || par.err == nil {
			t.Fatalf("failAt=%d: expected faults, got serial=%v pooled=%v", failAt, serial.err, par.err)
		}
		if serial.err.Error() != par.err.Error() {
			t.Errorf("failAt=%d: fault text differs:\nserial: %v\npooled: %v",
				failAt, serial.err, par.err)
		}
		if !strings.Contains(par.err.Error(), "injected hook error") {
			t.Errorf("failAt=%d: fault lost the hook error: %v", failAt, par.err)
		}
		// The events before the fault are also identical.
		if len(serial.calls) != len(par.calls) {
			t.Errorf("failAt=%d: %d events before fault serially, %d pooled",
				failAt, len(serial.calls), len(par.calls))
		}
	}
}

// oobSrc stores each thread's global id + 1 to out and to q, except that
// CTAs from %k up store through %bad instead.
const oobSrc = `
module oob
kernel @k(%out: ptr, %q: ptr, %bad: ptr, %k: i32) {
entry:
  %tx   = sreg tid.x
  %bx   = sreg ctaid.x
  %bd   = sreg ntid.x
  %base = mul i32 %bx, %bd
  %i    = add i32 %base, %tx
  %v    = add i32 %i, 1
  %c    = icmp lt i32 %bx, %k
  cbr %c, good, wild
good:
  %oa = gep %out, %i, 4
  st i32 global [%oa], %v
  %qa = gep %q, %i, 4
  st i32 global [%qa], %v
  br exit
wild:
  %ba = gep %bad, %i, 4
  st i32 global [%ba], %v
  br exit
exit:
  ret
}
`

// A native kernel that faults on several SMs at once reports the fault the
// serial SM order reaches first, and the sharded launch — whose writes
// stay in the shards until every one has succeeded — leaves device memory
// neither written nor grown.
func TestParallelLaunchExecFaultIdentity(t *testing.T) {
	const capacity = 16 << 20
	const q = 8 << 20 // never allocated: above the backed prefix
	const n = 15 * 64
	run := func(pool *runner.Pool) (*Device, uint64, int, error) {
		cfg := KeplerK40c()
		cfg.SMs = 15
		d := NewDevice(cfg, capacity)
		out, _ := d.Mem.Alloc(4 * n)
		mark := len(d.Mem.buf)
		// One CTA per SM; CTAs 3…14 (SMs 3…14) store past the capacity.
		_, err := d.Launch(parseKernel(t, oobSrc).Func("k"), LaunchParams{
			Grid: [3]int{15, 1, 1}, Block: [3]int{64, 1, 1},
			Args: []uint64{out, q, capacity, ir.I32Bits(3)},
			Pool: pool, L1WarpsPerCTA: -1,
		})
		return d, out, mark, err
	}
	_, _, _, serial := run(nil)
	d, out, mark, par := run(testPool(t, 8))
	if serial == nil || par == nil {
		t.Fatalf("expected faults, got serial=%v pooled=%v", serial, par)
	}
	if !strings.Contains(serial.Error(), "(cta 3, warp 0)") || !strings.Contains(serial.Error(), "out of range") {
		t.Errorf("serial fault = %v, want the out-of-range store of CTA 3", serial)
	}
	if par.Error() != serial.Error() {
		t.Errorf("fault text differs:\nserial: %v\npooled: %v", serial, par)
	}
	if len(d.Mem.buf) != mark {
		t.Errorf("failed sharded launch grew device memory from %d to %d bytes", mark, len(d.Mem.buf))
	}
	got, err := d.Mem.Int32Slice(out, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("failed sharded launch wrote out[%d] = %d", i, v)
		}
	}
}

// hookLoopSrc raises %n hook calls per warp and touches no memory.
const hookLoopSrc = `
module hookloop
kernel @spin(%p: ptr, %n: i32) {
entry:
  %k = mov i32 0
  br loop
loop:
  %c = icmp lt i32 %k, %n
  cbr %c, body, exit
body:
  call @__advisor_record_mem(%p, 32, 1)
  %k = add i32 %k, 1
  br loop
exit:
  ret
}
`

type countingHooks struct{ calls int }

func (h *countingHooks) OnHook(*WarpView, *ir.Instr, []LaneValues) error {
	h.calls++
	return nil
}

// A hooked launch allocates what its sink keeps, not a record per hook
// call: the pool must add nothing that grows with the number of events.
func TestHookedLaunchAllocIndependentOfPool(t *testing.T) {
	m := parseKernel(t, hookLoopSrc)
	run := func(pool *runner.Pool) uint64 {
		cfg := KeplerK40c()
		cfg.SMs = 15
		d := NewDevice(cfg, 1<<20)
		p, _ := d.Mem.Alloc(256)
		hooks := &countingHooks{}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := d.Launch(m.Func("spin"), LaunchParams{
			Grid: [3]int{30, 1, 1}, Block: [3]int{128, 1, 1},
			Args:  []uint64{p, ir.I32Bits(1000)},
			Hooks: hooks, Pool: pool, L1WarpsPerCTA: -1,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if hooks.calls != 30*4*1000 {
			t.Fatalf("%d hook calls, want %d", hooks.calls, 30*4*1000)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	pool := testPool(t, 8)
	serial, pooled := run(nil), run(pool)
	if float64(pooled) > 1.1*float64(serial) {
		t.Errorf("pooled hooked launch allocated %d bytes, serial %d: want at most 1.1x", pooled, serial)
	}
}

// Kernels with atomics carry real cross-SM communication and must keep
// the serial path — results with a pool still match the serial ones.
func TestParallelLaunchAtomicsStaySerial(t *testing.T) {
	m := parseKernel(t, `
module at
kernel @count(%p: ptr) {
entry:
  %old = atomadd i32 global [%p], 1
  ret
}
`)
	run := func(pool *runner.Pool) int32 {
		cfg := KeplerK40c()
		cfg.SMs = 15
		d := NewDevice(cfg, 1<<20)
		p, _ := d.Mem.Alloc(4)
		if _, err := d.Launch(m.Func("count"), LaunchParams{
			Grid: [3]int{30, 1, 1}, Block: [3]int{64, 1, 1},
			Args: []uint64{p}, Pool: pool, L1WarpsPerCTA: -1,
		}); err != nil {
			t.Fatal(err)
		}
		got, _ := d.Mem.Int32Slice(p, 1)
		return got[0]
	}
	want := run(nil)
	if got := run(testPool(t, 8)); got != want {
		t.Errorf("atomic count = %d with pool, %d serial", got, want)
	}
	if want != 30*64 {
		t.Errorf("atomic count = %d, want %d", want, 30*64)
	}
}

// deadlockCTA must blame a CTA that is actually waiting at the barrier,
// not whichever CTA was admitted first.
func TestDeadlockCTAAttribution(t *testing.T) {
	waiting := func(id int) *ctaState {
		c := &ctaState{id: id}
		c.warps = []*warpState{{cta: c, atBarrier: true}}
		return c
	}
	idle := func(id int) *ctaState {
		c := &ctaState{id: id}
		c.warps = []*warpState{{cta: c}}
		return c
	}

	// resident[0] is not involved; CTA 3 is the lowest-id waiter.
	resident := []*ctaState{idle(7), waiting(9), waiting(3)}
	if got := deadlockCTA(resident); got != 3 {
		t.Errorf("deadlockCTA = %d, want 3 (lowest-id CTA waiting at a barrier)", got)
	}
	// Fallback when no warp waits (not reachable from a real deadlock).
	if got := deadlockCTA([]*ctaState{idle(5), idle(1)}); got != 5 {
		t.Errorf("deadlockCTA fallback = %d, want resident[0] id 5", got)
	}
}

// Shared-memory capacity must bound occupancy: with a per-SM capacity of
// one CTA's allocation, CTAs serialize and lose latency hiding, so the
// modeled cycle count rises.
func TestOccupancySharedMemLimit(t *testing.T) {
	src := `
module occ
kernel @k(%in: ptr, %out: ptr) {
  shared @buf: f32[1024]
entry:
  %tx = sreg tid.x
  %bx = sreg ctaid.x
  %bd = sreg ntid.x
  %b  = mul i32 %bx, %bd
  %i  = add i32 %b, %tx
  %a  = gep %in, %i, 4
  %v  = ld f32 global [%a]
  %sp = shptr @buf
  %sa = gep %sp, %tx, 4
  st f32 shared [%sa], %v
  bar
  %w  = ld f32 shared [%sa]
  %o  = gep %out, %i, 4
  st f32 global [%o], %w
  ret
}
`
	run := func(perSM int64) int64 {
		cfg := KeplerK40c()
		cfg.SMs = 1
		cfg.SharedMemPerSM = perSM
		d := NewDevice(cfg, 1<<20)
		m := parseKernel(t, src)
		in, _ := d.Mem.Alloc(4 * 1024)
		out, _ := d.Mem.Alloc(4 * 1024)
		res, err := d.Launch(m.Func("k"), LaunchParams{
			Grid: [3]int{4, 1, 1}, Block: [3]int{256, 1, 1},
			Args: []uint64{in, out}, L1WarpsPerCTA: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	unlimited := run(0)      // 0 disables the shared-memory limit
	limited := run(4 * 1024) // exactly one CTA's shared allocation
	if limited <= unlimited {
		t.Errorf("cycles with smem-limited occupancy = %d, want > %d (unlimited)", limited, unlimited)
	}
}

// shardWrites is the parallel path's copy-on-write memory view; verify
// reads see own writes, spanning accesses work, and applyTo lands exactly
// the written bytes.
func TestShardWrites(t *testing.T) {
	base := make([]byte, 3*shardPageSize)
	for i := range base {
		base[i] = byte(i)
	}
	ws := newShardWrites(base)

	// Read-through before any write.
	if got := ws.load(ir.MemI8, 5); got != uint64(base[5]) {
		t.Errorf("clean read = %d, want %d", got, base[5])
	}
	// Own write visible, base untouched.
	ws.store(ir.MemI32, 100, 0xAABBCCDD)
	if got := ws.load(ir.MemI32, 100); got != 0xAABBCCDD {
		t.Errorf("own write not visible: %#x", got)
	}
	if base[100] == 0xDD {
		t.Error("store leaked into base before applyTo")
	}
	// Spanning store across the page boundary.
	span := uint64(shardPageSize - 4)
	ws.store(ir.MemI64, span, 0x1122334455667788)
	if got := ws.load(ir.MemI64, span); got != 0x1122334455667788 {
		t.Errorf("spanning load = %#x", got)
	}

	dst := make([]byte, len(base))
	copy(dst, base)
	ws.applyTo(dst)
	if got := loadFrom(dst, ir.MemI32, 100); got != 0xAABBCCDD {
		t.Errorf("applyTo missed the write: %#x", got)
	}
	if got := loadFrom(dst, ir.MemI64, span); got != 0x1122334455667788 {
		t.Errorf("applyTo missed the spanning write: %#x", got)
	}
	// Unwritten bytes stay pristine even on dirtied pages.
	if dst[101+3] != base[104] || dst[99] != base[99] {
		t.Error("applyTo touched unwritten bytes")
	}
}
