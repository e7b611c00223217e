package gpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"cudaadvisor/internal/ir"
)

// A wild pointer within a few bytes of 2^64 makes addr+size wrap around
// uint64: without the overflow guard the wrapped end passes the
// upper-bound test and the access panics on the backing slice instead of
// faulting. The guard must catch it on both load and store.
func TestDeviceMemoryWraparoundChecked(t *testing.T) {
	d := NewDeviceMemory(1 << 20)
	wild := ^uint64(0) - 2 // wild+4 wraps to 1
	if _, err := d.load(ir.MemI32, wild); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("load at %#x: err = %v, want out-of-range", wild, err)
	}
	if err := d.store(ir.MemI64, wild, 1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("store at %#x: err = %v, want out-of-range", wild, err)
	}
	if err := d.check(^uint64(0), 1); err == nil {
		t.Error("check(2^64-1, 1) passed")
	}
}

func TestSharedMemoryWraparoundChecked(t *testing.T) {
	s := newSharedMem(4096, false)
	wild := ^uint64(0) - 1 // wild+4 wraps to 2
	if _, err := s.load(ir.MemF32, wild); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("shared load at %#x: err = %v, want out-of-range", wild, err)
	}
	if err := s.store(ir.MemI32, wild, 7); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("shared store at %#x: err = %v, want out-of-range", wild, err)
	}
}

// The same hazard end to end: a kernel dereferencing a wild pointer must
// raise a gpu.Fault attributed to the faulting instruction, not panic the
// host process.
func TestLaunchWildGlobalPointerFaults(t *testing.T) {
	src := `
module wild
kernel @wild(%p: ptr) {
entry:
  %v = ld i32 global [%p]
  st i32 global [%p], %v
  ret
}
`
	d := newTestDevice()
	m := parseKernel(t, src)
	_, err := d.Launch(m.Func("wild"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
		Args: []uint64{^uint64(0) - 2}, L1WarpsPerCTA: -1,
	})
	var f *Fault
	if !errors.As(err, &f) || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want out-of-range gpu.Fault", err)
	}
}

// A negative shared-memory index computes an address near 2^64 (shared
// addresses are offsets); the wrapped end must fault, not panic.
func TestLaunchWildSharedPointerFaults(t *testing.T) {
	src := `
module wildsh
kernel @wildsh() {
  shared @buf: f32[8]
entry:
  %p = shptr @buf
  %i = mov i32 -1
  %a = gep %p, %i, 4
  st f32 shared [%a], 1.0
  ret
}
`
	d := newTestDevice()
	m := parseKernel(t, src)
	_, err := d.Launch(m.Func("wildsh"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1}, L1WarpsPerCTA: -1,
	})
	var f *Fault
	if !errors.As(err, &f) || !strings.Contains(err.Error(), "shared memory") {
		t.Fatalf("err = %v, want shared-memory gpu.Fault", err)
	}
}

func TestAllocOOMReportsSaturatedFree(t *testing.T) {
	d := NewDeviceMemory(1024)
	if _, err := d.Alloc(100); err != nil {
		t.Fatal(err)
	}
	// Request more than remains: the free count must be the real
	// remainder, not an underflowed garbage number.
	_, err := d.Alloc(10_000)
	if err == nil || !strings.Contains(err.Error(), "512 free") {
		t.Errorf("err = %v, want \"... 512 free\" (capacity 1024, cursor at 512)", err)
	}

	// Cursor beyond capacity (reserved region larger than the device):
	// free saturates at 0 instead of wrapping to ~2^64.
	small := NewDeviceMemory(200) // next = 256 > capacity
	_, err = small.Alloc(1)
	if err == nil || !strings.Contains(err.Error(), "0 free") {
		t.Errorf("err = %v, want \"... 0 free\"", err)
	}
}

func TestAllocOverflowGuard(t *testing.T) {
	d := NewDeviceMemory(1 << 20)
	// Drive the cursor near 2^64 (whitebox) so addr+n wraps: the guard
	// must reject it rather than treat the wrapped end as in range.
	d.next = ^uint64(0) - (1 << 20)
	if _, err := d.Alloc(math.MaxInt64); err == nil {
		t.Error("wrapping allocation accepted")
	}
	if _, err := d.Alloc(1 << 30); err == nil {
		t.Error("allocation beyond capacity accepted")
	}
}

// aboveMarkSrc reads and writes global memory no allocation or copy ever
// touched: thread i loads p[i] (never written: must read 0), stores
// p[i]+i+1 to q[i], and reports what it loaded in out[i].
const aboveMarkSrc = `
module abovemark
kernel @touch(%p: ptr, %q: ptr, %out: ptr) {
entry:
  %tx   = sreg tid.x
  %bx   = sreg ctaid.x
  %bd   = sreg ntid.x
  %base = mul i32 %bx, %bd
  %i    = add i32 %base, %tx
  %pa   = gep %p, %i, 4
  %v    = ld i32 global [%pa]
  %i1   = add i32 %i, 1
  %w    = add i32 %v, %i1
  %qa   = gep %q, %i, 4
  st i32 global [%qa], %w
  %oa   = gep %out, %i, 4
  st i32 global [%oa], %v
  ret
}
`

// TestDeviceMemoryBackedOnDemand: capacity is a limit, not a footprint.
// Memory above the high-water mark but inside capacity reads as zero and
// accepts stores — from the host API, from the serial executor and
// through the parallel path's copy-on-write view — and only what was
// touched ends up backed. The sharded path shows in how far: it grows
// device memory once, after the join, to the end of the highest dirty
// page, where the serial path grows it store by store to the last byte
// written. A hook sink alone must not cost a native launch its shards
// (fault injection and wrapping listeners hand one to every launch).
func TestDeviceMemoryBackedOnDemand(t *testing.T) {
	const capacity = 64 << 20
	const p, q = 8 << 20, 16 << 20
	const n = 8 * 64

	d := NewDeviceMemory(capacity)
	if d.Size() != capacity {
		t.Errorf("Size = %d, want the capacity %d", d.Size(), capacity)
	}
	if v, err := d.load(ir.MemI64, p); err != nil || v != 0 {
		t.Errorf("load above the mark = %d, %v; want 0", v, err)
	}
	got := []byte{1, 2, 3, 4}
	if err := d.ReadBytes(capacity-4, got); err != nil || got[0]|got[1]|got[2]|got[3] != 0 {
		t.Errorf("ReadBytes at the end of capacity = %v, %v; want zeros", got, err)
	}
	if len(d.buf) != 0 {
		t.Errorf("reads backed %d bytes", len(d.buf))
	}
	if err := d.store(ir.MemI32, p, 0xCAFE); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadBytes(p-2, got); err != nil || got[2] != 0xFE || got[3] != 0xCA || got[0]|got[1] != 0 {
		t.Errorf("ReadBytes across the store = %v, %v", got, err)
	}
	if vals, err := d.Int32Slice(p, 2); err != nil || vals[0] != 0xCAFE || vals[1] != 0 {
		t.Errorf("Int32Slice straddling the mark = %v, %v", vals, err)
	}
	if err := d.store(ir.MemI8, capacity, 1); err == nil {
		t.Error("store at capacity accepted")
	}
	_, err := d.Alloc(capacity)
	if want := "gpu: out of device memory (67108864 requested, 67108608 free)"; err == nil || err.Error() != want {
		t.Errorf("Alloc error = %v, want %q", err, want)
	}
	d.Reset()
	if v, _ := d.load(ir.MemI32, p); v != 0 || len(d.buf) != 0 {
		t.Errorf("after Reset: load = %#x with %d bytes backed", v, len(d.buf))
	}

	for _, sms := range []int{1, 2, 15} {
		for _, tc := range []struct {
			workers int
			hooks   Hooks
			suffix  string
		}{{1, nil, ""}, {4, nil, ""}, {4, &ctxRecorder{}, "/hooks"}} {
			workers := tc.workers
			t.Run(fmt.Sprintf("SMs=%d/workers=%d%s", sms, workers, tc.suffix), func(t *testing.T) {
				cfg := KeplerK40c()
				cfg.SMs = sms
				dev := NewDevice(cfg, capacity)
				out, _ := dev.Mem.Alloc(4 * n)
				if mark := len(dev.Mem.buf); mark > 1<<20 {
					t.Fatalf("%d bytes backed after a %d-byte allocation", mark, 4*n)
				}
				lp := LaunchParams{
					Grid: [3]int{8, 1, 1}, Block: [3]int{64, 1, 1},
					Args: []uint64{p, q, out}, L1WarpsPerCTA: -1, Hooks: tc.hooks,
				}
				if workers > 1 {
					lp.Pool = testPool(t, workers)
				}
				if _, err := dev.Launch(parseKernel(t, aboveMarkSrc).Func("touch"), lp); err != nil {
					t.Fatal(err)
				}
				loaded, err := dev.Mem.Int32Slice(out, n)
				if err != nil {
					t.Fatal(err)
				}
				raw := make([]byte, 4*n)
				if err := dev.Mem.ReadBytes(q, raw); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if loaded[i] != 0 {
						t.Fatalf("thread %d loaded %d from never-written memory", i, loaded[i])
					}
					if v := int(binary.LittleEndian.Uint32(raw[4*i:])); v != i+1 {
						t.Fatalf("q[%d] = %d, want %d", i, v, i+1)
					}
				}
				want := q + 4*n // not page-aligned, so the two paths differ
				if sms > 1 && workers > 1 {
					want = (want + shardPageMask) &^ shardPageMask
				}
				if mark := len(dev.Mem.buf); mark != want {
					t.Errorf("%d bytes backed, want %d for the highest store at %d", mark, want, q+4*n)
				}
			})
		}
	}
}

// TestLaunchResultDoesNotPinDevice: a profile keeps LaunchResults for as
// long as it lives; that must not keep the device — and its global
// memory — reachable.
func TestLaunchResultDoesNotPinDevice(t *testing.T) {
	freed := make(chan struct{})
	launch := func() *LaunchResult {
		d := newTestDevice()
		runtime.SetFinalizer(d, func(*Device) { close(freed) })
		m := parseKernel(t, scaleSrc)
		in, _ := d.Mem.Alloc(4 * 64)
		out, _ := d.Mem.Alloc(4 * 64)
		res, err := d.Launch(m.Func("scale"), LaunchParams{
			Grid: [3]int{2, 1, 1}, Block: [3]int{32, 1, 1},
			Args:          []uint64{in, out, ir.I32Bits(64), ir.F32Bits(2)},
			L1WarpsPerCTA: -1, RecordSchedule: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := launch()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			if res.WarpInstrs == 0 || len(res.Schedule) == 0 {
				t.Errorf("retained result lost its contents: %+v", res)
			}
			return
		case <-deadline:
			t.Fatal("device still reachable while only its LaunchResult is retained")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
