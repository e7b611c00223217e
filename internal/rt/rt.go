// Package rt is the CUDA-style host runtime of the reproduction: the
// layer that, in the paper, is covered by the mandatory host-side
// instrumentation the LLVM engine inserts into CPU bitcode — call/return
// hooks for CPU functions, the malloc family, cudaMalloc, and cudaMemcpy
// (Section 3.1-I).
//
// Host drivers (the benchmark applications, examples and tests) are Go
// programs written against this API. Every operation raises the same
// event, with the same payload, that the paper's inserted instrumentation
// would raise: function enter/leave with source locations (captured from
// the Go caller, standing in for debug info), host allocations with
// address ranges, device allocations, and transfer ranges. The profiler
// (package profiler) subscribes as a Listener and builds the code- and
// data-centric maps from these events.
package rt

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/runner"
)

// CopyKind is a cudaMemcpy direction.
type CopyKind uint8

// Transfer directions.
const (
	H2D CopyKind = iota
	D2H
)

func (k CopyKind) String() string {
	switch k {
	case H2D:
		return "HostToDevice"
	case D2H:
		return "DeviceToHost"
	}
	return fmt.Sprintf("copy(%d)", uint8(k))
}

// HostBuf is a tracked host allocation: a virtual host address range plus
// backing storage. The virtual address space exists so data-centric
// profiling can name host objects by range, as the paper's interposed
// malloc does.
type HostBuf struct {
	Addr  uint64
	Data  []byte
	Label string
}

// Bytes returns the allocation size.
func (h *HostBuf) Bytes() int64 { return int64(len(h.Data)) }

// DevPtr is a device global-memory address.
type DevPtr uint64

// LaunchInfo describes one kernel launch to the Listener.
type LaunchInfo struct {
	Kernel   string
	Grid     [3]int
	Block    [3]int
	Module   *ir.Module
	Tables   *instrument.Tables // nil for native (uninstrumented) programs
	Loc      ir.Loc             // host call site
	Sequence int                // launch sequence number in this context
}

// Listener receives the events the mandatory instrumentation produces.
// The profiler implements it; a nil listener runs natively.
type Listener interface {
	HostEnter(fn string, loc ir.Loc)
	HostLeave()
	HostAlloc(buf *HostBuf, loc ir.Loc)
	DeviceAlloc(ptr uint64, bytes int64, loc ir.Loc)
	Memcpy(kind CopyKind, dst, src uint64, bytes int64, loc ir.Loc)
	// KernelLaunch returns the hook sink for this launch (nil to run the
	// kernel without instrumentation callbacks).
	KernelLaunch(info *LaunchInfo) (gpu.Hooks, error)
	KernelEnd(info *LaunchInfo, res *gpu.LaunchResult)
}

// Context is a host process: a device plus the event plumbing.
type Context struct {
	Dev      *gpu.Device
	listener Listener

	nextHost uint64
	launches int

	// LaunchOptions applied to subsequent Launch calls.
	Options LaunchOptions

	// KernelTime accumulates the wall-clock time spent executing kernels
	// (including instrumentation hooks and profile collection) — the
	// quantity the paper's overhead study (Figure 10) compares between
	// native and instrumented builds.
	KernelTime time.Duration
}

// LaunchOptions tune kernel execution.
type LaunchOptions struct {
	// L1Warps controls horizontal cache bypassing: 0 (default) lets every
	// warp use L1 (no bypassing); k > 0 lets only the first k warps per
	// CTA use L1; FullBypass sends every warp around L1.
	L1Warps int
	// MaxWarpInstrs overrides the runaway-kernel guard (0 = default).
	MaxWarpInstrs int64
	// Pool, when non-nil with more than one worker, lets the executor fan
	// the SM shards of a launch that calls no hook out across idle pool
	// workers. Results are byte-identical to the serial path at every
	// worker count (see gpu.LaunchParams.Pool); a nil pool keeps launches
	// serial.
	Pool *runner.Pool
	// Ctx, when non-nil, bounds every subsequent Launch: the executor
	// polls it at the warp-step guard and aborts the kernel when the
	// context ends (per-cell deadlines in the experiment runner). It
	// lives in options rather than a Launch parameter because the
	// benchmark drivers' Run signature is fixed; the experiment layer
	// sets it once per cell before handing the context to the driver.
	Ctx context.Context
	// RecordSchedule makes every subsequent Launch capture its per-SM
	// scheduling timeline in LaunchResult.Schedule (see
	// gpu.LaunchParams.RecordSchedule). Purely observational; off by
	// default so existing outputs stay byte-identical.
	RecordSchedule bool
}

// FullBypass as L1Warps sends all global accesses around the L1 cache.
const FullBypass = -1

// NewContext creates a host context on a device. listener may be nil.
func NewContext(dev *gpu.Device, listener Listener) *Context {
	return &Context{Dev: dev, listener: listener, nextHost: 0x7f00_0000_0000}
}

// callerLoc captures the host source location of the caller's caller,
// standing in for the debug info the paper's engine reads.
func callerLoc(skip int) ir.Loc {
	_, file, line, ok := runtime.Caller(skip + 1)
	if !ok {
		return ir.Loc{}
	}
	return ir.Loc{File: filepath.Base(file), Line: line}
}

// Enter pushes a host function frame (the instrumented call hook) and
// returns the matching pop. Use as: defer ctx.Enter("main")().
func (c *Context) Enter(fn string) func() {
	if c.listener == nil {
		return func() {}
	}
	c.listener.HostEnter(fn, callerLoc(1))
	return func() { c.listener.HostLeave() }
}

// Malloc allocates a tracked host buffer (the malloc-family hook).
func (c *Context) Malloc(n int64, label string) *HostBuf {
	addr := c.nextHost
	c.nextHost += uint64((n + 255) &^ 255)
	buf := &HostBuf{Addr: addr, Data: make([]byte, n), Label: label}
	if c.listener != nil {
		c.listener.HostAlloc(buf, callerLoc(1))
	}
	return buf
}

// AllocGate is an optional Listener extension: CudaMalloc consults it
// before reserving device memory, so a fault-injecting listener can veto
// allocations deterministically (testing the degradation path of a full
// or failing device allocator).
type AllocGate interface {
	AllocCheck(bytes int64) error
}

// CudaMalloc allocates device global memory (the cudaMalloc hook).
func (c *Context) CudaMalloc(n int64) (DevPtr, error) {
	if g, ok := c.listener.(AllocGate); ok {
		if err := g.AllocCheck(n); err != nil {
			return 0, fmt.Errorf("rt: cudaMalloc(%d): %w", n, err)
		}
	}
	addr, err := c.Dev.Mem.Alloc(n)
	if err != nil {
		return 0, err
	}
	if c.listener != nil {
		c.listener.DeviceAlloc(addr, n, callerLoc(1))
	}
	return DevPtr(addr), nil
}

// MemcpyH2D copies the first n bytes of src to device memory (the
// cudaMemcpy hook, host-to-device).
func (c *Context) MemcpyH2D(dst DevPtr, src *HostBuf, n int64) error {
	if n > src.Bytes() {
		return fmt.Errorf("rt: H2D copy of %d bytes from %d-byte host buffer %q", n, src.Bytes(), src.Label)
	}
	if err := c.Dev.Mem.WriteBytes(uint64(dst), src.Data[:n]); err != nil {
		return err
	}
	if c.listener != nil {
		c.listener.Memcpy(H2D, uint64(dst), src.Addr, n, callerLoc(1))
	}
	return nil
}

// MemcpyD2H copies n bytes of device memory into dst.
func (c *Context) MemcpyD2H(dst *HostBuf, src DevPtr, n int64) error {
	if n > dst.Bytes() {
		return fmt.Errorf("rt: D2H copy of %d bytes into %d-byte host buffer %q", n, dst.Bytes(), dst.Label)
	}
	if err := c.Dev.Mem.ReadBytes(uint64(src), dst.Data[:n]); err != nil {
		return err
	}
	if c.listener != nil {
		c.listener.Memcpy(D2H, dst.Addr, uint64(src), n, callerLoc(1))
	}
	return nil
}

// Arg is a typed kernel argument.
type Arg struct{ bits uint64 }

// Ptr passes a device pointer argument.
func Ptr(p DevPtr) Arg { return Arg{uint64(p)} }

// I32 passes an i32 argument.
func I32(v int32) Arg { return Arg{ir.I32Bits(v)} }

// I64 passes an i64 argument.
func I64(v int64) Arg { return Arg{uint64(v)} }

// F32 passes an f32 argument.
func F32(v float32) Arg { return Arg{ir.F32Bits(v)} }

// Launch runs a kernel from prog synchronously (the paper's profiler
// operates at kernel-instance granularity; launches are serialized). The
// Listener's KernelLaunch/KernelEnd bracket the execution.
func (c *Context) Launch(prog *instrument.Program, kernel string, grid, block [3]int, args ...Arg) (*gpu.LaunchResult, error) {
	f := prog.Module.Func(kernel)
	if f == nil || !f.IsKernel {
		return nil, fmt.Errorf("rt: no kernel %q in module %s", kernel, prog.Module.Name)
	}
	info := &LaunchInfo{
		Kernel: kernel, Grid: grid, Block: block,
		Module: prog.Module, Tables: prog.Tables,
		Loc: callerLoc(1), Sequence: c.launches,
	}
	c.launches++

	var hooks gpu.Hooks
	if c.listener != nil {
		h, err := c.listener.KernelLaunch(info)
		if err != nil {
			return nil, err
		}
		hooks = h
	}

	start := time.Now()
	defer func() { c.KernelTime += time.Since(start) }()

	bits := make([]uint64, len(args))
	for i, a := range args {
		bits[i] = a.bits
	}
	l1Warps := -1
	switch {
	case c.Options.L1Warps == FullBypass:
		l1Warps = 0
	case c.Options.L1Warps > 0:
		l1Warps = c.Options.L1Warps
	}
	res, err := c.Dev.Launch(f, gpu.LaunchParams{
		Grid: grid, Block: block, Args: bits,
		Hooks:          hooks,
		Pool:           c.Options.Pool,
		L1WarpsPerCTA:  l1Warps,
		MaxWarpInstrs:  c.Options.MaxWarpInstrs,
		Ctx:            c.Options.Ctx,
		WatchShared:    prog.Opts.SharedMemory,
		RecordSchedule: c.Options.RecordSchedule,
	})
	if err != nil {
		return nil, err
	}
	if c.listener != nil {
		c.listener.KernelEnd(info, res)
	}
	return res, nil
}

// Dim returns a 1-D dimension triple.
func Dim(x int) [3]int { return [3]int{x, 1, 1} }

// Dim2 returns a 2-D dimension triple.
func Dim2(x, y int) [3]int { return [3]int{x, y, 1} }
