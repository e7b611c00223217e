// Package profiler implements CUDAAdvisor's profiling component
// (Section 3.2): it subscribes to the host runtime's mandatory
// instrumentation events and to the device hooks the engine inserted,
// maintains the shadow call stacks on both sides, buffers the per-kernel
// traces, and performs the code-centric and data-centric attribution at
// the end of each kernel instance.
package profiler

import (
	"fmt"
	"math/bits"
	"sync"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/trace"
)

// AllocRec records one tracked allocation (host or device) with the
// calling context and source location of the allocation site — the
// data-centric map of Section 3.2.2.
type AllocRec struct {
	Addr   uint64
	Bytes  int64
	Ctx    int32 // calling context of the allocating function
	Loc    ir.Loc
	Label  string
	Device bool
}

// Contains reports whether addr falls inside the allocation.
func (a *AllocRec) Contains(addr uint64) bool {
	return addr >= a.Addr && addr < a.Addr+uint64(a.Bytes)
}

// CopyRec records one cudaMemcpy: the two memory ranges involved.
type CopyRec struct {
	Kind  rt.CopyKind
	Dst   uint64
	Src   uint64
	Bytes int64
	Ctx   int32
	Loc   ir.Loc
}

// KernelProfile is the profile of one kernel instance: its trace plus
// the contexts needed for attribution.
type KernelProfile struct {
	Info      *rt.LaunchInfo
	Tables    *instrument.Tables
	Trace     *trace.KernelTrace
	Result    *gpu.LaunchResult
	LaunchCtx int32 // host context at the launch site
	BaseCtx   int32 // LaunchCtx extended with the kernel frame

	// ArithCounts tallies arithmetic-hook events by opcode when the
	// arithmetic category is instrumented.
	ArithCounts map[ir.Op]int64

	// FlushErr records a failure of the final buffer flush at kernel end
	// (only possible with a flush sink; KernelEnd cannot return it).
	FlushErr error
}

// Profiler implements rt.Listener and gpu hook handling. One Profiler
// serves one host context; kernel profiles accumulate in Kernels.
type Profiler struct {
	CCT *trace.ContextTree

	hostCtx    int32
	HostAllocs []*AllocRec
	DevAllocs  []*AllocRec
	Copies     []*CopyRec
	Kernels    []*KernelProfile

	// OnKernelEnd, if set, is CUDAAdvisor's online analyzer entry point,
	// invoked at the end of every kernel instance (Section 3.3).
	OnKernelEnd func(*KernelProfile)

	// TraceCap bounds each kernel trace's Mem and Blocks buffers at this
	// many records (0 = unbounded, the default). With TraceSink set, full
	// buffers flush to it (the paper's finite-buffer design); without one
	// the trace falls back to deterministic per-warp sampling and the
	// analyses report the coverage fraction.
	TraceCap  int
	TraceSink trace.FlushSink

	mu       sync.Mutex
	analyses *Analyses // the run's bundle; see Analyses
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{CCT: trace.NewContextTree(), hostCtx: trace.Root}
}

var _ rt.Listener = (*Profiler)(nil)

// HostEnter implements rt.Listener: push onto the CPU shadow stack.
func (p *Profiler) HostEnter(fn string, loc ir.Loc) {
	p.hostCtx = p.CCT.Child(p.hostCtx, trace.Frame{Func: fn, Loc: loc})
}

// HostLeave implements rt.Listener: pop the CPU shadow stack.
func (p *Profiler) HostLeave() {
	if parent := p.CCT.Parent(p.hostCtx); parent >= 0 {
		p.hostCtx = parent
	}
}

// HostAlloc implements rt.Listener (malloc-family interposition).
func (p *Profiler) HostAlloc(buf *rt.HostBuf, loc ir.Loc) {
	p.HostAllocs = append(p.HostAllocs, &AllocRec{
		Addr: buf.Addr, Bytes: buf.Bytes(), Ctx: p.hostCtx, Loc: loc, Label: buf.Label,
	})
}

// DeviceAlloc implements rt.Listener (cudaMalloc interposition).
func (p *Profiler) DeviceAlloc(ptr uint64, bytes int64, loc ir.Loc) {
	p.DevAllocs = append(p.DevAllocs, &AllocRec{
		Addr: ptr, Bytes: bytes, Ctx: p.hostCtx, Loc: loc, Device: true,
	})
}

// Memcpy implements rt.Listener (cudaMemcpy interposition).
func (p *Profiler) Memcpy(kind rt.CopyKind, dst, src uint64, bytes int64, loc ir.Loc) {
	p.Copies = append(p.Copies, &CopyRec{
		Kind: kind, Dst: dst, Src: src, Bytes: bytes, Ctx: p.hostCtx, Loc: loc,
	})
}

// KernelLaunch implements rt.Listener: start a kernel profile and hand
// the device hook sink to the executor.
func (p *Profiler) KernelLaunch(info *rt.LaunchInfo) (gpu.Hooks, error) {
	kp := &KernelProfile{
		Info:      info,
		Tables:    info.Tables,
		Trace:     trace.NewKernelTrace(info.Kernel, info.Sequence, info.Grid, info.Block),
		LaunchCtx: p.hostCtx,
	}
	kp.BaseCtx = p.CCT.Child(p.hostCtx, trace.Frame{Func: info.Kernel, Loc: info.Loc})
	if p.TraceCap > 0 {
		kp.Trace.SetBounds(p.TraceCap, p.TraceCap, p.TraceSink)
	}
	p.Kernels = append(p.Kernels, kp)
	if info.Tables == nil {
		return nil, nil // native program: no hooks to serve
	}
	return &hookSink{p: p, kp: kp}, nil
}

// KernelEnd implements rt.Listener: data marshaling is complete; invoke
// the online analyzer.
func (p *Profiler) KernelEnd(info *rt.LaunchInfo, res *gpu.LaunchResult) {
	for i := len(p.Kernels) - 1; i >= 0; i-- {
		if p.Kernels[i].Info == info {
			kp := p.Kernels[i]
			kp.Result = res
			kp.FlushErr = kp.Trace.FlushAll()
			if p.OnKernelEnd != nil {
				p.OnKernelEnd(kp)
			}
			return
		}
	}
}

// hookSink adapts one kernel launch's hook stream into trace records.
type hookSink struct {
	p  *Profiler
	kp *KernelProfile
}

func firstLane(mask uint32) int {
	if mask == 0 {
		return 0
	}
	return bits.TrailingZeros32(mask)
}

// OnHook implements gpu.Hooks.
func (s *hookSink) OnHook(w *gpu.WarpView, call *ir.Instr, args []gpu.LaneValues) error {
	if w.HookCtx == 0 {
		w.HookCtx = s.kp.BaseCtx // first event of this warp: seed with the launch context
	}
	lane := firstLane(w.ActiveMask)
	switch call.Callee {
	case instrument.HookMem:
		if len(args) != 4 {
			return fmt.Errorf("record_mem wants 4 args, got %d", len(args))
		}
		if err := s.kp.Trace.AddMem(trace.MemAccess{
			CTA:   int32(w.CTALinear),
			Warp:  int32(w.WarpInCTA),
			Mask:  w.ActiveMask,
			Kind:  trace.AccessKind(args[2][lane]),
			Space: ir.Space(args[3][lane]),
			Bits:  uint8(args[1][lane]),
			Loc:   s.kp.Trace.Locs.Intern(call.Loc),
			Ctx:   w.HookCtx,
		}, (*[trace.WarpSize]uint64)(&args[0])); err != nil {
			return err
		}
	case instrument.HookBB:
		if len(args) != 1 {
			return fmt.Errorf("record_bb wants 1 arg, got %d", len(args))
		}
		if err := s.kp.Trace.AddBlock(trace.BlockExec{
			CTA:      int32(w.CTALinear),
			Warp:     int32(w.WarpInCTA),
			Mask:     w.ActiveMask,
			InitMask: w.InitMask,
			Block:    int32(args[0][lane]),
			Loc:      s.kp.Trace.Locs.Intern(call.Loc),
			Ctx:      w.HookCtx,
		}); err != nil {
			return err
		}
	case instrument.HookPush:
		if len(args) != 1 {
			return fmt.Errorf("call_push wants 1 arg, got %d", len(args))
		}
		name := "<device>"
		if s.kp.Tables != nil {
			name = s.kp.Tables.FuncName(int32(args[0][lane]))
		}
		w.HookCtx = s.p.CCT.Child(w.HookCtx, trace.Frame{Func: name, Loc: call.Loc, Device: true})
	case instrument.HookPop:
		// Never pop past the kernel frame (unbalanced pops are ignored).
		if w.HookCtx != s.kp.BaseCtx {
			if parent := s.p.CCT.Parent(w.HookCtx); parent >= 0 {
				w.HookCtx = parent
			}
		}
	case instrument.HookArith:
		if s.kp.ArithCounts == nil {
			s.kp.ArithCounts = make(map[ir.Op]int64)
		}
		s.kp.ArithCounts[ir.Op(args[0][lane])] += int64(bits.OnesCount32(w.ActiveMask))
	default:
		return fmt.Errorf("unknown hook %q", call.Callee)
	}
	return nil
}

// DataObject is the data-centric view of one device allocation: where it
// was allocated on the device, which transfers touched it, and which host
// objects fed it (the paper's Figure 9).
type DataObject struct {
	Dev    *AllocRec
	Copies []*CopyRec
	Hosts  []*AllocRec
}

// FindDeviceAlloc returns the device allocation containing addr, or nil.
func (p *Profiler) FindDeviceAlloc(addr uint64) *AllocRec {
	for _, a := range p.DevAllocs {
		if a.Contains(addr) {
			return a
		}
	}
	return nil
}

// FindHostAlloc returns the host allocation containing addr, or nil.
func (p *Profiler) FindHostAlloc(addr uint64) *AllocRec {
	for _, a := range p.HostAllocs {
		if a.Contains(addr) {
			return a
		}
	}
	return nil
}

// DataObjectFor reconstructs the data flow for the device address: the
// device allocation, every memcpy overlapping it, and the host
// allocations on the other side of those copies.
func (p *Profiler) DataObjectFor(devAddr uint64) *DataObject {
	dev := p.FindDeviceAlloc(devAddr)
	if dev == nil {
		return nil
	}
	obj := &DataObject{Dev: dev}
	seenHost := map[*AllocRec]bool{}
	for _, cp := range p.Copies {
		var devSide, hostSide uint64
		switch cp.Kind {
		case rt.H2D:
			devSide, hostSide = cp.Dst, cp.Src
		case rt.D2H:
			devSide, hostSide = cp.Src, cp.Dst
		default:
			continue
		}
		if devSide+uint64(cp.Bytes) <= dev.Addr || devSide >= dev.Addr+uint64(dev.Bytes) {
			continue
		}
		obj.Copies = append(obj.Copies, cp)
		if h := p.FindHostAlloc(hostSide); h != nil && !seenHost[h] {
			seenHost[h] = true
			obj.Hosts = append(obj.Hosts, h)
		}
	}
	return obj
}

// KernelsByName returns the profiles of all instances of one kernel, in
// launch order — the offline analyzer's grouping (Section 3.3 merges
// instances on the same call path).
func (p *Profiler) KernelsByName(name string) []*KernelProfile {
	var out []*KernelProfile
	for _, kp := range p.Kernels {
		if kp.Info.Kernel == name {
			out = append(out, kp)
		}
	}
	return out
}
