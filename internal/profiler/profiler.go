// Package profiler implements CUDAAdvisor's profiling component
// (Section 3.2): it subscribes to the host runtime's mandatory
// instrumentation events and to the device hooks the engine inserted,
// maintains the shadow call stacks on both sides, buffers the per-kernel
// traces (whole, or a per-warp sample under TraceCap), and performs the
// code-centric and data-centric attribution at the end of each kernel
// instance.
package profiler

import (
	"fmt"
	"math/bits"
	"sync"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/runner"
	"cudaadvisor/internal/trace"
)

// AllocRec records one tracked allocation (host or device) with the
// calling context and source location of the allocation site — the
// data-centric map of Section 3.2.2.
type AllocRec struct {
	Addr  uint64
	Bytes int64
	Ctx   int32 // calling context of the allocating function
	Loc   ir.Loc
	Label string
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
	Loc   ir.Loc
}

// KernelProfile is the profile of one kernel instance: its trace plus
// the contexts needed for attribution.
type KernelProfile struct {
	Info    *rt.LaunchInfo
	Tables  *instrument.Tables
	Trace   *trace.KernelTrace
	Result  *gpu.LaunchResult
	BaseCtx int32 // the launch site's host context extended with the kernel frame
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

	// TraceCap bounds each kernel trace's Mem and Blocks buffers at this
	// many records (0 = unbounded, the default) by deterministic per-warp
	// sampling, and the analyses report the coverage fraction.
	TraceCap int

	// Pool, when non-nil, is where the bundle's per-instance derivations
	// fan out: each splits into CTA or record ranges that run on idle
	// workers and merge in trace order, so every result is the serial
	// one. A nil pool derives serially.
	Pool *runner.Pool

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
		Addr: ptr, Bytes: bytes, Ctx: p.hostCtx, Loc: loc,
	})
}

// Memcpy implements rt.Listener (cudaMemcpy interposition).
func (p *Profiler) Memcpy(kind rt.CopyKind, dst, src uint64, bytes int64, loc ir.Loc) {
	p.Copies = append(p.Copies, &CopyRec{
		Kind: kind, Dst: dst, Src: src, Bytes: bytes, Loc: loc,
	})
}

// KernelLaunch implements rt.Listener: start a kernel profile and hand
// the device hook sink to the executor.
func (p *Profiler) KernelLaunch(info *rt.LaunchInfo) (gpu.Hooks, error) {
	kp := &KernelProfile{
		Info:   info,
		Tables: info.Tables,
		Trace:  trace.NewKernelTrace(info.Kernel, info.Sequence, info.Grid, info.Block),
	}
	kp.BaseCtx = p.CCT.Child(p.hostCtx, trace.Frame{Func: info.Kernel, Loc: info.Loc})
	if p.TraceCap > 0 {
		kp.Trace.SetCap(p.TraceCap)
	}
	p.Kernels = append(p.Kernels, kp)
	if info.Tables == nil {
		return nil, nil // native program: no hooks to serve
	}
	sink := &hookSink{kp: kp, ctx: p.CCT}
	if p.TraceCap > 0 {
		// A capped trace samples by the global event order, which only
		// the ordered sink sees.
		return sink, nil
	}
	return &smSinks{hookSink: sink}, nil
}

// KernelEnd implements rt.Listener: data marshaling is complete; the
// launch's result joins its profile.
func (p *Profiler) KernelEnd(info *rt.LaunchInfo, res *gpu.LaunchResult) {
	for i := len(p.Kernels) - 1; i >= 0; i-- {
		if p.Kernels[i].Info == info {
			p.Kernels[i].Result = res
			return
		}
	}
}

// hookSink adapts one kernel launch's hook stream into trace records:
// the records and locations go to kp, and the warps' shadow call stacks
// move through ctx.
type hookSink struct {
	kp   *KernelProfile
	ctx  *trace.ContextTree
	locs map[*ir.Instr]int32 // each hook call's id in kp.Trace.Locs, interned at its first event
}

// loc returns the location id of a hook call's events.
func (s *hookSink) loc(call *ir.Instr) int32 {
	id, ok := s.locs[call]
	if !ok {
		if s.locs == nil {
			s.locs = make(map[*ir.Instr]int32)
		}
		id = s.kp.Trace.Locs.Intern(call.Loc)
		s.locs[call] = id
	}
	return id
}

func firstLane(mask uint32) int {
	if mask == 0 {
		return 0
	}
	return bits.TrailingZeros32(mask)
}

// OnHook implements gpu.Hooks.
func (s *hookSink) OnHook(w *gpu.WarpView, call *ir.Instr, args []*gpu.LaneValues) error {
	if w.HookCtx == 0 {
		w.HookCtx = s.kp.BaseCtx // first event of this warp: seed with the launch context
	}
	lane := firstLane(w.ActiveMask)
	switch call.Callee {
	case instrument.HookMem:
		if len(args) != 4 {
			return fmt.Errorf("record_mem wants 4 args, got %d", len(args))
		}
		s.kp.Trace.AddMem(trace.MemAccess{
			CTA:   int32(w.CTALinear),
			Warp:  int32(w.WarpInCTA),
			Mask:  w.ActiveMask,
			Kind:  trace.AccessKind(args[2][lane]),
			Space: ir.Space(args[3][lane]),
			Bits:  uint8(args[1][lane]),
			Loc:   s.loc(call),
			Ctx:   w.HookCtx,
		}, (*[trace.WarpSize]uint64)(args[0]))
	case instrument.HookBB:
		if len(args) != 1 {
			return fmt.Errorf("record_bb wants 1 arg, got %d", len(args))
		}
		s.kp.Trace.AddBlock(trace.BlockExec{
			CTA:      int32(w.CTALinear),
			Warp:     int32(w.WarpInCTA),
			Mask:     w.ActiveMask,
			InitMask: w.InitMask,
			Block:    int32(args[0][lane]),
			Loc:      s.loc(call),
			Ctx:      w.HookCtx,
		})
	case instrument.HookPush:
		if len(args) != 1 {
			return fmt.Errorf("call_push wants 1 arg, got %d", len(args))
		}
		name := "<device>"
		if s.kp.Tables != nil {
			name = s.kp.Tables.FuncName(int32(args[0][lane]))
		}
		w.HookCtx = s.ctx.Child(w.HookCtx, trace.Frame{Func: name, Loc: call.Loc, Device: true})
	case instrument.HookPop:
		// Never pop past the kernel frame (unbalanced pops are ignored).
		if w.HookCtx != s.kp.BaseCtx {
			if parent := s.ctx.Parent(w.HookCtx); parent >= 0 {
				w.HookCtx = parent
			}
		}
	case instrument.HookArith:
		// Accepted, and nothing is recorded: no analysis reads an
		// arithmetic tally.
	default:
		return fmt.Errorf("unknown hook %q", call.Callee)
	}
	return nil
}

// smSinks is the sink of an uncapped launch (gpu.SMHooks). Run in SM
// order it is the ordered hookSink; fanned out, each SM records into a
// fragment of its own — a trace with its own location table and arena,
// and a context tree whose root stands for the kernel's base context, so
// the SM never touches p.CCT while it runs. Once the last SM settles,
// the fragments join the kernel's profile in SM order, in one pass that
// reproduces every id the ordered sink would have assigned. Fragments
// after the first faulting SM are dropped, as the ordered run never
// reaches their events.
type smSinks struct {
	*hookSink

	mu      sync.Mutex
	frags   []*smSink // in SM order
	settled int       // SMs that have called SMDone
}

// smSink records one SM's events into its fragment.
type smSink struct {
	hookSink
	sinks *smSinks
	err   error
}

// ForSM implements gpu.SMHooks.
func (f *smSinks) ForSM(int) gpu.SMSink {
	t := f.kp.Trace
	s := &smSink{sinks: f, hookSink: hookSink{
		kp: &KernelProfile{
			Tables:  f.kp.Tables,
			Trace:   trace.NewKernelTrace(t.Kernel, t.Instance, t.Grid, t.Block),
			BaseCtx: trace.Root,
		},
		ctx: trace.NewContextTree(),
	}}
	f.frags = append(f.frags, s)
	return s
}

// SMDone implements gpu.SMSink. The last SM to settle joins the
// fragments up to the first faulting SM's into the kernel's profile:
// their context nodes into the shared tree, SM by SM, then their records
// onto the trace in one pass.
func (s *smSink) SMDone(err error) {
	f := s.sinks
	f.mu.Lock()
	defer f.mu.Unlock()
	s.err = err
	if f.settled++; f.settled < len(f.frags) {
		return
	}
	var traces []*trace.KernelTrace
	var ctxs [][]int32
	for _, g := range f.frags {
		ids := make([]int32, g.ctx.Len())
		ids[trace.Root] = f.kp.BaseCtx
		for id := int32(1); id < int32(len(ids)); id++ {
			ids[id] = f.ctx.Child(ids[g.ctx.Parent(id)], g.ctx.Frame(id))
		}
		traces, ctxs = append(traces, g.kp.Trace), append(ctxs, ids)
		if g.err != nil {
			break
		}
	}
	f.kp.Trace.AppendAll(traces, ctxs)
	for _, g := range f.frags {
		g.kp, g.ctx, g.locs = nil, nil, nil // the shard keeps its sink until the launch ends
	}
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
