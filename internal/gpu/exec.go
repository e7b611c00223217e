package gpu

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/runner"
)

// LaneValues carries one value per warp lane, the shape in which hook
// arguments reach the profiler (the paper's Record() receives the
// effective address computed by each thread).
type LaneValues [WarpSize]uint64

// WarpView is the read-mostly execution context handed to instrumentation
// hooks. HookCtx is scratch space owned by the hook implementation (the
// profiler stores its calling-context node id there, its shadow stack).
type WarpView struct {
	CTALinear  int
	CTACoord   [3]int
	WarpInCTA  int
	ActiveMask uint32
	InitMask   uint32
	SM         int
	Cycle      int64
	HookCtx    int32
}

// Hooks receives instrumentation callbacks during kernel execution: one
// call per executed hook instruction (call to an ir.HookPrefix function),
// with per-lane argument values. Implemented by the profiler.
//
// OnHook is always invoked on the launching goroutine, at the hook's call
// site, in a deterministic global order (SM-major: every event of SM 0,
// then SM 1, …): a launch whose hooks can fire simulates its SMs one after
// another. Hook implementations therefore need no locking. Like w, args is
// lent for the duration of the call — the executor reuses it for the next
// hook — so an implementation that keeps argument values copies them.
type Hooks interface {
	OnHook(w *WarpView, call *ir.Instr, args []LaneValues) error
}

// LaunchParams configures one kernel launch.
type LaunchParams struct {
	Grid  [3]int
	Block [3]int
	// Args are the kernel parameter values as register bit patterns
	// (device addresses for ptr parameters).
	Args []uint64

	// Hooks receives instrumentation callbacks; nil runs uninstrumented
	// code (hook calls, if present, are skipped at zero model cost).
	Hooks Hooks

	// Pool, when non-nil with more than one worker, fans the launch's
	// independent SM shards out across idle pool workers (see
	// runner.Shards). The result — cycles, stats, memory image, fault
	// identity — is byte-identical to the serial path at every worker
	// count; a nil Pool (or one worker) runs the SMs serially in SM order,
	// the reference path. Two kinds of launch keep the serial path whatever
	// the pool: one that can call a hook (Hooks set and a hook call in the
	// module), so that every OnHook happens in SM order at its call site,
	// and one whose module contains global atomics, which are real cross-SM
	// communication whose interleaving must stay the serial one.
	Pool *runner.Pool

	// Ctx, when non-nil, lets the host cancel a running kernel: the
	// executor polls it at the warp-step guard (every ctxCheckInterval
	// warp instructions per SM) and aborts with an error wrapping
	// ctx.Err(). Cancellation is a host-side deadline, not a simulated
	// event, so an aborted launch makes no determinism claims.
	Ctx context.Context

	// L1WarpsPerCTA enables horizontal cache bypassing (Section 4.2(D)):
	// warps with in-CTA id < L1WarpsPerCTA access L1, the rest bypass it.
	// Negative disables bypassing (all warps use L1).
	L1WarpsPerCTA int

	// MaxWarpInstrs aborts runaway kernels; 0 means the default guard.
	// The budget is per SM, so the guard's verdict on any one SM cannot
	// depend on how much work other SMs did (the property that keeps
	// runaway faults identical at every worker count).
	MaxWarpInstrs int64

	// WatchShared enables the dynamic shared-memory checks: per-warp
	// bank-conflict counting on every shared access and the per-barrier-
	// interval last-writer race check. Watching is purely observational —
	// the timing model is untouched — so cycles and results stay
	// byte-identical with it on or off.
	WatchShared bool

	// RecordSchedule captures the per-SM scheduling timeline of the
	// launch (CTA admission and retirement times, per-SM busy cycles) in
	// LaunchResult.Schedule. Like WatchShared it is purely observational:
	// the timing model never reads the recording, so cycles, traces and
	// hook streams are byte-identical with it on or off, and the recorded
	// spans are identical on the serial and parallel paths (each shard's
	// simulation is self-contained and shards merge in SM order).
	RecordSchedule bool
}

// CTASpan is one CTA's residency on an SM: admitted at Start, retired at
// End (the max ready time of its warps when the last one finished), in
// model cycles on that SM's timeline.
type CTASpan struct {
	CTA   int
	Start int64
	End   int64
}

// SMSchedule is the recorded scheduling timeline of one SM: its busy
// cycles and the CTA residency spans in retirement order (deterministic
// at every worker count).
type SMSchedule struct {
	SM     int
	Cycles int64
	CTAs   []CTASpan
}

// LaunchResult reports functional and model-timing outcomes of a launch.
type LaunchResult struct {
	Cycles      int64 // modeled kernel duration (max over SMs)
	WarpInstrs  int64 // dynamic warp-level instructions executed
	MemInstrs   int64 // dynamic warp-level global-memory instructions
	HookCalls   int64
	Cache       CacheStats
	MSHRStalls  int64
	CTAs        int
	WarpsPerCTA int

	// Shared-memory dynamic checks, populated only under WatchShared.
	SharedAccesses int64 // dynamic warp-level shared-memory instructions
	BankReplays    int64 // extra bank passes: sum of (conflict degree - 1)
	// SharedRaces lists, per load site and sorted by location, the lane
	// reads that hit a word another thread wrote in the same barrier
	// interval.
	SharedRaces []SharedRaceSite

	// Schedule holds the per-SM scheduling timelines, populated only
	// under LaunchParams.RecordSchedule, in SM order.
	Schedule []SMSchedule
}

// Device is a simulated GPU: an architecture configuration plus global
// memory. It is the execution engine under the host runtime (package rt).
type Device struct {
	Cfg ArchConfig
	Mem *DeviceMemory

	// modules caches the decoded form of every module launched from, so a
	// module is decoded once per device rather than once per launch.
	modules map[*ir.Module]*dmodule
	// frames[sm] recycles warp activations on that SM across launches.
	frames []*framePool
}

// NewDevice creates a device with the given global-memory capacity.
func NewDevice(cfg ArchConfig, memBytes int64) *Device {
	return &Device{Cfg: cfg, Mem: NewDeviceMemory(memBytes)}
}

// Fault is an execution error raised by a kernel (out-of-range access,
// division by zero, divergent barrier, runaway loop), attributed to the
// faulting instruction's source location.
type Fault struct {
	Kernel string
	Loc    ir.Loc
	CTA    int
	Warp   int
	Msg    string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("gpu fault in kernel %s at %s (cta %d, warp %d): %s",
		f.Kernel, f.Loc, f.CTA, f.Warp, f.Msg)
}

const (
	reconvNever = -100 // reconvergence PC that never matches an instruction
	deadPC      = -1   // placeholder PC for entries waiting to drain
)

// simtEntry is one entry of a frame's reconvergence stack. PCs index the
// function's decoded code; reconv is always the first instruction of a
// block, so only a control transfer can make pc equal it.
type simtEntry struct {
	pc     int32
	reconv int32 // or reconvNever
	mask   uint32
}

type frame struct {
	df       *dfunc
	regs     []uint64 // flat [reg*WarpSize + lane]
	stack    []simtEntry
	retDst   int32 // caller destination row (-1 none)
	retVals  LaneValues
	callMask uint32
}

// row resolves a decoded operand to the 32-lane row it names: a register
// of this frame, or a broadcast constant of the function.
func (fr *frame) row(ref int32) *row {
	if ref >= 0 {
		return (*row)(fr.regs[ref:])
	}
	return (*row)(fr.df.consts[^ref:])
}

type warpState struct {
	view      WarpView
	cta       *ctaState
	slot      int // index in the shard's scheduler arrays while resident
	frames    []*frame
	readyAt   int64
	atBarrier bool
	done      bool
	initMask  uint32
}

func (w *warpState) liveMask() uint32 {
	if len(w.frames) == 0 {
		return 0
	}
	m := uint32(0)
	for _, e := range w.frames[0].stack {
		m |= e.mask
	}
	return m
}

type ctaState struct {
	id        int
	coord     [3]int
	shared    *sharedMem
	warps     []*warpState
	arrived   int
	barrierAt int64
	liveWarps int
	admitAt   int64 // admission cycle, kept for RecordSchedule
}

// launchState carries the launch-wide machinery shared by every SM
// shard: the immutable inputs (device, config, decoded kernel, params)
// and the merged result. Per-SM execution state lives on smShard; during
// a parallel launch this struct is read-only until the shards join.
type launchState struct {
	dev    *Device
	cfg    ArchConfig
	kernel *dfunc
	p      LaunchParams
	guard  int64 // per-SM warp-instruction budget

	res   LaunchResult
	races map[ir.Loc]int64 // merged per-site race counts (WatchShared)
}

// Launch executes the kernel on the device. The kernel's module must be
// finalized and verified; it is decoded on its first launch from this
// device, and a module transformed afterwards must be finalized again
// before the next launch sees the change. Execution is deterministic:
// warps are scheduled greedy-then-oldest with stable tie-breaking, and SM
// shards — whether simulated serially or fanned out across a worker pool
// — merge in SM order, so every observable output (results, stats, hook
// order, fault identity) is byte-identical at every worker count. The
// returned result shares nothing with the device or the launch.
func (d *Device) Launch(kernel *ir.Function, p LaunchParams) (*LaunchResult, error) {
	if kernel == nil || !kernel.IsKernel {
		return nil, fmt.Errorf("gpu: Launch requires a kernel")
	}
	if kernel.Module() == nil {
		return nil, fmt.Errorf("gpu: kernel %s not finalized", kernel.Name)
	}
	if len(p.Args) != len(kernel.Params) {
		return nil, fmt.Errorf("gpu: kernel %s wants %d args, got %d",
			kernel.Name, len(kernel.Params), len(p.Args))
	}
	for i := range p.Grid {
		if p.Grid[i] <= 0 {
			p.Grid[i] = 1
		}
		if p.Block[i] <= 0 {
			p.Block[i] = 1
		}
	}
	threadsPerCTA := p.Block[0] * p.Block[1] * p.Block[2]
	if threadsPerCTA > 1024 {
		return nil, fmt.Errorf("gpu: %d threads per CTA exceeds 1024", threadsPerCTA)
	}
	if kernel.SharedBytes > d.Cfg.SharedMemPerBlock {
		return nil, fmt.Errorf("gpu: kernel %s needs %d bytes shared memory, limit %d",
			kernel.Name, kernel.SharedBytes, d.Cfg.SharedMemPerBlock)
	}
	if p.Ctx != nil {
		if err := p.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("gpu: kernel %s not launched: %w", kernel.Name, err)
		}
	}

	dm := d.decoded(kernel.Module())
	ls := &launchState{
		dev:    d,
		cfg:    d.Cfg,
		kernel: dm.funcs[kernel],
		p:      p,
		guard:  p.MaxWarpInstrs,
	}
	if ls.kernel == nil {
		return nil, fmt.Errorf("gpu: kernel %s is not in module %s", kernel.Name, kernel.Module().Name)
	}
	if ls.guard <= 0 {
		ls.guard = 1 << 31
	}

	nCTAs := p.Grid[0] * p.Grid[1] * p.Grid[2]
	warpsPerCTA := (threadsPerCTA + WarpSize - 1) / WarpSize
	ls.res.CTAs = nCTAs
	ls.res.WarpsPerCTA = warpsPerCTA

	// Static round-robin CTA-to-SM distribution, as on hardware when all
	// CTAs have equal cost.
	nSMs := d.Cfg.SMs
	if nSMs < 1 {
		nSMs = 1
	}
	var shards []*smShard
	for sm := 0; sm < nSMs; sm++ {
		var ctaIDs []int
		for c := sm; c < nCTAs; c += nSMs {
			ctaIDs = append(ctaIDs, c)
		}
		if len(ctaIDs) == 0 {
			continue
		}
		for len(d.frames) <= sm {
			d.frames = append(d.frames, &framePool{})
		}
		shards = append(shards, &smShard{ls: ls, sm: sm, ctaIDs: ctaIDs, frames: d.frames[sm]})
	}

	if p.Pool.Workers() > 1 && len(shards) > 1 && !dm.atomics && !(p.Hooks != nil && dm.hooks) {
		if err := ls.runParallel(shards, threadsPerCTA, warpsPerCTA); err != nil {
			return nil, err
		}
	} else {
		if err := ls.runSerial(shards, threadsPerCTA, warpsPerCTA); err != nil {
			return nil, err
		}
	}
	for loc, n := range ls.races {
		ls.res.SharedRaces = append(ls.res.SharedRaces, SharedRaceSite{Loc: loc, Count: n})
	}
	sort.Slice(ls.res.SharedRaces, func(i, j int) bool {
		return ls.res.SharedRaces[i].Loc.Less(ls.res.SharedRaces[j].Loc)
	})
	// A copy: a pointer into ls would keep the launch state, and through
	// it the device and its memory, alive for as long as a profile
	// retains the result.
	res := ls.res
	return &res, nil
}

// runSerial simulates the SM shards one after another in SM order: the
// only path on which hooks fire, and the reference the parallel fan-out is
// byte-identical to. Global memory is written directly.
func (ls *launchState) runSerial(shards []*smShard, threadsPerCTA, warpsPerCTA int) error {
	for _, s := range shards {
		cycles, err := s.run(threadsPerCTA, warpsPerCTA)
		if err != nil {
			return err
		}
		ls.merge(s, cycles)
	}
	return nil
}

// merge folds one completed shard into the launch result. Sums are
// order-insensitive and Cycles is a max, but shards merge in SM order
// anyway so the accumulation sequence matches the serial path exactly.
func (ls *launchState) merge(s *smShard, cycles int64) {
	r := &ls.res
	r.Cache.Accesses += s.l1.stats.Accesses
	r.Cache.Hits += s.l1.stats.Hits
	r.Cache.Misses += s.l1.stats.Misses
	r.Cache.Bypassed += s.l1.stats.Bypassed
	r.Cache.Writes += s.l1.stats.Writes
	r.MSHRStalls += s.mshrs.stallCycles
	r.WarpInstrs += s.instrs
	r.MemInstrs += s.memInstrs
	r.HookCalls += s.hookCalls
	r.SharedAccesses += s.sharedAccesses
	r.BankReplays += s.bankReplays
	for loc, n := range s.raceSites {
		if ls.races == nil {
			ls.races = map[ir.Loc]int64{}
		}
		ls.races[loc] += n
	}
	if cycles > r.Cycles {
		r.Cycles = cycles
	}
	if ls.p.RecordSchedule {
		r.Schedule = append(r.Schedule, SMSchedule{SM: s.sm, Cycles: cycles, CTAs: s.spans})
	}
}

// fault builds the Fault for one warp at one location.
func (s *smShard) fault(w *warpState, loc ir.Loc, format string, args ...any) error {
	return &Fault{
		Kernel: s.ls.kernel.fn.Name,
		Loc:    loc,
		CTA:    w.cta.id,
		Warp:   w.view.WarpInCTA,
		Msg:    fmt.Sprintf(format, args...),
	}
}

// ctxCheckInterval is how often (in warp instructions per SM) the step
// guard polls LaunchParams.Ctx; a power of two so the check is a mask
// test.
const ctxCheckInterval = 4096

// step executes one warp instruction issued at scheduler time now.
func (s *smShard) step(w *warpState, now int64) error {
	ls := s.ls
	s.instrs++
	if s.instrs > ls.guard {
		return s.fault(w, ir.Loc{}, "instruction budget exhausted (%d warp instructions): runaway kernel?", ls.guard)
	}
	if ls.p.Ctx != nil && s.instrs&(ctxCheckInterval-1) == 0 {
		if err := ls.p.Ctx.Err(); err != nil {
			return fmt.Errorf("gpu: kernel %s cancelled after %d warp instructions: %w",
				ls.kernel.fn.Name, s.instrs, err)
		}
	}
	fr := w.frames[len(w.frames)-1]
	e := &fr.stack[len(fr.stack)-1]
	in := &fr.df.code[e.pc]
	cost := int64(ls.cfg.IssueCost) + in.cost
	mask := e.mask

	// Straight-line instructions advance the PC inside a block: the top
	// entry can neither drain nor reach its reconvergence point, so only
	// the control transfers below need settle.
	if in.kind < aluEnd {
		lane := alu(in.kind, fr.row(in.dst), fr.row(in.a), fr.row(in.b), fr.row(in.c), mask, in.imm, &s.tmp)
		if lane >= 0 {
			msg := "division by zero"
			if in.kind == kSRem32 || in.kind == kSRem64 {
				msg = "remainder by zero"
			}
			return s.fault(w, in.in.Loc, "%s (lane %d)", msg, lane)
		}
		e.pc++
		w.readyAt = now + cost
		return nil
	}

	switch in.kind {
	case kSReg:
		s.evalSReg(w, fr.row(in.dst), in.sreg, mask)
		e.pc++
	case kLd:
		c, err := s.execLoad(w, fr, in, mask, now)
		if err != nil {
			return err
		}
		cost += c
		e.pc++
	case kSt:
		c, err := s.execStore(w, fr, in, mask)
		if err != nil {
			return err
		}
		cost += c
		e.pc++
	case kAtom:
		c, err := s.execAtomic(w, fr, in, mask)
		if err != nil {
			return err
		}
		cost += c
		e.pc++
	case kBar:
		live := w.liveMask()
		if mask != live {
			return s.fault(w, in.in.Loc, "divergent barrier: active %#x of live %#x", mask, live)
		}
		e.pc++
		w.atBarrier = true
		cta := w.cta
		cta.arrived++
		if now > cta.barrierAt {
			cta.barrierAt = now
		}
		s.releaseBarrierIfReady(cta)
	case kHook:
		s.hookCalls++
		if ls.p.Hooks != nil {
			args := s.hookArgs[:0] // one per-shard buffer, lent to the hook
			for _, ref := range in.args {
				args = append(args, LaneValues{}) // lanes outside the mask stay zero
				copyLanes((*row)(&args[len(args)-1]), fr.row(ref), mask)
			}
			s.hookArgs = args
			w.view.ActiveMask = mask
			w.view.Cycle = now
			if err := ls.p.Hooks.OnHook(&w.view, in.in, args); err != nil {
				return s.fault(w, in.in.Loc, "hook: %v", err)
			}
			cost += int64(ls.cfg.HookCost)
		}
		e.pc++
	case kCall:
		nf := s.frames.newFrame(in.callee, mask, in.dst)
		for pi, ref := range in.args {
			copyLanes(nf.row(int32(pi*WarpSize)), fr.row(ref), mask)
		}
		// Leave e.pc at the call; it advances when the frame returns.
		w.frames = append(w.frames, nf)
	case kBr:
		transfer(e, in.then)
		s.settle(w)
	case kCBr:
		cond := fr.row(in.a)
		var taken uint32
		for l := range cond {
			taken |= uint32(cond[l]&1) << uint(l)
		}
		maskT, maskF := mask&taken, mask&^taken
		switch {
		case maskF == 0:
			transfer(e, in.then)
		case maskT == 0:
			transfer(e, in.els)
		default:
			// Diverge: current entry becomes the reconvergence
			// continuation; push else then taken.
			e.pc = in.cont
			fr.stack = append(fr.stack,
				simtEntry{pc: in.els, reconv: in.reconv, mask: maskF},
				simtEntry{pc: in.then, reconv: in.reconv, mask: maskT},
			)
		}
		s.settle(w)
	case kRet:
		// Retire the active lanes from the current frame.
		if len(in.in.Args) > 0 {
			copyLanes((*row)(&fr.retVals), fr.row(in.a), mask)
		}
		for i := range fr.stack {
			fr.stack[i].mask &^= mask
		}
		s.settle(w)
	default: // kFault
		return s.fault(w, in.in.Loc, "%s", in.msg)
	}
	w.readyAt = now + cost
	return nil
}

// evalSReg writes a special register into the active lanes of dst. Only
// the thread-id registers vary by lane.
func (s *smShard) evalSReg(w *warpState, dst *row, sreg ir.SRegKind, mask uint32) {
	b := s.ls.p.Block
	var v int
	switch sreg {
	case ir.SRegTidX, ir.SRegTidY, ir.SRegTidZ:
		for lane := 0; lane < WarpSize; lane++ {
			if mask&(1<<uint(lane)) == 0 {
				continue
			}
			tid := w.view.WarpInCTA*WarpSize + lane
			switch sreg {
			case ir.SRegTidX:
				v = tid % b[0]
			case ir.SRegTidY:
				v = (tid / b[0]) % b[1]
			default:
				v = tid / (b[0] * b[1])
			}
			dst[lane] = ir.I32Bits(int32(v))
		}
		return
	case ir.SRegCtaidX:
		v = w.view.CTACoord[0]
	case ir.SRegCtaidY:
		v = w.view.CTACoord[1]
	case ir.SRegCtaidZ:
		v = w.view.CTACoord[2]
	case ir.SRegNtidX:
		v = b[0]
	case ir.SRegNtidY:
		v = b[1]
	case ir.SRegNtidZ:
		v = b[2]
	case ir.SRegNctaidX:
		v = s.ls.p.Grid[0]
	case ir.SRegNctaidY:
		v = s.ls.p.Grid[1]
	case ir.SRegNctaidZ:
		v = s.ls.p.Grid[2]
	}
	bits := ir.I32Bits(int32(v))
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<uint(lane)) != 0 {
			dst[lane] = bits
		}
	}
}

// usesL1 reports whether this warp's global reads go through L1 under the
// launch's horizontal-bypassing policy.
func (s *smShard) usesL1(w *warpState) bool {
	k := s.ls.p.L1WarpsPerCTA
	return k < 0 || w.view.WarpInCTA < k
}

// span returns the lowest and highest address among the active lanes.
func span(addrs *row, mask uint32) (lo, hi uint64) {
	lo = ^uint64(0)
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<uint(lane)) != 0 {
			lo, hi = min(lo, addrs[lane]), max(hi, addrs[lane])
		}
	}
	return lo, hi
}

// gather loads one element per active lane from buf, whose byte 0 is
// address origin; the caller has bounds-checked the whole warp.
func gather(dst *row, buf []byte, origin uint64, mt ir.MemType, addrs *row, mask uint32) {
	switch mt {
	case ir.MemI8:
		for lane := 0; lane < WarpSize; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				dst[lane] = uint64(buf[addrs[lane]-origin]) // zero-extends
			}
		}
	case ir.MemI32, ir.MemF32:
		for lane := 0; lane < WarpSize; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				dst[lane] = uint64(binary.LittleEndian.Uint32(buf[addrs[lane]-origin:]))
			}
		}
	case ir.MemI64:
		for lane := 0; lane < WarpSize; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				dst[lane] = binary.LittleEndian.Uint64(buf[addrs[lane]-origin:])
			}
		}
	}
}

// scatter is gather's store twin.
func scatter(buf []byte, origin uint64, mt ir.MemType, addrs, vals *row, mask uint32) {
	switch mt {
	case ir.MemI8:
		for lane := 0; lane < WarpSize; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				buf[addrs[lane]-origin] = byte(vals[lane])
			}
		}
	case ir.MemI32, ir.MemF32:
		for lane := 0; lane < WarpSize; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				binary.LittleEndian.PutUint32(buf[addrs[lane]-origin:], uint32(vals[lane]))
			}
		}
	case ir.MemI64:
		for lane := 0; lane < WarpSize; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				binary.LittleEndian.PutUint64(buf[addrs[lane]-origin:], vals[lane])
			}
		}
	}
}

// execLoad performs one warp load and returns its model cost. The warp
// is bounds-checked once, over the span of its active addresses; only a
// warp that fails (or reads past what is backed) takes the lane-by-lane
// path, which is what names the faulting lane.
func (s *smShard) execLoad(w *warpState, fr *frame, in *dinstr, mask uint32, now int64) (int64, error) {
	addrs, dst := fr.row(in.a), fr.row(in.dst)
	size := uint64(in.mem.Size())
	lo, hi := span(addrs, mask)
	end := hi + size // wraps only for a wild pointer, caught below
	if in.shared {
		sh := w.cta.shared
		if end >= hi && end <= uint64(len(sh.buf)) {
			gather(dst, sh.buf, 0, in.mem, addrs, mask)
		} else {
			for lane := 0; lane < WarpSize; lane++ {
				if mask&(1<<uint(lane)) == 0 {
					continue
				}
				v, err := sh.load(in.mem, addrs[lane])
				if err != nil {
					return 0, s.fault(w, in.in.Loc, "load lane %d: %v", lane, err)
				}
				dst[lane] = v
			}
		}
		if s.ls.p.WatchShared {
			s.watchSharedLoad(w, in.in, mask, addrs)
		}
		return int64(s.ls.cfg.SharedLat), nil
	}

	var buf []byte
	var origin uint64
	if lo >= 256 && end >= hi {
		buf, origin = s.readable(lo, end)
	}
	if buf != nil {
		gather(dst, buf, origin, in.mem, addrs, mask)
	} else {
		for lane := 0; lane < WarpSize; lane++ {
			if mask&(1<<uint(lane)) == 0 {
				continue
			}
			v, err := s.loadGlobal(in.mem, addrs[lane])
			if err != nil {
				return 0, s.fault(w, in.in.Loc, "load lane %d: %v", lane, err)
			}
			dst[lane] = v
		}
	}

	// Timing.
	s.memInstrs++
	cfg := &s.ls.cfg
	s.lineBuf = coalesceLines(s.lineBuf, mask, addrs, int(size), cfg.L1LineSize)
	useL1 := s.usesL1(w) && !in.nonCached
	maxDone := now
	for i, line := range s.lineBuf {
		issue := now + int64(i) // LSU serializes transactions
		var done int64
		if useL1 {
			start := issue
			if s.portFree > start {
				start = s.portFree
			}
			if s.l1.read(line) {
				s.portFree = start + int64(cfg.L1PortOcc)
				done = start + int64(cfg.L1HitLat)
			} else {
				s.portFree = start + int64(cfg.L1PortOcc+cfg.L1FillOcc)
				done = s.mshrs.alloc(start, int64(cfg.MissLat))
			}
		} else {
			s.l1.bypass()
			done = s.mshrs.alloc(issue, int64(cfg.BypassLat))
		}
		if done > maxDone {
			maxDone = done
		}
	}
	return maxDone - now, nil
}

// execStore performs one warp store and returns its model cost, with the
// same one-check-per-warp fast path as execLoad.
func (s *smShard) execStore(w *warpState, fr *frame, in *dinstr, mask uint32) (int64, error) {
	addrs, vals := fr.row(in.a), fr.row(in.b)
	size := uint64(in.mem.Size())
	lo, hi := span(addrs, mask)
	end := hi + size
	if in.shared {
		sh := w.cta.shared
		if end >= hi && end <= uint64(len(sh.buf)) {
			scatter(sh.buf, 0, in.mem, addrs, vals, mask)
		} else {
			for lane := 0; lane < WarpSize; lane++ {
				if mask&(1<<uint(lane)) == 0 {
					continue
				}
				if err := sh.store(in.mem, addrs[lane], vals[lane]); err != nil {
					return 0, s.fault(w, in.in.Loc, "store lane %d: %v", lane, err)
				}
			}
		}
		if s.ls.p.WatchShared {
			s.watchSharedStore(w, in.in, mask, addrs)
		}
		return int64(s.ls.cfg.SharedLat) / 2, nil
	}

	if lo < 256 || end < hi || !s.scatterGlobal(in.mem, addrs, vals, mask, lo, end) {
		for lane := 0; lane < WarpSize; lane++ {
			if mask&(1<<uint(lane)) == 0 {
				continue
			}
			if err := s.storeGlobal(in.mem, addrs[lane], vals[lane]); err != nil {
				return 0, s.fault(w, in.in.Loc, "store lane %d: %v", lane, err)
			}
		}
	}
	s.memInstrs++
	// Write-through, write-evict; stores do not stall the warp.
	s.lineBuf = coalesceLines(s.lineBuf, mask, addrs, int(size), s.ls.cfg.L1LineSize)
	for _, line := range s.lineBuf {
		s.l1.write(line)
	}
	return int64(len(s.lineBuf)), nil
}

// watchSharedLoad observes one warp shared-memory load under WatchShared:
// it counts the access and its bank replays, and runs the last-writer
// race check over each active lane's covered words.
func (s *smShard) watchSharedLoad(w *warpState, in *ir.Instr, mask uint32, addrs *[WarpSize]uint64) {
	size := in.Mem.Size()
	s.sharedAccesses++
	s.bankReplays += int64(BankConflictDegree(mask, addrs, size) - 1)
	sh := w.cta.shared
	if sh.epochs == nil {
		return
	}
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		thread := int32(w.view.WarpInCTA*WarpSize + lane)
		if sh.readRaced(addrs[lane], size, thread) {
			if s.raceSites == nil {
				s.raceSites = map[ir.Loc]int64{}
			}
			s.raceSites[in.Loc]++
		}
	}
}

// watchSharedStore observes one warp shared-memory store under
// WatchShared: it counts the access and its bank replays, and stamps each
// active lane as the interval's last writer of its covered words, in lane
// order (the order the functional store applied them). A warp-uniform
// store — every active lane addressing the same words — stamps the
// uniformWriter wildcard instead, matching the static race detector's
// broadcast-initialization treatment of uniform-address writes.
func (s *smShard) watchSharedStore(w *warpState, in *ir.Instr, mask uint32, addrs *[WarpSize]uint64) {
	size := in.Mem.Size()
	s.sharedAccesses++
	s.bankReplays += int64(BankConflictDegree(mask, addrs, size) - 1)
	sh := w.cta.shared
	if sh.epochs == nil {
		return
	}
	first, uniform := -1, true
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		if first < 0 {
			first = lane
		} else if addrs[lane] != addrs[first] {
			uniform = false
			break
		}
	}
	if first < 0 {
		return
	}
	if uniform {
		sh.stampWrite(addrs[first], size, uniformWriter)
		return
	}
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<uint(lane)) != 0 {
			sh.stampWrite(addrs[lane], size, int32(w.view.WarpInCTA*WarpSize+lane))
		}
	}
}

func (s *smShard) execAtomic(w *warpState, fr *frame, in *dinstr, mask uint32) (int64, error) {
	// Atomics always run on the serial path (Launch forces it for
	// modules containing one), so direct device-memory access here is
	// single-threaded by construction.
	addrs, vals := fr.row(in.a), fr.row(in.b)
	mem := s.ls.dev.Mem
	n := 0
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		n++
		addr := addrs[lane]
		old, err := mem.load(in.mem, addr)
		if err != nil {
			return 0, s.fault(w, in.in.Loc, "atomic lane %d: %v", lane, err)
		}
		var sum uint64
		if in.mem == ir.MemF32 {
			sum = ir.F32Bits(ir.F32FromBits(old) + ir.F32FromBits(vals[lane]))
		} else {
			sum = ir.I32Bits(ir.I32FromBits(old) + ir.I32FromBits(vals[lane]))
		}
		if err := mem.store(in.mem, addr, sum); err != nil {
			return 0, s.fault(w, in.in.Loc, "atomic lane %d: %v", lane, err)
		}
		if in.dst >= 0 {
			fr.row(in.dst)[lane] = old
		}
		s.l1.write(s.l1.lineOf(addr) << s.l1.lineShift)
	}
	s.memInstrs++
	return int64(n * s.ls.cfg.AtomLat), nil
}

// transfer handles a uniform control transfer of the top entry to target.
func transfer(e *simtEntry, target int32) {
	if target == e.reconv {
		e.mask = 0 // drained; settle() pops it
		return
	}
	e.pc = target
}

// settle pops drained and reconverged SIMT entries, completes returned
// frames, and retires finished warps.
func (s *smShard) settle(w *warpState) {
	for len(w.frames) > 0 {
		fr := w.frames[len(w.frames)-1]
		for len(fr.stack) > 0 {
			e := &fr.stack[len(fr.stack)-1]
			if e.mask == 0 || e.pc == e.reconv {
				fr.stack = fr.stack[:len(fr.stack)-1]
				continue
			}
			break
		}
		if len(fr.stack) > 0 {
			return
		}
		// Frame complete.
		if len(w.frames) == 1 {
			// Kernel frame: warp retires.
			s.frames.release(fr)
			w.frames = w.frames[:0]
			w.done = true
			cta := w.cta
			cta.liveWarps--
			s.releaseBarrierIfReady(cta)
			return
		}
		caller := w.frames[len(w.frames)-2]
		if fr.retDst >= 0 {
			copyLanes(caller.row(fr.retDst), (*row)(&fr.retVals), fr.callMask)
		}
		s.frames.release(fr)
		w.frames = w.frames[:len(w.frames)-1]
		// Advance past the call instruction in the caller.
		caller.stack[len(caller.stack)-1].pc++
	}
}

// releaseBarrierIfReady releases a pending CTA barrier once every live
// warp has arrived.
func (s *smShard) releaseBarrierIfReady(cta *ctaState) {
	if cta.arrived == 0 || cta.liveWarps == 0 {
		if cta.liveWarps == 0 {
			cta.arrived = 0
		}
		return
	}
	waiting := 0
	for _, w := range cta.warps {
		if w.atBarrier {
			waiting++
		}
	}
	if waiting < cta.liveWarps {
		return
	}
	for _, w := range cta.warps {
		if w.atBarrier {
			w.atBarrier = false
			if cta.barrierAt > w.readyAt {
				w.readyAt = cta.barrierAt
			}
			s.post(w)
		}
	}
	cta.arrived = 0
	cta.barrierAt = 0
	// A full release starts the next barrier interval for the dynamic
	// shared-memory race check (a no-op when the launch is not watching).
	cta.shared.newInterval()
}
