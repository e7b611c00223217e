package gpu

import (
	"math"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/runner"
)

// smShard is the execution state of one streaming multiprocessor within a
// launch: its CTA queue, cache/MSHR/port models, instruction counters,
// and — on the parallel path — its private global-memory write view.
// Shards touch no mutable launch-wide state, so those of a launch that
// cannot call a hook may run concurrently; everything observable merges in
// SM order.
type smShard struct {
	ls     *launchState
	sm     int
	ctaIDs []int

	l1       *l1cache
	mshrs    *mshr
	memQ     *mshr
	portFree int64 // next cycle the L1 port is available
	lineBuf  []uint64
	tmp      row // alu's scratch row for partially masked instructions
	frames   *framePool
	hookArgs []LaneValues // argument buffer lent to hook calls

	// The scheduler's view of the resident warps, in admission order:
	// wake[i] is when warps[i] can next issue, or parked while it is done
	// or waiting at a barrier. The per-slot scan reads this one flat
	// array instead of chasing every warp state.
	warps []*warpState
	wake  []int64

	instrs    int64 // per-SM dynamic warp instructions (also the guard counter)
	memInstrs int64
	hookCalls int64

	// Shared-memory watch counters (LaunchParams.WatchShared).
	sharedAccesses int64
	bankReplays    int64
	raceSites      map[ir.Loc]int64

	// CTA residency spans in retirement order (LaunchParams.RecordSchedule).
	spans []CTASpan

	// Parallel-path state: the shard's private write view of global memory
	// and the run outcome captured for the ordered merge.
	wmem   *shardWrites
	cycles int64
	err    error
}

// run simulates this SM over its CTA queue and returns its busy cycles.
func (s *smShard) run(threadsPerCTA, warpsPerCTA int) (int64, error) {
	ls := s.ls
	s.l1 = newL1(ls.cfg)
	s.mshrs = newMSHR(ls.cfg.MSHRs)
	s.memQ = newMSHR(ls.cfg.MemQueue)
	s.portFree = 0

	occupancy := ls.cfg.MaxCTAsPerSM
	if byWarps := ls.cfg.MaxWarpsPerSM / warpsPerCTA; byWarps < occupancy {
		occupancy = byWarps
	}
	// Shared memory bounds residency too: an SM can host only as many
	// CTAs as its shared-memory capacity divides into the kernel's
	// per-CTA allocation (the third term of the hardware occupancy min).
	if smem := ls.kernel.fn.SharedBytes; smem > 0 && ls.cfg.SharedMemPerSM > 0 {
		if bySmem := int(ls.cfg.SharedMemPerSM / smem); bySmem < occupancy {
			occupancy = bySmem
		}
	}
	if occupancy < 1 {
		occupancy = 1
	}

	var resident []*ctaState
	next := 0
	issueAt := int64(0) // next free issue slot (1 instruction per cycle)
	finish := int64(0)
	var lastRun *warpState

	admit := func(at int64) {
		for len(resident) < occupancy && next < len(s.ctaIDs) {
			cta := s.newCTA(s.ctaIDs[next], threadsPerCTA, warpsPerCTA, at)
			resident = append(resident, cta)
			next++
		}
		s.warps, s.wake = s.warps[:0], s.wake[:0]
		for _, cta := range resident {
			for _, w := range cta.warps {
				w.slot = len(s.warps)
				s.warps = append(s.warps, w)
				s.wake = append(s.wake, 0)
				s.post(w)
			}
		}
	}
	admit(0)

	for len(resident) > 0 {
		// Greedy-then-oldest issue through a single-issue port: the last
		// warp keeps the slot while it is ready; otherwise the oldest
		// ready warp (admission order) gets it; if nobody is ready the
		// port idles until the earliest wakeup. GTO lets warps drift
		// apart as on hardware, which is what exposes inter-warp reuse
		// to capacity pressure.
		w := lastRun
		if w == nil || s.wake[w.slot] > issueAt {
			slot, wake := s.oldestReady(issueAt)
			if slot < 0 {
				if wake == parked {
					// Everything is blocked on barriers: a lost-warp deadlock.
					return 0, &Fault{Kernel: ls.kernel.fn.Name, CTA: deadlockCTA(resident),
						Msg: "barrier deadlock: all warps waiting"}
				}
				issueAt = wake
				continue
			}
			w = s.warps[slot]
		}
		if err := s.step(w, issueAt); err != nil {
			return 0, err
		}
		s.post(w)
		lastRun = w
		issueAt++
		if w.readyAt > finish {
			finish = w.readyAt
		}

		// A CTA can only finish on a step of one of its own warps, so the
		// retire-and-admit sweep runs only then.
		if !w.done || w.cta.liveWarps != 0 {
			continue
		}
		lastRun = nil // its slot is about to be reassigned
		liveResident := resident[:0]
		for _, cta := range resident {
			if cta.liveWarps == 0 {
				if ls.p.RecordSchedule {
					end := cta.admitAt
					for _, cw := range cta.warps {
						if cw.readyAt > end {
							end = cw.readyAt
						}
					}
					s.spans = append(s.spans, CTASpan{CTA: cta.id, Start: cta.admitAt, End: end})
				}
				continue
			}
			liveResident = append(liveResident, cta)
		}
		resident = liveResident
		admit(issueAt)
	}
	return finish, nil
}

// parked is the wake time of a warp that cannot issue until something
// else happens: it finished, or it waits at a barrier.
const parked = math.MaxInt64

// post publishes w's state to the scheduler's wake array. It must follow
// every change to a resident warp's readyAt, atBarrier or done: the end
// of its own step, and its release from a barrier by another warp's.
func (s *smShard) post(w *warpState) {
	if w.done || w.atBarrier {
		s.wake[w.slot] = parked
	} else {
		s.wake[w.slot] = w.readyAt
	}
}

// oldestReady returns the first slot, in admission order, whose warp can
// issue at time now. When there is none it returns -1 and the earliest
// wake-up among the waiting warps (parked if every one is parked).
func (s *smShard) oldestReady(now int64) (slot int, wake int64) {
	wake = parked
	for i, t := range s.wake {
		if t <= now {
			return i, t
		}
		if t < wake {
			wake = t
		}
	}
	return -1, wake
}

// deadlockCTA picks the CTA to blame for a barrier deadlock: the
// lowest-id resident CTA that actually has a warp waiting at a barrier.
// Blaming resident[0] unconditionally — the previous behavior — pointed
// at whatever CTA happened to be admitted first, which need not be
// involved in the deadlock at all when several CTAs are resident.
func deadlockCTA(resident []*ctaState) int {
	blame := -1
	for _, cta := range resident {
		for _, w := range cta.warps {
			if w.atBarrier {
				if blame < 0 || cta.id < blame {
					blame = cta.id
				}
				break
			}
		}
	}
	if blame < 0 {
		// No warp waiting anywhere (not reachable from a barrier
		// deadlock, kept as a total fallback).
		return resident[0].id
	}
	return blame
}

// newCTA builds the warp states for one CTA.
func (s *smShard) newCTA(id, threadsPerCTA, warpsPerCTA int, at int64) *ctaState {
	ls := s.ls
	g := ls.p.Grid
	coord := [3]int{id % g[0], (id / g[0]) % g[1], id / (g[0] * g[1])}
	cta := &ctaState{
		id:      id,
		coord:   coord,
		shared:  newSharedMem(ls.kernel.fn.SharedBytes, ls.p.WatchShared),
		admitAt: at,
	}
	for wi := 0; wi < warpsPerCTA; wi++ {
		mask := FullMask
		if rest := threadsPerCTA - wi*WarpSize; rest < WarpSize {
			mask = 1<<uint(rest) - 1
		}
		fr := s.frames.newFrame(ls.kernel, mask, -1)
		// Bind parameters (uniform across lanes).
		for pi, arg := range ls.p.Args {
			r := fr.row(int32(pi * WarpSize))
			for lane := range r {
				r[lane] = arg
			}
		}
		w := &warpState{
			cta:      cta,
			frames:   []*frame{fr},
			readyAt:  at,
			initMask: mask,
			view: WarpView{
				CTALinear: id,
				CTACoord:  coord,
				WarpInCTA: wi,
				InitMask:  mask,
				SM:        s.sm,
			},
		}
		cta.warps = append(cta.warps, w)
	}
	cta.liveWarps = len(cta.warps)
	return cta
}

// framePool holds the activations that ended on one SM, by function, for
// the next warp or call to reuse: warps come and go by the thousand, and
// their register files are recycled rather than reallocated. The device
// keeps one pool per SM across launches; shards of one launch simulate
// different SMs, so no pool is ever shared between goroutines.
type framePool struct {
	idle map[*dfunc][]*frame
}

// newFrame returns an activation of df for the lanes of mask, with every
// register zero; retDst is the caller's destination row (-1 for none, and
// for the kernel frame).
func (p *framePool) newFrame(df *dfunc, mask uint32, retDst int32) *frame {
	var fr *frame
	if l := p.idle[df]; len(l) > 0 {
		fr, p.idle[df] = l[len(l)-1], l[:len(l)-1]
		clear(fr.regs)
		fr.retVals = LaneValues{}
	} else {
		fr = &frame{df: df, regs: make([]uint64, df.fn.NumRegs*WarpSize)}
	}
	fr.stack = append(fr.stack[:0], simtEntry{pc: 0, reconv: reconvNever, mask: mask})
	fr.retDst, fr.callMask = retDst, mask
	return fr
}

// release returns a finished activation to the pool.
func (p *framePool) release(fr *frame) {
	if p.idle == nil {
		p.idle = map[*dfunc][]*frame{}
	}
	p.idle[fr.df] = append(p.idle[fr.df], fr)
}

// loadGlobal reads one lane's value from global memory: through the
// shard's write view when one is active (parallel path), from device
// memory directly on the serial path. It is the slow path of execLoad,
// taken when the warp as a whole failed the bounds check or reads above
// the backed prefix, and the source of lane-attributed fault text.
func (s *smShard) loadGlobal(mt ir.MemType, addr uint64) (uint64, error) {
	if s.wmem == nil {
		return s.ls.dev.Mem.load(mt, addr)
	}
	if err := s.ls.dev.Mem.check(addr, mt.Size()); err != nil {
		return 0, err
	}
	return s.wmem.load(mt, addr), nil
}

// storeGlobal writes one lane's value to global memory, buffering into
// the shard's write view on the parallel path; execStore's slow path.
func (s *smShard) storeGlobal(mt ir.MemType, addr uint64, bits uint64) error {
	if s.wmem == nil {
		return s.ls.dev.Mem.store(mt, addr, bits)
	}
	if err := s.ls.dev.Mem.check(addr, mt.Size()); err != nil {
		return err
	}
	s.wmem.store(mt, addr, bits)
	return nil
}

// readable returns a flat slice (and the address of its byte 0) through
// which every byte of the in-range span [lo, end) can be read as this
// shard currently sees it, or nil when there is no single such slice: the
// span reaches above the backed prefix or the capacity, or — on the
// parallel path — mixes pages this shard has written with ones it has not.
func (s *smShard) readable(lo, end uint64) (buf []byte, origin uint64) {
	mem := s.ls.dev.Mem
	ws := s.wmem
	if ws == nil || len(ws.pages) == 0 {
		if end <= uint64(len(mem.buf)) {
			return mem.buf, 0
		}
		return nil, 0
	}
	if idx := lo >> shardPageBits; idx == (end-1)>>shardPageBits && end <= mem.limit {
		if p := ws.page(idx); p != nil {
			return p.data, idx << shardPageBits
		}
		if end <= uint64(len(mem.buf)) {
			return mem.buf, 0
		}
	}
	return nil, 0
}

// scatterGlobal stores one element per active lane when the in-range
// span [lo, end) can be written in one piece — anywhere within capacity
// on the serial path, within one copy-on-write page on the parallel one —
// and reports whether it did.
func (s *smShard) scatterGlobal(mt ir.MemType, addrs, vals *row, mask uint32, lo, end uint64) bool {
	mem := s.ls.dev.Mem
	if end > mem.limit {
		return false
	}
	if s.wmem == nil {
		mem.back(end)
		scatter(mem.buf, 0, mt, addrs, vals, mask)
		return true
	}
	idx := lo >> shardPageBits
	if idx != (end-1)>>shardPageBits {
		return false
	}
	p := s.wmem.dirty(idx)
	scatter(p.data, idx<<shardPageBits, mt, addrs, vals, mask)
	n := uint64(mt.Size())
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<uint(lane)) != 0 {
			p.mark(addrs[lane]&shardPageMask, n)
		}
	}
	return true
}

// runParallel fans the SM shards out across idle pool workers and merges
// them in SM order. Every shard runs to its own completion or fault; the
// first fault in SM order — the one the serial path would have raised —
// wins, and a failed launch applies none of its writes.
//
// Global-memory writes buffer in per-shard copy-on-write pages during the
// parallel phase (device memory is read-only until the shards join) and
// apply in SM order afterwards, so the final memory image equals the
// serial one for every kernel whose concurrent cross-SM writes are
// disjoint — and stays deterministic (last SM in order wins) even when
// they are not.
func (ls *launchState) runParallel(shards []*smShard, threadsPerCTA, warpsPerCTA int) error {
	for _, s := range shards {
		s.wmem = newShardWrites(ls.dev.Mem.buf)
	}
	runner.Shards(ls.p.Pool, len(shards), func(i int) {
		shards[i].cycles, shards[i].err = shards[i].run(threadsPerCTA, warpsPerCTA)
	})
	for _, s := range shards {
		if s.err != nil {
			return s.err
		}
	}
	// Only now, with every shard joined, may device memory grow to hold
	// stores that landed above its high-water mark.
	mem := ls.dev.Mem
	for _, s := range shards {
		mem.back(min(s.wmem.extent(), mem.limit))
	}
	for _, s := range shards {
		s.wmem.applyTo(mem.buf)
	}
	for _, s := range shards {
		ls.merge(s, s.cycles)
	}
	return nil
}

const (
	shardPageBits = 12 // 4 KB copy-on-write pages
	shardPageSize = 1 << shardPageBits
	shardPageMask = shardPageSize - 1
)

// shardPage is one dirtied 4 KB page: a private copy of the page's
// launch-entry contents plus a per-byte written bitmap. The bitmap — not
// a content diff — defines the merge, so a store of the value already in
// memory still counts as this shard's write (exactly as serial execution
// would order it).
type shardPage struct {
	data    []byte
	written []uint64 // 1 bit per byte of data
}

func (p *shardPage) mark(off, n uint64) {
	for i := off; i < off+n; i++ {
		p.written[i>>6] |= 1 << (i & 63)
	}
}

// shardWrites is one shard's private view of global memory during a
// parallel launch: reads see the launch-entry image plus this shard's own
// writes; writes land in copy-on-write pages. Device memory itself stays
// untouched until the shards join, which is what keeps concurrent shards
// race-free without any locking on the simulated memory.
type shardWrites struct {
	base  []byte
	pages map[uint64]*shardPage

	// One-entry page cache: warps touch the same page in long runs
	// (coalesced accesses), so most lookups skip the map.
	lastIdx  uint64
	lastPage *shardPage
}

func newShardWrites(base []byte) *shardWrites {
	return &shardWrites{base: base, pages: map[uint64]*shardPage{}, lastIdx: ^uint64(0)}
}

// page returns the dirty page covering idx, or nil if this shard has not
// written it.
func (ws *shardWrites) page(idx uint64) *shardPage {
	if idx == ws.lastIdx {
		return ws.lastPage
	}
	p := ws.pages[idx]
	if p != nil {
		ws.lastIdx, ws.lastPage = idx, p
	}
	return p
}

// dirty returns the dirty page covering idx, copying it from base first
// if this is the shard's first write to it. base may end inside or before
// the page (device memory backs only its high-water prefix): the rest of
// the page is memory never written, which reads as zero.
func (ws *shardWrites) dirty(idx uint64) *shardPage {
	if p := ws.page(idx); p != nil {
		return p
	}
	p := &shardPage{
		data:    make([]byte, shardPageSize),
		written: make([]uint64, shardPageSize/64),
	}
	if start := idx << shardPageBits; start < uint64(len(ws.base)) {
		copy(p.data, ws.base[start:])
	}
	ws.pages[idx] = p
	ws.lastIdx, ws.lastPage = idx, p
	return p
}

// load reads a value; the access is already bounds-checked against the
// device, so addr+size cannot overflow here.
func (ws *shardWrites) load(mt ir.MemType, addr uint64) uint64 {
	n := uint64(mt.Size())
	idx := addr >> shardPageBits
	if (addr+n-1)>>shardPageBits == idx {
		if p := ws.page(idx); p != nil {
			return loadFrom(p.data, mt, addr&shardPageMask)
		}
		return loadZeroExt(ws.base, mt, addr)
	}
	// Access spans a page boundary: assemble bytes from both sides.
	var tmp [8]byte
	for i := uint64(0); i < n; i++ {
		a := addr + i
		if p := ws.page(a >> shardPageBits); p != nil {
			tmp[i] = p.data[a&shardPageMask]
		} else if a < uint64(len(ws.base)) {
			tmp[i] = ws.base[a]
		}
	}
	return loadFrom(tmp[:], mt, 0)
}

// store buffers a write into the shard's dirty pages.
func (ws *shardWrites) store(mt ir.MemType, addr uint64, bits uint64) {
	n := uint64(mt.Size())
	idx := addr >> shardPageBits
	if (addr+n-1)>>shardPageBits == idx {
		off := addr & shardPageMask
		p := ws.dirty(idx)
		storeTo(p.data, mt, off, bits)
		p.mark(off, n)
		return
	}
	var tmp [8]byte
	storeTo(tmp[:], mt, 0, bits)
	for i := uint64(0); i < n; i++ {
		a := addr + i
		off := a & shardPageMask
		p := ws.dirty(a >> shardPageBits)
		p.data[off] = tmp[i]
		p.mark(off, 1)
	}
}

// extent returns the end address of the highest page this shard dirtied
// (0 for none): what dst must cover before applyTo.
func (ws *shardWrites) extent() uint64 {
	end := uint64(0)
	for idx := range ws.pages {
		end = max(end, (idx+1)<<shardPageBits)
	}
	return end
}

// applyTo copies every written byte into dst. Shards apply in SM order,
// so for bytes several shards wrote the highest SM's value lands last —
// the same last-writer the serial SM-major order produces.
func (ws *shardWrites) applyTo(dst []byte) {
	for idx, p := range ws.pages {
		out := dst[idx<<shardPageBits:]
		for wi, word := range p.written {
			if word == 0 {
				continue
			}
			base := wi << 6
			for b := 0; b < 64; b++ {
				if word&(1<<uint(b)) != 0 {
					out[base+b] = p.data[base+b]
				}
			}
		}
	}
}
