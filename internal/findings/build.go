package findings

import (
	"fmt"
	"sort"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/staticadvisor"
)

// FromStatic maps a static advisor module result into findings, one per
// branch, global access, barrier, shared access and race the analyzer
// reports, in module order and kind by kind within a function, with no
// dynamic evidence attached (Verdict static-only). It drops nothing:
// conflict-free and broadcast shared accesses are findings too, which
// Advises leaves out of reports. lineSize selects the predicted-lines
// figure carried in the access evidence.
func FromStatic(res *staticadvisor.ModuleResult, lineSize int) []Finding {
	var out []Finding
	for _, fr := range res.Funcs {
		for _, b := range fr.Branches {
			region := make([]RegionBlock, len(b.Region))
			for i, rb := range b.Region {
				region[i] = RegionBlock{Name: rb.Name, Instrs: rb.Instrs}
			}
			out = append(out, Finding{
				Kind: KindBranch,
				Site: site(fr.Fn.Name, b.Block, b.Loc),
				Static: StaticEvidence{
					Shape:  b.Shape.String(),
					Cond:   b.Cond,
					Region: region,
				},
				Verdict: VerdictStaticOnly,
			})
		}
		for _, a := range fr.Accesses {
			out = append(out, Finding{
				Kind: KindAccess,
				Site: site(fr.Fn.Name, a.Block, a.Loc),
				Static: StaticEvidence{
					Shape:          a.Addr.String(),
					AccessOp:       a.Op.String(),
					AccessBytes:    a.Bytes,
					Class:          a.Class.String(),
					StrideBytes:    a.Stride,
					PredictedLines: a.PredictedLines(lineSize),
				},
				Verdict: VerdictStaticOnly,
			})
		}
		for _, b := range fr.Barriers {
			out = append(out, Finding{
				Kind:    KindBarrier,
				Site:    site(fr.Fn.Name, b.Block, b.Loc),
				Static:  StaticEvidence{Shape: "divergent-control"},
				Verdict: VerdictStaticOnly,
			})
		}
		for _, sa := range fr.SharedAccesses {
			ev := StaticEvidence{
				Shape:       sa.Addr.String(),
				AccessOp:    sa.Op.String(),
				AccessBytes: sa.Bytes,
				Decl:        declName(sa.Decl),
				Degree:      sa.Degree,
				Broadcast:   sa.Broadcast,
			}
			if sa.StrideKnown {
				ev.StrideBytes = sa.Stride
			}
			out = append(out, Finding{
				Kind:    KindBankConflict,
				Site:    site(fr.Fn.Name, sa.Block, sa.Loc),
				Static:  ev,
				Verdict: VerdictStaticOnly,
			})
		}
		for _, rc := range fr.Races {
			ws := site(fr.Fn.Name, rc.WriteBlock, rc.WriteLoc)
			out = append(out, Finding{
				Kind: KindSharedRace,
				Site: site(fr.Fn.Name, rc.ReadBlock, rc.ReadLoc),
				Static: StaticEvidence{
					Shape: "same-interval",
					Decl:  declName(rc.Decl),
					Write: &ws,
				},
				Verdict: VerdictStaticOnly,
			})
		}
	}
	for i := range out {
		out[i].Advice = advice(&out[i])
	}
	return out
}

func site(fn, block string, loc ir.Loc) Site {
	return Site{File: loc.File, Line: loc.Line, Col: loc.Col, Func: fn, Block: block}
}

// declName maps the analyzer's decl lattice values ("" unknown, "*"
// ambiguous) to the report's convention: named or absent.
func declName(d string) string {
	if d == "*" {
		return ""
	}
	return d
}

// Advises reports whether a finding is advice: every finding is, except
// a shared access of static degree ≤ 1 (conflict-free or broadcast),
// which the lint listings show and reports leave out.
func (f *Finding) Advises() bool {
	return f.Kind != KindBankConflict || f.Static.Degree > 1
}

// PredictLines recomputes the static lines-per-warp prediction of an
// access finding at a different line size than the one the report was
// built with (the lint views show both evaluated architectures). It
// matches staticadvisor.AccessFinding.PredictedLines.
func PredictLines(class string, strideBytes int64, accessBytes, lineSize int) int {
	af := staticadvisor.AccessFinding{Bytes: accessBytes, Stride: strideBytes}
	switch class {
	case staticadvisor.ClassUniform.String():
		af.Class = staticadvisor.ClassUniform
	case staticadvisor.ClassCoalesced.String():
		af.Class = staticadvisor.ClassCoalesced
	case staticadvisor.ClassStrided.String():
		af.Class = staticadvisor.ClassStrided
	default:
		af.Class = staticadvisor.ClassDivergent
	}
	return af.PredictedLines(lineSize)
}

// BlockKey identifies a static basic block across kernel instances
// (instrumentation block ids are per-program, names are not).
type BlockKey struct {
	Func  string
	Block string
}

// Profile is the per-site dynamic evidence extracted from a profiler:
// memory divergence by source location, block divergence by static
// block, and forward reuse by load site — the join keys the findings
// model needs, aggregated over every kernel instance.
type Profile struct {
	Mem    map[ir.Loc]*analysis.SiteDivergence
	Blocks map[BlockKey]*analysis.BlockDivergence
	Reuse  map[ir.Loc]*analysis.SiteReuse

	// SharedMem holds per-site shared-memory bank-conflict aggregates
	// (populated only when the shared-memory category was instrumented);
	// SharedRaces holds, per load site, the lane reads the simulator's
	// last-writer check flagged (populated only under WatchShared).
	SharedMem   map[ir.Loc]*analysis.SiteBankConflict
	SharedRaces map[ir.Loc]int64

	// MemDiv, BranchDiv and SharedBank are the app-level aggregates the
	// per-site maps were folded from.
	MemDiv     *analysis.MemDivResult
	BranchDiv  *analysis.BranchDivResult
	SharedBank *analysis.SharedBankResult
}

// CollectProfile extracts the per-site dynamic evidence from a profiler
// run at the given cache-line size, by way of the run's analysis bundle.
// The profiler must have run an instrumented program with at least the
// memory and block categories enabled; kernels traced without block
// tables contribute no block evidence.
func CollectProfile(p *profiler.Profiler, lineSize int) *Profile {
	an := p.Analyses(lineSize)
	prof := &Profile{
		Mem:         make(map[ir.Loc]*analysis.SiteDivergence),
		Blocks:      make(map[BlockKey]*analysis.BlockDivergence),
		Reuse:       an.SiteReuse(),
		SharedMem:   make(map[ir.Loc]*analysis.SiteBankConflict),
		SharedRaces: an.SharedRaces(),
		MemDiv:      an.MemDiv(),
		BranchDiv:   an.BranchDiv(),
		SharedBank:  an.SharedBank(),
	}
	for _, s := range prof.MemDiv.Sites() {
		prof.Mem[s.Loc] = s
	}
	for _, b := range prof.BranchDiv.Blocks() {
		if b.Block.Func == "" {
			continue // no tables: block ids cannot be resolved
		}
		k := BlockKey{Func: b.Block.Func, Block: b.Block.Block}
		if cur, ok := prof.Blocks[k]; ok {
			cur.Execs += b.Execs
			cur.Divergent += b.Divergent
		} else {
			cp := *b
			prof.Blocks[k] = &cp
		}
	}
	for _, s := range prof.SharedBank.Sites() {
		prof.SharedMem[s.Loc] = s
	}
	return prof
}

// Join attaches dynamic evidence from the profile to every finding,
// decides the verdicts, and estimates the cycle benefit of fixing each
// finding under the architecture's timing parameters. The findings
// slice is updated in place and returned.
//
// Benefit models (deterministic, integer arithmetic):
//
//   - memory access: every unique line beyond what a fully coalesced
//     access of the same width needs costs one extra coalescer
//     transaction and one extra L1 fill —
//     (measured lines − achievable lines) × (1 + L1FillOcc), summed
//     over the site's executions (exact via the site's WeightedSum).
//   - branch: every divergent execution of a block in the branch's
//     influence region re-issues that block for the complement mask —
//     divergent execs × block instructions × IssueCost, summed over
//     the region.
//   - bank conflict: every extra bank pass (conflict degree − 1)
//     serializes one more shared-memory cycle through each of the read
//     and write ports — measured replays × bankReplayCost, summed over
//     the site's executions (exact via the site's ReplaySum).
//   - barrier, shared race: no cycle model (the hazard is a deadlock or
//     wrong answer, not a slowdown); ranked by severity instead.
func Join(fs []Finding, prof *Profile, cfg gpu.ArchConfig) []Finding {
	for i := range fs {
		f := &fs[i]
		switch f.Kind {
		case KindAccess:
			joinAccess(f, prof, cfg)
		case KindBranch:
			joinBranch(f, prof, cfg)
		case KindBarrier:
			joinBarrier(f, prof)
		case KindBankConflict:
			joinBank(f, prof)
		case KindSharedRace:
			joinRace(f, prof)
		}
		f.Advice = advice(f)
	}
	return fs
}

// bankReplayCost is the modeled cycle cost of one extra bank pass: one
// cycle to re-arbitrate the crossbar plus one to move the word.
const bankReplayCost = 2

// achievableLines is the minimum unique lines a full warp of contiguous
// accesses of the given width needs: the coalescing target.
func achievableLines(accessBytes, lineSize int) int {
	return (gpu.WarpSize*accessBytes + lineSize - 1) / lineSize
}

func joinAccess(f *Finding, prof *Profile, cfg gpu.ArchConfig) {
	s := prof.Mem[f.Site.Loc()]
	if s == nil {
		f.Dynamic = &DynamicEvidence{}
		f.Verdict = VerdictUnobserved
		return
	}
	dyn := &DynamicEvidence{
		Observed:       true,
		WarpExecs:      s.Count,
		DivergentExecs: s.Diverged,
		MeasuredLines:  s.Degree(),
		MaxLines:       s.MaxLines,
	}
	if r := prof.Reuse[f.Site.Loc()]; r != nil {
		dyn.ReuseSamples = r.Samples
		dyn.ReuseReused = r.Reused
	}
	f.Dynamic = dyn

	achievable := int64(achievableLines(f.Static.AccessBytes, prof.MemDiv.LineSize))
	excess := s.WeightedSum - achievable*s.Count
	if excess > 0 {
		f.EstimatedCycles = excess * int64(1+cfg.L1FillOcc)
	}

	// A finding whose class predicts more lines than a coalesced access
	// needs is a flagged hazard; it is refuted when the measured degree
	// stays at the coalescing target anyway (e.g. partial warps).
	flagged := int64(f.Static.PredictedLines) > achievable
	if flagged && excess <= 0 {
		f.Verdict = VerdictRefuted
	} else {
		f.Verdict = VerdictCorroborated
	}
}

func joinBranch(f *Finding, prof *Profile, cfg gpu.ArchConfig) {
	var execs, div, weighted int64
	for _, rb := range f.Static.Region {
		b := prof.Blocks[BlockKey{Func: f.Site.Func, Block: rb.Name}]
		if b == nil {
			continue
		}
		execs += b.Execs
		div += b.Divergent
		weighted += b.Divergent * int64(rb.Instrs)
	}
	f.Dynamic = &DynamicEvidence{
		Observed:       execs > 0,
		WarpExecs:      execs,
		DivergentExecs: div,
	}
	f.EstimatedCycles = weighted * int64(cfg.IssueCost)
	switch {
	case execs == 0:
		f.Verdict = VerdictUnobserved
	case div > 0:
		f.Verdict = VerdictCorroborated
	default:
		f.Verdict = VerdictRefuted
	}
}

func joinBarrier(f *Finding, prof *Profile) {
	b := prof.Blocks[BlockKey{Func: f.Site.Func, Block: f.Site.Block}]
	if b == nil || b.Execs == 0 {
		f.Dynamic = &DynamicEvidence{}
		f.Verdict = VerdictUnobserved
		return
	}
	f.Dynamic = &DynamicEvidence{
		Observed:       true,
		WarpExecs:      b.Execs,
		DivergentExecs: b.Divergent,
	}
	// The run completed, so no barrier faulted; a partial-warp entry to
	// the barrier block still corroborates that the hazard is live.
	if b.Divergent > 0 {
		f.Verdict = VerdictCorroborated
	} else {
		f.Verdict = VerdictRefuted
	}
}

func joinBank(f *Finding, prof *Profile) {
	s := prof.SharedMem[f.Site.Loc()]
	if s == nil {
		f.Dynamic = &DynamicEvidence{}
		f.Verdict = VerdictUnobserved
		return
	}
	f.Dynamic = &DynamicEvidence{
		Observed:       true,
		WarpExecs:      s.Count,
		DivergentExecs: s.Conflicted,
		MeasuredDegree: s.Degree(),
		MaxDegree:      s.MaxDegree,
		BankReplays:    s.ReplaySum,
	}
	f.EstimatedCycles = s.ReplaySum * bankReplayCost
	// The static degree is a worst-case bound; the finding is refuted
	// when the executed lane patterns never actually collided (partial
	// warps, favourable bases).
	if s.ReplaySum > 0 {
		f.Verdict = VerdictCorroborated
	} else {
		f.Verdict = VerdictRefuted
	}
}

func joinRace(f *Finding, prof *Profile) {
	raced := prof.SharedRaces[f.Site.Loc()]
	s := prof.SharedMem[f.Site.Loc()]
	if s == nil && raced == 0 {
		f.Dynamic = &DynamicEvidence{}
		f.Verdict = VerdictUnobserved
		return
	}
	dyn := &DynamicEvidence{Observed: true, RaceReads: raced}
	if s != nil {
		dyn.WarpExecs = s.Count
	}
	f.Dynamic = dyn
	// The last-writer check is per-word exact, so a clean run on this
	// input refutes (does not disprove) the static hazard.
	if raced > 0 {
		f.Verdict = VerdictCorroborated
	} else {
		f.Verdict = VerdictRefuted
	}
}

// advice renders the deterministic recommendation text for a finding in
// its current (joined or static-only) state.
func advice(f *Finding) string {
	switch f.Kind {
	case KindBranch:
		if f.Verdict == VerdictRefuted {
			return "condition is thread-varying in principle but every warp agreed on this input; likely benign"
		}
		return "make the condition warp-uniform: partition work at warp granularity, hoist the test out of the lane dimension, or pad the input"
	case KindBarrier:
		return "barrier may execute with a partial warp, which deadlocks real hardware: hoist it out of conditional code or make the guarding condition warp-uniform"
	case KindAccess:
		var s string
		switch f.Static.Class {
		case "uniform":
			s = "all lanes read one address; the coalescer broadcasts it in a single transaction"
		case "coalesced":
			s = "consecutive lanes touch consecutive addresses; already at the coalescing target"
		case "strided":
			s = fmt.Sprintf("lanes stride %dB apart: transpose the layout or stage through shared memory so consecutive lanes touch consecutive addresses", f.Static.StrideBytes)
		default:
			s = "address has no static structure (data-dependent or irregular): sort the index stream or stage through shared memory"
		}
		if d := f.Dynamic; d != nil && d.ReuseSamples > 0 {
			sr := analysis.SiteReuse{Samples: d.ReuseSamples, Reused: d.ReuseReused}
			if sr.StreamFraction() >= 0.95 {
				s += "; the loaded data is streaming (never reused) — a cache-bypass candidate"
			}
		}
		return s
	case KindBankConflict:
		return bankAdvice(f)
	case KindSharedRace:
		target := "the shared array"
		if f.Static.Decl != "" {
			target = fmt.Sprintf("shared @%s", f.Static.Decl)
		}
		w := ""
		if f.Static.Write != nil {
			w = fmt.Sprintf(" (write in block %s at %s)", f.Static.Write.Block, f.Static.Write)
		}
		return fmt.Sprintf("a thread-varying write and this read of %s share a barrier interval and can touch the same word from different threads%s: insert a bar.sync between them", target, w)
	}
	return ""
}

// bankAdvice renders the recommendation for a bank-conflict finding,
// including a concrete padding suggestion when the per-lane stride is
// known: the smallest stride increase (in element steps) that makes the
// predicted degree collapse to 1.
func bankAdvice(f *Finding) string {
	target := "the shared array"
	if f.Static.Decl != "" {
		target = fmt.Sprintf("shared @%s", f.Static.Decl)
	}
	s := fmt.Sprintf("lanes are predicted to hit the same bank %d ways deep on %s", f.Static.Degree, target)
	elem := int64(f.Static.AccessBytes)
	stride := f.Static.StrideBytes
	if stride != 0 && elem > 0 {
		for pad := stride + elem; pad <= stride+int64(gpu.NumBanks)*elem; pad += elem {
			if staticadvisor.BankDegreeStride(pad, f.Static.AccessBytes) == 1 {
				s += fmt.Sprintf(": pad the per-lane stride from %dB to %dB (%d to %d elements) so consecutive lanes fall in different banks",
					stride, pad, stride/elem, pad/elem)
				return s
			}
		}
	}
	s += ": pad the array's leading dimension by one element, or reorder the indexing so consecutive lanes touch consecutive words"
	return s
}

// Rank orders findings by actionable severity: corroborated correctness
// hazards (barriers, shared races) first, then by estimated cycle
// benefit, then by kind severity, verdict, and finally full site order —
// a total order, so ranking is deterministic regardless of input order
// or parallelism.
func Rank(fs []Finding) {
	hazard := func(f *Finding) bool {
		return (f.Kind == KindBarrier || f.Kind == KindSharedRace) &&
			f.Verdict == VerdictCorroborated
	}
	sort.Slice(fs, func(i, j int) bool {
		a, b := &fs[i], &fs[j]
		ab, bb := hazard(a), hazard(b)
		if ab != bb {
			return ab
		}
		if a.EstimatedCycles != b.EstimatedCycles {
			return a.EstimatedCycles > b.EstimatedCycles
		}
		if ka, kb := kindRank(a.Kind), kindRank(b.Kind); ka != kb {
			return ka < kb
		}
		if va, vb := verdictRank(a.Verdict), verdictRank(b.Verdict); va != vb {
			return va < vb
		}
		if a.Site != b.Site {
			sa, sb := a.Site, b.Site
			if sa.Loc() != sb.Loc() {
				return sa.Loc().Less(sb.Loc())
			}
			if sa.Func != sb.Func {
				return sa.Func < sb.Func
			}
			return sa.Block < sb.Block
		}
		return a.Static.AccessOp < b.Static.AccessOp
	})
}

func kindRank(k Kind) int {
	switch k {
	case KindBarrier:
		return 0
	case KindSharedRace:
		return 1
	case KindBranch:
		return 2
	case KindAccess:
		return 3
	default:
		return 4
	}
}

func verdictRank(v Verdict) int {
	switch v {
	case VerdictCorroborated:
		return 0
	case VerdictRefuted:
		return 1
	case VerdictUnobserved:
		return 2
	default:
		return 3
	}
}
