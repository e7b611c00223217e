// Package core is the CUDAAdvisor façade: it wires the three components
// of Figure 1 — the instrumentation engine, the profiler, and the
// analyzer — into one object, the way the paper's tool presents itself
// to a user. A typical session:
//
//	adv := core.New(gpu.KeplerK40c(), instrument.MemoryAndBlocks())
//	prog, _ := adv.Compile(module)             // engine: rewrite bitcode
//	ctx := adv.Context()                       // profiled host runtime
//	... allocate, copy, adv/ctx.Launch(prog, ...) ...
//	adv.WriteReuseReport(os.Stdout)            // analyzer outputs
//	adv.WriteMemDivergenceReport(os.Stdout)
//	adv.WriteBranchDivergenceReport(os.Stdout)
//	adv.WriteCodeCentric(os.Stdout, 3)
package core

import (
	"fmt"
	"io"
	"sort"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/bypass"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/report"
	"cudaadvisor/internal/rt"
)

// DefaultDeviceMem is the simulated global-memory capacity of every
// device this package and the experiment layer create. It is a limit:
// the device backs only what a run allocates or stores to.
const DefaultDeviceMem = 512 << 20

// Advisor is one profiling session: an architecture, an instrumentation
// configuration, a device, and the collected profiles.
type Advisor struct {
	Arch     gpu.ArchConfig
	Opts     instrument.Options
	Device   *gpu.Device
	Profiler *profiler.Profiler

	ctx *rt.Context
}

// New creates an advisor session on the given architecture with the given
// optional instrumentation categories.
func New(arch gpu.ArchConfig, opts instrument.Options) *Advisor {
	a := &Advisor{
		Arch:     arch,
		Opts:     opts,
		Device:   gpu.NewDevice(arch, DefaultDeviceMem),
		Profiler: profiler.New(),
	}
	a.ctx = rt.NewContext(a.Device, a.Profiler)
	return a
}

// Context returns the profiled host runtime for this session.
func (a *Advisor) Context() *rt.Context { return a.ctx }

// FromProfile wraps an already-collected profile in an analysis-only
// session: every analyzer and report method works, but there is no
// device and no runtime context — nothing further can be launched. It
// is how callers that profile through the experiments layer (with its
// cancellation, injection, and caching policies) reuse the façade's
// reports.
func FromProfile(arch gpu.ArchConfig, opts instrument.Options, p *profiler.Profiler) *Advisor {
	return &Advisor{Arch: arch, Opts: opts, Profiler: p}
}

// Compile runs the instrumentation engine over the module (in place) and
// returns the launchable program — the Figure 2 pipeline from bitcode to
// fat binary.
func (a *Advisor) Compile(m *ir.Module) (*instrument.Program, error) {
	return instrument.Instrument(m, a.Opts)
}

// Kernels returns the profiled kernel instances.
func (a *Advisor) Kernels() []*profiler.KernelProfile { return a.Profiler.Kernels }

// analyses is the profile's analysis bundle at this architecture's line size.
func (a *Advisor) analyses() *profiler.Analyses { return a.Profiler.Analyses(a.Arch.L1LineSize) }

// ReuseDistance aggregates the reuse-distance profile over all kernel
// instances under the given model.
func (a *Advisor) ReuseDistance(opt analysis.ReuseOptions) *analysis.ReuseResult {
	return a.analyses().Reuse(opt)
}

// MemDivergence aggregates the memory-divergence profile over all kernel
// instances at this architecture's cache-line size.
func (a *Advisor) MemDivergence() *analysis.MemDivResult { return a.analyses().MemDiv() }

// BranchDivergence aggregates the branch-divergence profile over all
// kernel instances.
func (a *Advisor) BranchDivergence() *analysis.BranchDivResult { return a.analyses().BranchDiv() }

// SharedBankConflicts aggregates the shared-memory bank-conflict profile
// over all kernel instances. It is empty unless the session's options
// enable the shared-memory instrumentation category.
func (a *Advisor) SharedBankConflicts() *analysis.SharedBankResult {
	return a.analyses().SharedBank()
}

// SharedRaces aggregates the simulator's same-interval last-writer
// observations over all kernel instances, summed per read site in
// deterministic site order. Empty unless the shared-memory watch ran.
func (a *Advisor) SharedRaces() []gpu.SharedRaceSite {
	byLoc := a.analyses().SharedRaces()
	out := make([]gpu.SharedRaceSite, 0, len(byLoc))
	for loc, n := range byLoc {
		out = append(out, gpu.SharedRaceSite{Loc: loc, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Loc.Less(out[j].Loc) })
	return out
}

// WriteSharedMemReport renders the dynamic shared-memory view: the
// app-wide bank-conflict degree, the most conflicted sites, and any
// same-interval races the watch observed.
func (a *Advisor) WriteSharedMemReport(w io.Writer) {
	sb := a.SharedBankConflicts()
	fmt.Fprintf(w, "shared memory: %d warp accesses, average bank-conflict degree %.2f",
		sb.Total, sb.Degree())
	if sb.Partial() {
		fmt.Fprintf(w, " (trace sampled: %d of %d events)", sb.EventsRecorded, sb.EventsSeen)
	}
	fmt.Fprintln(w)
	for _, s := range sb.Sites() {
		if s.MaxDegree <= 1 {
			continue
		}
		fmt.Fprintf(w, "  %s: %d accesses, degree %.2f (max %d), %d extra bank passes\n",
			s.Loc, s.Count, s.Degree(), s.MaxDegree, s.ReplaySum)
	}
	races := a.SharedRaces()
	if len(races) == 0 {
		fmt.Fprintln(w, "  no same-interval races observed")
		return
	}
	for _, rs := range races {
		fmt.Fprintf(w, "  RACE at %s: %d lane reads hit another thread's same-interval write\n",
			rs.Loc, rs.Count)
	}
}

// PredictBypassWarps evaluates the Eq. (1) model on this session's
// profiles: the recommended number of warps per CTA to keep on L1.
func (a *Advisor) PredictBypassWarps(warpsPerCTA int) int {
	an := a.analyses()
	nCTAs := 0
	for _, kp := range a.Profiler.Kernels {
		if kp.Result != nil && kp.Result.CTAs > nCTAs {
			nCTAs = kp.Result.CTAs
		}
	}
	ctas := bypass.ResidentCTAs(a.Arch, warpsPerCTA, nCTAs)
	return bypass.PredictFromProfiles(a.Arch, an.ReuseLine(), an.ReuseElem(), an.MemDiv(), warpsPerCTA, ctas)
}

// WriteReuseReport renders the Figure 4 style histogram of every kernel
// of this session, by name.
func (a *Advisor) WriteReuseReport(w io.Writer) {
	byKernel := a.analyses().ReuseElemByKernel()
	names := make([]string, 0, len(byKernel))
	for name := range byKernel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		report.ReuseHistogram(w, name, byKernel[name])
	}
}

// WriteMemDivergenceReport renders the Figure 5 style distribution.
func (a *Advisor) WriteMemDivergenceReport(w io.Writer) {
	report.MemDivDistribution(w, "all kernels", a.MemDivergence())
}

// WriteBranchDivergenceReport renders the Table 3 style summary plus the
// most divergent blocks.
func (a *Advisor) WriteBranchDivergenceReport(w io.Writer) {
	bd := a.BranchDivergence()
	fmt.Fprintf(w, "branch divergence: %d of %d dynamic blocks divergent (%.2f%%)\n",
		bd.Divergent, bd.Total, bd.Percent())
	blocks := bd.Blocks()
	if len(blocks) > 5 {
		blocks = blocks[:5]
	}
	for _, b := range blocks {
		fmt.Fprintf(w, "  %s/%s at %s: %d of %d executions divergent\n",
			b.Block.Func, b.Block.Block, b.Loc, b.Divergent, b.Execs)
	}
}

// WriteCodeCentric renders the Figure 8 view: the topN most
// memory-divergent sites with full host+device call paths.
func (a *Advisor) WriteCodeCentric(w io.Writer, topN int) {
	report.CodeCentric(w, a.Profiler, a.MemDivergence(), topN)
}

// WriteDataCentric renders the Figure 9 view for a device address.
func (a *Advisor) WriteDataCentric(w io.Writer, devAddr uint64) {
	report.DataCentric(w, a.Profiler, devAddr)
}
