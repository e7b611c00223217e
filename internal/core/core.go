// Package core keeps the report entry points that bench/layers.go pins
// (DESIGN.md §7): FromProfile and six Write* methods, each one call into
// package report on the run's analysis bundle. A profiling session is
// built from rt, instrument and profiler (internal/profiler's examples
// show one); this package adds nothing to it.
package core

import (
	"io"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/report"
)

// Advisor is an already-collected profile and the architecture it was
// collected on.
type Advisor struct {
	Arch     gpu.ArchConfig
	Profiler *profiler.Profiler
}

// FromProfile wraps a collected profile for its reports. The
// instrumentation options are part of the pinned signature only: the
// profile holds what was collected.
func FromProfile(arch gpu.ArchConfig, _ instrument.Options, p *profiler.Profiler) *Advisor {
	return &Advisor{Arch: arch, Profiler: p}
}

// analyses is the profile's analysis bundle at this architecture's line size.
func (a *Advisor) analyses() *profiler.Analyses { return a.Profiler.Analyses(a.Arch.L1LineSize) }

// WriteReuseReport renders the Figure 4 histogram of every kernel, by name.
func (a *Advisor) WriteReuseReport(w io.Writer) {
	report.ReuseByKernel(w, a.analyses().ReuseElemByKernel())
}

// WriteMemDivergenceReport renders the Figure 5 distribution.
func (a *Advisor) WriteMemDivergenceReport(w io.Writer) {
	report.MemDivDistribution(w, "all kernels", a.analyses().MemDiv())
}

// WriteBranchDivergenceReport renders the Table 3 line and the most
// divergent blocks.
func (a *Advisor) WriteBranchDivergenceReport(w io.Writer) {
	report.BranchDivergence(w, a.analyses().BranchDiv())
}

// WriteSharedMemReport renders the bank conflicts and races.
func (a *Advisor) WriteSharedMemReport(w io.Writer) {
	report.SharedMem(w, a.analyses().SharedBank(), a.analyses().SharedRaces())
}

// WriteCodeCentric renders the Figure 8 view of the topN sites.
func (a *Advisor) WriteCodeCentric(w io.Writer, topN int) {
	report.CodeCentric(w, a.Profiler, a.analyses().MemDiv(), topN)
}

// WriteDataCentric renders the Figure 9 view for a device address.
func (a *Advisor) WriteDataCentric(w io.Writer, devAddr uint64) {
	report.DataCentric(w, a.Profiler, devAddr)
}
