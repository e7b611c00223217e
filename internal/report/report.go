// Package report renders the analyzer's outputs in the forms the paper
// presents them: reuse-distance histograms (Figure 4), memory-divergence
// distributions (Figure 5), the branch-divergence table (Table 3),
// normalized-execution-time comparisons (Figures 6/7), overhead ratios
// (Figure 10), and the code-/data-centric debugging views (Figures 8/9).
package report

import (
	"fmt"
	"io"
	"strings"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/bypass"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/trace"
)

// bar renders a 40-column proportional ASCII bar for a fraction in [0, 1].
func bar(frac float64) string {
	const width = 40
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// coverageNote renders the partial-profile annotation for an analysis
// whose bounded trace buffer fell back to sampling, or "" for a complete
// profile — so full runs keep byte-identical output.
func coverageNote(partial bool, coverage float64) string {
	if !partial {
		return ""
	}
	return fmt.Sprintf(" [sampled: %.1f%% of events]", 100*coverage)
}

// ReuseHistogram writes one application's Figure 4 panel.
func ReuseHistogram(w io.Writer, app string, r *analysis.ReuseResult) {
	fmt.Fprintf(w, "reuse distance: %s (%d accesses, mean finite %.1f, streaming elements %d)%s\n",
		app, r.Samples, r.MeanFinite(), r.Streaming, coverageNote(r.Partial(), r.Coverage()))
	for i := 0; i < analysis.NumReuseBuckets; i++ {
		f := r.Fraction(i)
		fmt.Fprintf(w, "  %7s %6.2f%% %s\n", analysis.ReuseBucketLabel(i), 100*f, bar(f))
	}
}

// MemDivDistribution writes one application's Figure 5 panel.
func MemDivDistribution(w io.Writer, app string, r *analysis.MemDivResult) {
	fmt.Fprintf(w, "memory divergence: %s (%d B lines, %d warp instructions, degree %.2f)%s\n",
		app, r.LineSize, r.Total, r.Degree(), coverageNote(r.Partial(), r.Coverage()))
	for n := 1; n <= 32; n++ {
		f := r.Fraction(n)
		if f < 0.0005 {
			continue
		}
		fmt.Fprintf(w, "  %2d lines %6.2f%% %s\n", n, 100*f, bar(f))
	}
}

// BranchDivTable writes Table 3: one row per application.
func BranchDivTable(w io.Writer, rows []BranchRow) {
	fmt.Fprintf(w, "%-10s %18s %14s %13s\n", "Application", "# divergent blocks", "# total blocks", "% divergence")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %18d %14d %12.2f%%%s\n", r.App, r.Result.Divergent, r.Result.Total,
			r.Result.Percent(), coverageNote(r.Result.Partial(), r.Result.Coverage()))
	}
}

// BranchRow is one Table 3 row.
type BranchRow struct {
	App    string
	Result *analysis.BranchDivResult
}

// BypassComparison writes one Figures 6/7 group: normalized execution
// times for baseline / oracle / prediction.
func BypassComparison(w io.Writer, rows []bypass.Comparison) {
	fmt.Fprintf(w, "%-10s %7s %9s %9s %12s %13s\n",
		"App", "L1", "Oracle", "Predict", "Oracle-warps", "Predict-warps")
	for _, c := range rows {
		fmt.Fprintf(w, "%-10s %5dKB %8.3f %8.3f %12d %13d\n",
			c.App, c.L1Bytes/1024, c.OracleNorm(), c.PredictNorm(), c.OracleWarps, c.PredictWarps)
	}
}

// OverheadRow is one Figure 10 bar: tool slowdown for one application on
// one architecture, in modeled kernel cycles.
type OverheadRow struct {
	App      string
	Arch     string
	Native   int64 // cycles
	Profiled int64 // cycles
}

// Slowdown returns the overhead ratio.
func (o OverheadRow) Slowdown() float64 {
	if o.Native <= 0 {
		return 0
	}
	return float64(o.Profiled) / float64(o.Native)
}

// OverheadTable writes Figure 10's data.
func OverheadTable(w io.Writer, rows []OverheadRow) {
	fmt.Fprintf(w, "%-10s %-12s %12s %14s %9s\n", "App", "Arch", "native(cyc)", "profiled(cyc)", "overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-12s %12d %14d %8.2fx\n", r.App, r.Arch, r.Native, r.Profiled, r.Slowdown())
	}
}

// CodeCentric writes the Figure 8 view: the most memory-divergent sites
// with their full host+device calling contexts.
func CodeCentric(w io.Writer, p *profiler.Profiler, md *analysis.MemDivResult, topN int) {
	sites := md.Sites()
	if len(sites) > topN {
		sites = sites[:topN]
	}
	for rank, s := range sites {
		fmt.Fprintf(w, "site %d: %s — %.2f unique lines/instruction (max %d, %d executions)\n",
			rank+1, s.Loc, s.Degree(), s.MaxLines, s.Count)
		fmt.Fprint(w, trace.FormatPath(p.CCT.Path(s.Ctx)))
	}
}

// DataCentric writes the Figure 9 view for the data object holding a
// device address: where it was allocated on device and host and how it
// was transferred.
func DataCentric(w io.Writer, p *profiler.Profiler, devAddr uint64) {
	obj := p.DataObjectFor(devAddr)
	if obj == nil {
		fmt.Fprintf(w, "no device allocation covers %#x\n", devAddr)
		return
	}
	fmt.Fprintf(w, "device object: [%#x, %#x) %d bytes, cudaMalloc at %s\n",
		obj.Dev.Addr, obj.Dev.Addr+uint64(obj.Dev.Bytes), obj.Dev.Bytes, obj.Dev.Loc)
	fmt.Fprint(w, indent(trace.FormatPath(p.CCT.Path(obj.Dev.Ctx))))
	for _, cp := range obj.Copies {
		fmt.Fprintf(w, "transfer: %s %d bytes at %s\n", cp.Kind, cp.Bytes, cp.Loc)
	}
	for _, h := range obj.Hosts {
		fmt.Fprintf(w, "host object: %q [%#x, %#x) %d bytes, malloc at %s\n",
			h.Label, h.Addr, h.Addr+uint64(h.Bytes), h.Bytes, h.Loc)
		fmt.Fprint(w, indent(trace.FormatPath(p.CCT.Path(h.Ctx))))
	}
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
