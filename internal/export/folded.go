// Package export serializes collected profiles into the interchange
// formats standard visualization tooling consumes: folded-stack
// flamegraph lines (flamegraph.pl, speedscope) over the merged CPU+GPU
// calling-context tree, and Chrome-trace JSON timelines
// (chrome://tracing, Perfetto) of warp/CTA scheduling reconstructed from
// the timing model's per-SM schedules.
//
// Both emitters are pure serializers over an already-collected (and
// already-deterministic) profile: they allocate nothing shared, consult
// no clocks, and emit in sorted order, so their output is byte-identical
// at every worker count and cache temperature.
package export

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/trace"
)

// The selectable folded-stack weights.
const (
	WeightCycles     = "cycles"     // modeled kernel cycles per launch
	WeightLines      = "lines"      // unique cache lines per global access
	WeightDivergence = "divergence" // divergent basic-block executions
	WeightReuse      = "reuse"      // reused loads per site
)

// Weights lists the valid -weight values in canonical order.
var Weights = []string{WeightCycles, WeightLines, WeightDivergence, WeightReuse}

// ValidWeight reports whether w names a folded-stack weight.
func ValidWeight(w string) bool {
	for _, v := range Weights {
		if v == w {
			return true
		}
	}
	return false
}

// GPUPrefix marks device-side frames in folded output, and BoundaryFrame
// is the synthetic frame inserted at each CPU→GPU transition — the
// attribution convention of xpu-perf's merged_trace.fold: the GPU
// kernel's cost hangs under the CPU stack that launched it, with the
// boundary made explicit so flamegraph tooling shows where the host
// handed off to the device.
const (
	GPUPrefix     = "[GPU]"
	BoundaryFrame = "[CPU->GPU]"
)

// EscapeFrame makes a frame name safe for the folded format, which
// reserves ';' (frame separator), ' ' (stack/weight separator) and the
// line structure itself. Reserved bytes percent-encode; everything else
// — including non-ASCII — passes through, and an empty name survives as
// the empty string between two separators. UnescapeFrame inverts it
// exactly (the FuzzFoldedLine round-trip property).
func EscapeFrame(name string) string {
	if !strings.ContainsAny(name, "%; \n\r\t") {
		return name
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		switch c := name[i]; c {
		case '%', ';', ' ', '\n', '\r', '\t':
			fmt.Fprintf(&b, "%%%02x", c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// UnescapeFrame decodes an EscapeFrame-encoded name.
func UnescapeFrame(s string) (string, error) {
	if !strings.Contains(s, "%") {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("export: truncated %%-escape in frame %q", s)
		}
		v, err := strconv.ParseUint(s[i+1:i+3], 16, 8)
		if err != nil {
			return "", fmt.Errorf("export: bad %%-escape in frame %q: %v", s, err)
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), nil
}

// FoldedStack is one parsed folded line: the unescaped frames from root
// to leaf, and the line's weight.
type FoldedStack struct {
	Frames []string
	Weight int64
}

// ParseFoldedLine parses one folded line ("f1;f2;f3 weight"). The weight
// is everything after the last space; frames unescape individually.
func ParseFoldedLine(line string) (FoldedStack, error) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return FoldedStack{}, fmt.Errorf("export: folded line %q has no weight field", line)
	}
	w, err := strconv.ParseInt(line[i+1:], 10, 64)
	if err != nil {
		return FoldedStack{}, fmt.Errorf("export: folded line %q: bad weight: %v", line, err)
	}
	parts := strings.Split(line[:i], ";")
	fs := FoldedStack{Frames: make([]string, len(parts)), Weight: w}
	for j, p := range parts {
		if fs.Frames[j], err = UnescapeFrame(p); err != nil {
			return FoldedStack{}, err
		}
	}
	return fs, nil
}

// ParseFolded parses a whole folded document, skipping '#' comment lines
// (the sampled-profile header) and blank lines.
func ParseFolded(data []byte) ([]FoldedStack, error) {
	var out []FoldedStack
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs, err := ParseFoldedLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, fs)
	}
	return out, nil
}

// stackOf renders the calling context ctx as escaped folded frames, root
// first. It walks parent links explicitly — not via ContextTree.Path,
// which silently stops at out-of-range ids — so a corrupt or foreign id
// surfaces as the tree's UnknownFrame sentinel ("??") instead of
// vanishing. A node in kernelFrames (a launch's BaseCtx) is a kernel
// frame: it and everything below it are device-side (the profiler does
// not Device-mark the kernel frame itself, only the HookPush frames
// under it), so the boundary marker inserts just before it and the
// GPUPrefix starts there.
func stackOf(cct *trace.ContextTree, ctx int32, kernelFrames map[int32]bool) []string {
	var ids []int32
	if ctx < 0 || int(ctx) >= cct.Len() {
		ids = append(ids, ctx) // sentinel node: render "??", then stop
		ctx = cct.Parent(ctx)  // -1: out-of-range ids have no parent
	}
	for ctx > 0 {
		ids = append(ids, ctx)
		ctx = cct.Parent(ctx)
	}
	out := make([]string, 0, len(ids)+1)
	for i := len(ids) - 1; i >= 0; i-- {
		f := cct.Frame(ids[i])
		name := f.Func
		if name == "" {
			name = f.Loc.String()
		}
		if kernelFrames[ids[i]] {
			out = append(out, BoundaryFrame)
		}
		if f.Device || kernelFrames[ids[i]] {
			name = GPUPrefix + name
		}
		out = append(out, EscapeFrame(name))
	}
	return out
}

// SiteFrame renders a leaf source-location frame (always device-side:
// sites come from device hook records).
func SiteFrame(loc ir.Loc) string {
	return EscapeFrame(GPUPrefix + loc.String())
}

// WriteFolded emits the profile as folded flamegraph stacks under the
// given weight, one "frame;frame;... weight" line per distinct stack,
// sorted lexicographically. Every weight but cycles is a table of the
// run's analysis bundle at lineSize, the architecture's L1 line size,
// so a document's total is the total of the analysis the figures print.
//
// A sampled profile (bounded trace buffers dropped events) is annotated
// with a "# [sampled]" header and its weights stay the raw recorded
// sample — never rescaled — so totals still reconcile exactly with the
// analyses over the same recorded events.
func WriteFolded(w io.Writer, p *profiler.Profiler, weight string, lineSize int) error {
	an := p.Analyses(lineSize)
	kernelFrames := make(map[int32]bool, len(p.Kernels))
	for _, kp := range p.Kernels {
		kernelFrames[kp.BaseCtx] = true
	}
	agg := map[string]int64{}
	var sites map[analysis.ContextSite]int64
	switch weight {
	case WeightCycles:
		for _, kp := range p.Kernels {
			if kp.Result != nil {
				agg[strings.Join(stackOf(p.CCT, kp.BaseCtx, kernelFrames), ";")] += kp.Result.Cycles
			}
		}
	case WeightLines:
		sites = an.MemDiv().LinesByContext()
	case WeightDivergence:
		sites = an.BranchDiv().DivergentByContext()
	case WeightReuse:
		sites = an.ReusedByContext()
	default:
		return fmt.Errorf("export: unknown weight %q (want one of %s)", weight, strings.Join(Weights, ", "))
	}
	for site, n := range sites {
		stack := append(stackOf(p.CCT, site.Ctx, kernelFrames), SiteFrame(site.Loc))
		agg[strings.Join(stack, ";")] += n
	}

	if mem, blk := an.Coverage(); mem.Partial() || blk.Partial() {
		fmt.Fprintf(w, "# [sampled] trace buffers dropped events (mem %d/%d, blocks %d/%d recorded/seen);\n",
			mem.EventsRecorded, mem.EventsSeen, blk.EventsRecorded, blk.EventsSeen)
		fmt.Fprintf(w, "# weights are the raw deterministic sample, not rescaled to the full run.\n")
	}

	stacks := make([]string, 0, len(agg))
	for s := range agg {
		stacks = append(stacks, s)
	}
	sort.Strings(stacks)
	for _, s := range stacks {
		if _, err := fmt.Fprintf(w, "%s %d\n", s, agg[s]); err != nil {
			return err
		}
	}
	return nil
}
