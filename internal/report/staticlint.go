package report

import (
	"fmt"
	"io"

	"cudaadvisor/internal/findings"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/staticadvisor"
)

// StaticLint renders the static advisor's module report: per function,
// the divergence summary, the thread-varying branches, the classified
// global-memory accesses with predicted lines per warp on both
// evaluated line sizes, the shared-memory accesses with a predicted
// bank-conflict degree above 1, any same-interval shared-memory races,
// and any barriers under divergent control.
//
// The per-finding lines are rendered from the unified findings model
// (findings.FromStatic), so the lint and the advise report are two
// views of the same objects, and both leave out what does not advise
// (findings.Finding.Advises); only the per-function summary header reads
// the FuncResult directly.
func StaticLint(w io.Writer, res *staticadvisor.ModuleResult) {
	kepler, pascal := gpu.KeplerK40c().L1LineSize, gpu.PascalP100().L1LineSize
	byFunc := make(map[string][]findings.Finding)
	for _, f := range findings.FromStatic(res, kepler) {
		if f.Advises() {
			byFunc[f.Site.Func] = append(byFunc[f.Site.Func], f)
		}
	}

	fmt.Fprintf(w, "static advisor: module %s\n", res.Module.Name)
	for _, fr := range res.Funcs {
		kw := "func"
		if fr.Fn.IsKernel {
			kw = "kernel"
		}
		fmt.Fprintf(w, "\n%s @%s: %d of %d blocks may execute divergently; %d of %d branches thread-varying\n",
			kw, fr.Fn.Name, fr.DivergentBlockCount(), len(fr.Fn.Blocks),
			len(fr.Branches), fr.TotalBranches)
		if fr.DivergentEntry {
			fmt.Fprintf(w, "  (reachable under divergent control from a call site)\n")
		}
		fs := byFunc[fr.Fn.Name]
		for _, f := range fs {
			if f.Kind == findings.KindBranch {
				fmt.Fprintf(w, "  branch block %-12s on %%%s (%s) at %s\n",
					f.Site.Block+":", f.Static.Cond, f.Static.Shape, f.Site)
			}
		}
		if len(fr.Accesses) > 0 {
			fmt.Fprintf(w, "  global memory (predicted lines/warp @%dB Kepler / @%dB Pascal):\n",
				kepler, pascal)
			for _, f := range fs {
				if f.Kind != findings.KindAccess {
					continue
				}
				detail := f.Static.Class
				if detail == "coalesced" || detail == "strided" {
					detail = fmt.Sprintf("%s stride %dB", f.Static.Class, f.Static.StrideBytes)
				}
				fmt.Fprintf(w, "    %-7s %dB block %-12s %-20s %2d / %2d  at %s\n",
					f.Static.AccessOp, f.Static.AccessBytes, f.Site.Block+":", detail,
					f.Static.PredictedLines,
					findings.PredictLines(f.Static.Class, f.Static.StrideBytes,
						f.Static.AccessBytes, pascal),
					f.Site)
			}
		}
		if hasKind(fs, findings.KindBankConflict) {
			fmt.Fprintf(w, "  shared memory (predicted bank-conflict degree, %d banks x %dB):\n",
				gpu.NumBanks, gpu.BankWidth)
			for _, f := range fs {
				if f.Kind != findings.KindBankConflict {
					continue
				}
				decl := f.Static.Decl
				if decl == "" {
					decl = "?"
				}
				detail := fmt.Sprintf("@%s %d-way", decl, f.Static.Degree)
				if f.Static.StrideBytes != 0 {
					detail += fmt.Sprintf(" stride %dB", f.Static.StrideBytes)
				}
				fmt.Fprintf(w, "    %-7s %dB block %-12s %-24s at %s\n",
					f.Static.AccessOp, f.Static.AccessBytes, f.Site.Block+":", detail, f.Site)
			}
		}
		for _, f := range fs {
			if f.Kind != findings.KindSharedRace {
				continue
			}
			decl := f.Static.Decl
			if decl == "" {
				decl = "?"
			}
			fmt.Fprintf(w, "  RACE on shared @%s: read block %s at %s", decl, f.Site.Block, f.Site)
			if ws := f.Static.Write; ws != nil {
				fmt.Fprintf(w, " vs write block %s at %s", ws.Block, ws)
			}
			fmt.Fprintf(w, " (same barrier interval)\n")
		}
		for _, f := range fs {
			if f.Kind == findings.KindBarrier {
				fmt.Fprintf(w, "  BARRIER under divergent control: block %s at %s\n", f.Site.Block, f.Site)
			}
		}
	}
}

func hasKind(fs []findings.Finding, k findings.Kind) bool {
	for i := range fs {
		if fs[i].Kind == k {
			return true
		}
	}
	return false
}
