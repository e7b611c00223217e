package main

import (
	"fmt"
	"io"

	"cudaadvisor/internal/findings"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/staticadvisor"
)

// lintKinds maps each lint pass to the finding kinds it prints, in
// print order.
var lintKinds = map[string][]findings.Kind{
	"lint": {findings.KindBranch, findings.KindAccess, findings.KindBarrier,
		findings.KindBankConflict, findings.KindSharedRace},
	"lint-branch":  {findings.KindBranch},
	"lint-mem":     {findings.KindAccess},
	"lint-barrier": {findings.KindBarrier},
	"lint-smem":    {findings.KindBankConflict, findings.KindSharedRace},
}

// lintPass is an analysis pass: it runs the static advisor over the
// module and writes one line per finding of its kinds, kind by kind and
// in module order within a kind. It never mutates the module.
type lintPass struct {
	name  string
	kinds []findings.Kind
	w     io.Writer
}

func (p *lintPass) Name() string { return p.name }

func (p *lintPass) Run(m *ir.Module) (bool, error) {
	res, err := staticadvisor.Analyze(m)
	if err != nil {
		return false, err
	}
	fs := findings.FromStatic(res, gpu.KeplerK40c().L1LineSize)
	for _, k := range p.kinds {
		for i := range fs {
			if fs[i].Kind == k {
				fmt.Fprintln(p.w, lintLine(&fs[i]))
			}
		}
	}
	return false, nil
}

// lintLine renders one static finding as a tagged lint line. Access
// lines carry the predicted lines per warp on both evaluated
// architectures; shared-access lines include the conflict-free and
// broadcast ones that reports leave out.
func lintLine(f *findings.Finding) string {
	st, s := &f.Static, f.Site
	decl := st.Decl
	if decl == "" {
		decl = "?"
	}
	switch f.Kind {
	case findings.KindBranch:
		return fmt.Sprintf("lint-branch: @%s block %s: divergent branch on %%%s (%s) at %s",
			s.Func, s.Block, st.Cond, st.Shape, s)
	case findings.KindAccess:
		kepler, pascal := gpu.KeplerK40c().L1LineSize, gpu.PascalP100().L1LineSize
		detail := st.Class
		if detail == "coalesced" || detail == "strided" {
			detail = fmt.Sprintf("%s (stride %dB)", st.Class, st.StrideBytes)
		}
		return fmt.Sprintf("lint-mem: @%s block %s: %s global %dB: %s, predicted lines/warp %d @%dB, %d @%dB, at %s",
			s.Func, s.Block, st.AccessOp, st.AccessBytes, detail,
			st.PredictedLines, kepler,
			findings.PredictLines(st.Class, st.StrideBytes, st.AccessBytes, pascal), pascal, s)
	case findings.KindBarrier:
		return fmt.Sprintf("lint-barrier: @%s block %s: barrier under divergent control flow at %s",
			s.Func, s.Block, s)
	case findings.KindBankConflict:
		detail := fmt.Sprintf("%d-way", st.Degree)
		switch {
		case st.Broadcast:
			detail = "broadcast"
		case st.Degree == 1:
			detail = "conflict-free"
		}
		if st.StrideBytes != 0 {
			detail += fmt.Sprintf(" (stride %dB)", st.StrideBytes)
		}
		return fmt.Sprintf("lint-smem: @%s block %s: %s shared @%s %dB: %s, at %s",
			s.Func, s.Block, st.AccessOp, decl, st.AccessBytes, detail, s)
	default: // findings.KindSharedRace
		return fmt.Sprintf("lint-smem-race: @%s: shared race on @%s: write in block %s at %s, read in block %s at %s, no barrier between",
			s.Func, decl, st.Write.Block, st.Write, s.Block, s)
	}
}
