package staticadvisor_test

import (
	"fmt"
	"strings"
	"testing"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/core"
	"cudaadvisor/internal/findings"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/staticadvisor"
)

func parseTestModule(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := irtext.Parse("fixture.mir", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// TestCrossValidateBranchDivergence runs every benchmark application
// under the dynamic profiler and checks the static analyzer against the
// observed per-block divergence, through the unified findings model.
// The static analysis is one-sided: it may flag blocks that never
// diverge on this input (false positives are reported in the table),
// but a block the profiler saw execute with a partial warp must always
// be statically flagged — zero false negatives. The layout-aware
// analysis (each app's declared block dims) must preserve that
// soundness while pruning broadcast-only shapes.
//
// On top of the block-level agreement, the joined findings are checked
// directly: on these inputs every static finding must end up with
// observed dynamic evidence — nothing the analyzer flags is dead code.
func TestCrossValidateBranchDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all benchmark applications")
	}
	cfg := gpu.KeplerK40c()
	type row struct {
		app string
		findings.Agreement
	}
	var rows []row
	for _, app := range apps.InTableOrder() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			adv := core.New(cfg, instrument.MemorySharedAndBlocks())
			prog, err := app.Instrumented(adv.Opts)
			if err != nil {
				t.Fatalf("instrument: %v", err)
			}
			if err := app.Run(adv.Context(), prog, 1); err != nil {
				t.Fatalf("run: %v", err)
			}
			dyn := adv.BranchDivergence()

			m, err := app.Module()
			if err != nil {
				t.Fatalf("module: %v", err)
			}
			res, err := staticadvisor.AnalyzeLayout(m, staticadvisor.Layout{Block: app.BlockDims})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}

			ag, err := findings.BlockAgreement(res, dyn)
			if err != nil {
				t.Fatalf("agreement: %v", err)
			}
			for _, fn := range ag.FalseNegatives {
				t.Errorf("false negative: @%s block %s diverged in %d of %d executions but is not statically flagged (at %s)",
					fn.Func, fn.Block, fn.Divergent, fn.Execs, fn.Loc)
			}
			rows = append(rows, row{app.Name, ag})

			// The joined view: every finding must carry corroborating
			// observations from the same run.
			fs := findings.FromStatic(res, cfg.L1LineSize)
			findings.Join(fs, findings.CollectProfile(adv.Profiler, cfg.L1LineSize), cfg)
			for _, f := range fs {
				if f.Dynamic == nil || !f.Dynamic.Observed {
					t.Errorf("finding %s at %s block %s was never observed dynamically",
						f.Kind, f.Site, f.Site.Block)
				}
			}
		})
	}

	var tbl strings.Builder
	fmt.Fprintf(&tbl, "%-10s %7s %7s %7s %6s %11s %9s %10s\n",
		"App", "blocks", "static", "dynamic", "both", "static-only", "dyn-only", "agreement")
	for _, r := range rows {
		agree := 1.0
		if r.Blocks > 0 {
			agree = float64(r.Blocks-r.StaticOnly-r.DynOnly) / float64(r.Blocks)
		}
		fmt.Fprintf(&tbl, "%-10s %7d %7d %7d %6d %11d %9d %9.1f%%\n",
			r.app, r.Blocks, r.StaticFlagged, r.DynDivergent, r.Both, r.StaticOnly, r.DynOnly, 100*agree)
	}
	t.Logf("static/dynamic branch-divergence agreement:\n%s", tbl.String())
	for _, r := range rows {
		if r.DynOnly != 0 {
			t.Errorf("%s: %d dynamically divergent blocks missed by the static analyzer", r.app, r.DynOnly)
		}
	}
}

// TestCrossValidateAffineEncoding checks the trace encoder against the
// access classification. A global access the analyzer classes uniform,
// coalesced or strided has, by that verdict, a constant address step from
// one lane to the next, so every record the profiler keeps at such a
// site must be stored in the affine form (trace.MemAccess.Affine), never
// with its addresses spelled out — under every block shape, since the
// form counts lanes within the block's rows (and for 16-wide blocks the
// same is asked of every address affine in tid.x and tid.y, which the
// analyzer has to call divergent). The table printed at the end gives,
// per app, how many sites the assertion covered (hotspot and srad_v2
// have none: their global addresses go through loaded or clamped
// indices) and the explicit-fallback share over all its global records:
// what the indirect and otherwise divergent sites cost.
func TestCrossValidateAffineEncoding(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all benchmark applications")
	}
	cfg := gpu.KeplerK40c()
	var tbl strings.Builder
	fmt.Fprintf(&tbl, "%-10s %8s %13s %9s %9s %9s\n", "App", "block.x", "regular-sites", "records", "explicit", "fallback")
	for _, app := range apps.InTableOrder() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			adv := core.New(cfg, instrument.Options{Memory: true})
			prog, err := app.Instrumented(adv.Opts)
			if err != nil {
				t.Fatalf("instrument: %v", err)
			}
			if err := app.Run(adv.Context(), prog, 1); err != nil {
				t.Fatalf("run: %v", err)
			}
			m, err := app.Module()
			if err != nil {
				t.Fatalf("module: %v", err)
			}
			res, err := staticadvisor.AnalyzeLayout(m, staticadvisor.Layout{Block: app.BlockDims})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			// Blocks narrower than a warp put several rows in one: there
			// the analyzer calls an address divergent as soon as it
			// depends on tid.y, yet it still knows the exact strides, and
			// the encoder's row form must follow those too.
			bx, by := app.BlockDims[0], app.BlockDims[1]
			rows := bx < 32 && 32%bx == 0 && (bx*by)%32 == 0
			regular := make(map[ir.Loc]fmt.Stringer)
			for _, fr := range res.Funcs {
				for _, a := range fr.Accesses {
					switch {
					case a.Class != staticadvisor.ClassDivergent:
						regular[a.Loc] = a.Class
					case rows && a.Addr.Shape == staticadvisor.Affine && a.Addr.StrideZ == 0:
						regular[a.Loc] = a.Addr
					}
				}
			}

			records, explicit := 0, 0
			misfiled := make(map[ir.Loc]int)
			for _, kp := range adv.Profiler.Kernels {
				for i := range kp.Trace.Mem {
					rec := &kp.Trace.Mem[i]
					if rec.Space != ir.Global {
						continue
					}
					records++
					if rec.Affine() {
						continue
					}
					explicit++
					if loc := kp.Trace.Locs.Loc(rec.Loc); regular[loc] != nil {
						misfiled[loc]++
					}
				}
			}
			for loc, n := range misfiled {
				t.Errorf("%s: %d records at a statically %s access fell back to explicit addresses", loc, n, regular[loc])
			}
			fmt.Fprintf(&tbl, "%-10s %8d %13d %9d %9d %8.1f%%\n",
				app.Name, bx, len(regular), records, explicit, 100*float64(explicit)/float64(max(records, 1)))
		})
	}
	t.Logf("explicit-address fallback of the trace encoder:\n%s", tbl.String())
}

// TestCrossValidateSharedMemory checks the shared-memory analyzers
// against the simulator's watch over every benchmark application. The
// static side is one-sided, so the zero-false-negative direction is the
// contract: every executed shared access must carry a static degree at
// least as large as the worst degree the dynamic counter measured, and
// every read the last-writer check flagged must be a statically
// detected race.
func TestCrossValidateSharedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all benchmark applications")
	}
	cfg := gpu.KeplerK40c()
	for _, app := range apps.InTableOrder() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			adv := core.New(cfg, instrument.MemorySharedAndBlocks())
			prog, err := app.Instrumented(adv.Opts)
			if err != nil {
				t.Fatalf("instrument: %v", err)
			}
			if err := app.Run(adv.Context(), prog, 1); err != nil {
				t.Fatalf("run: %v", err)
			}
			m, err := app.Module()
			if err != nil {
				t.Fatalf("module: %v", err)
			}
			res, err := staticadvisor.AnalyzeLayout(m, staticadvisor.Layout{Block: app.BlockDims})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}

			predicted := make(map[ir.Loc]int)
			raceFlagged := make(map[ir.Loc]bool)
			for _, fr := range res.Funcs {
				for _, sa := range fr.SharedAccesses {
					if sa.Degree > predicted[sa.Loc] {
						predicted[sa.Loc] = sa.Degree
					}
				}
				for _, rc := range fr.Races {
					raceFlagged[rc.ReadLoc] = true
				}
			}

			sb := adv.SharedBankConflicts()
			for _, s := range sb.Sites() {
				p, ok := predicted[s.Loc]
				if !ok {
					t.Errorf("executed shared access at %s has no static classification", s.Loc)
					continue
				}
				if s.MaxDegree > p {
					t.Errorf("false negative: %s measured degree %d, statically predicted %d",
						s.Loc, s.MaxDegree, p)
				}
			}
			for _, rs := range adv.SharedRaces() {
				if !raceFlagged[rs.Loc] {
					t.Errorf("false negative: dynamic race at %s (%d reads) not statically flagged",
						rs.Loc, rs.Count)
				}
			}
		})
	}
}

// TestCrossValidateUniformBroadcast checks the layout-tightened access
// classification against measurement: in syrk and syr2k (32×8 blocks),
// loads indexed only by tid.y are statically classified uniform —
// tid.y is constant across a warp's 32 lanes — and the profiler must
// agree, measuring exactly one line per warp at those sites.
func TestCrossValidateUniformBroadcast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmark applications")
	}
	cfg := gpu.KeplerK40c()
	for _, name := range []string{"syrk", "syr2k"} {
		t.Run(name, func(t *testing.T) {
			app := apps.ByName(name)
			if app == nil {
				t.Fatalf("app %s not registered", name)
			}
			adv := core.New(cfg, instrument.MemoryAndBlocks())
			prog, err := app.Instrumented(adv.Opts)
			if err != nil {
				t.Fatalf("instrument: %v", err)
			}
			if err := app.Run(adv.Context(), prog, 1); err != nil {
				t.Fatalf("run: %v", err)
			}
			m, err := app.Module()
			if err != nil {
				t.Fatalf("module: %v", err)
			}
			res, err := staticadvisor.AnalyzeLayout(m, staticadvisor.Layout{Block: app.BlockDims})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			fs := findings.FromStatic(res, cfg.L1LineSize)
			findings.Join(fs, findings.CollectProfile(adv.Profiler, cfg.L1LineSize), cfg)

			uniform := 0
			for _, f := range fs {
				if f.Kind != findings.KindAccess || f.Static.Class != "uniform" {
					continue
				}
				uniform++
				if f.Static.PredictedLines != 1 {
					t.Errorf("%s: uniform access predicts %d lines, want 1", f.Site, f.Static.PredictedLines)
				}
				if f.Dynamic == nil || !f.Dynamic.Observed {
					t.Errorf("%s: uniform access never observed", f.Site)
					continue
				}
				if f.Dynamic.MeasuredLines != 1.0 {
					t.Errorf("%s: uniform access measured %.2f lines/warp, want exactly 1.00",
						f.Site, f.Dynamic.MeasuredLines)
				}
				if f.Verdict != findings.VerdictRefuted && f.Verdict != findings.VerdictCorroborated {
					t.Errorf("%s: uniform access verdict = %s", f.Site, f.Verdict)
				}
			}
			if uniform == 0 {
				t.Errorf("%s: no ty-broadcast load classified uniform under the 32×8 layout", name)
			}
		})
	}
}

// A kernel the simulator faults on must be caught ahead of time by the
// barrier lint: the same module both statically flags and dynamically
// faults with "divergent barrier".
const divBarrierSrc = `
module db
kernel @bad(%n: i32) {
entry:
  %tx = sreg tid.x
  %c  = icmp lt i32 %tx, 16
  cbr %c, low, high
low:
  bar
  br high
high:
  ret
}
`

func TestCrossValidateDivergentBarrier(t *testing.T) {
	m := parseTestModule(t, divBarrierSrc)

	// Static side: the lint flags the guarded barrier, and the unified
	// model carries it as a ranked finding.
	res, err := staticadvisor.Analyze(m)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	fr := res.Func("bad")
	if len(fr.Barriers) != 1 || fr.Barriers[0].Block != "low" {
		t.Fatalf("static barriers = %+v, want the bar in block low", fr.Barriers)
	}
	var barrier *findings.Finding
	for _, f := range findings.FromStatic(res, staticadvisor.KeplerLineSize) {
		if f.Kind == findings.KindBarrier {
			f := f
			barrier = &f
		}
	}
	if barrier == nil || barrier.Site.Block != "low" || barrier.Verdict != findings.VerdictStaticOnly {
		t.Fatalf("findings barrier = %+v, want a static-only barrier in block low", barrier)
	}

	// Dynamic side: launching the same kernel faults.
	ctx := rt.NewContext(gpu.NewDevice(gpu.KeplerK40c(), 1<<20), profiler.New())
	_, err = ctx.Launch(instrument.NativeProgram(m), "bad", rt.Dim(1), rt.Dim(32), rt.I32(0))
	if err == nil || !strings.Contains(err.Error(), "divergent barrier") {
		t.Fatalf("launch err = %v, want divergent barrier fault", err)
	}
}
