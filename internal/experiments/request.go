package experiments

// The command layer behind `profile`, `lint`, `advise` and `export`: one
// request type that the CLI and the serve daemon both decode into and
// render from. A transport supplies a parameter lookup (flag values or a
// URL query) and, for a target that is not a built-in application, the
// text of an IR module; NewRequest applies the defaults and does all the
// validation, Write renders under an Env. There is one decoder and one
// renderer, so the two transports cannot disagree on what a request
// means, what it prints, or how it is refused.

import (
	"fmt"
	"io"
	"strconv"
	"sync"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/core"
	"cudaadvisor/internal/export"
	"cudaadvisor/internal/findings"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/report"
	"cudaadvisor/internal/staticadvisor"
)

// Param is one request parameter: a CLI flag and a daemon query
// parameter of the same name. An absent (empty) value means Default.
type Param struct {
	Name    string
	Default string
	Usage   string
	Bool    bool // a bare CLI flag means "true"

	// parse validates the value and stores it in the request. It is the
	// only place the parameter's rule and its error text are written.
	parse func(r *Request, v string) error
}

var (
	paramArch = Param{Name: "arch", Default: "kepler", Usage: "architecture: kepler or pascal",
		parse: func(r *Request, v string) error {
			switch v {
			case "kepler":
				r.Arch = gpu.KeplerK40c()
			case "pascal":
				r.Arch = gpu.PascalP100()
			default:
				return fmt.Errorf("unknown architecture %q (want kepler or pascal)", v)
			}
			return nil
		}}
	paramScale = Param{Name: "scale", Default: "1", Usage: "input scale factor",
		parse: func(r *Request, v string) (err error) {
			if r.Scale, err = strconv.Atoi(v); err != nil || r.Scale < 1 {
				return fmt.Errorf("scale=%q: want an integer ≥ 1", v)
			}
			return nil
		}}
	paramMode = Param{Name: "mode", Default: "all", Usage: "analysis: rd, md, bd, or all",
		parse: func(r *Request, v string) error {
			switch v {
			case "rd", "md", "bd", "all":
				r.Mode = v
				return nil
			}
			return fmt.Errorf("unknown profile mode %q (want rd, md, bd, or all)", v)
		}}
	paramSmem = Param{Name: "smem", Default: "false", Bool: true,
		Usage: "trace shared-memory accesses and enable the bank-conflict/race watch",
		parse: func(r *Request, v string) (err error) {
			if r.Smem, err = strconv.ParseBool(v); err != nil {
				return fmt.Errorf("smem=%q: want a boolean (1, 0, t, f, true or false)", v)
			}
			return nil
		}}
	paramReportFormat = Param{Name: "format", Default: "text", Usage: "output format: text or json",
		parse: func(r *Request, v string) error {
			if v != "text" && v != "json" {
				return fmt.Errorf("unknown %s format %q (want text or json)", r.Command, v)
			}
			r.Format = v
			return nil
		}}
	paramExportFormat = Param{Name: "format", Default: "folded", Usage: "output format: folded or chrome",
		parse: func(r *Request, v string) error {
			if v != "folded" && v != "chrome" {
				return fmt.Errorf("unknown export format %q (want folded or chrome)", v)
			}
			r.Format = v
			return nil
		}}
	// The weight applies to folded output only, so it is checked after
	// the format (table order) and only then.
	paramWeight = Param{Name: "weight", Default: export.WeightCycles,
		Usage: "folded stack weight: cycles, lines, divergence, or reuse",
		parse: func(r *Request, v string) error {
			if r.Format == "folded" && !export.ValidWeight(v) {
				return fmt.Errorf("unknown export weight %q (want cycles, lines, divergence, or reuse)", v)
			}
			r.Weight = v
			return nil
		}}
)

// commandParams is the parameter table: what each command accepts, in
// the order it is validated.
var commandParams = map[string][]Param{
	"profile": {paramArch, paramScale, paramMode, paramSmem},
	"lint":    {paramReportFormat, paramArch},
	"advise":  {paramArch, paramReportFormat, paramScale},
	"export":  {paramArch, paramScale, paramExportFormat, paramWeight},
}

// Params lists the parameters of one command ("profile", "lint",
// "advise" or "export"); nil for any other name.
func Params(cmd string) []Param { return commandParams[cmd] }

// Request is one validated `profile`, `lint`, `advise` or `export`
// invocation. Build it with NewRequest; only the fields the command's
// parameter table names are set.
type Request struct {
	Command string
	App     *apps.App // the built-in target; nil when the target is an IR module
	Arch    gpu.ArchConfig
	Scale   int
	Mode    string // profile: "rd", "md", "bd" or "all"
	Smem    bool   // profile: trace shared memory and print its section
	Format  string // "text"/"json" (lint, advise) or "folded"/"chrome" (export)
	Weight  string // export, folded only: one of export.Weights

	module *staticadvisor.ModuleResult // the analyzed IR target, when App is nil
}

// NewRequest decodes and validates one invocation of cmd. get looks a
// parameter up by name and returns "" when it is absent; besides the
// command's Params it is asked for the target: "app", a built-in
// application name, or else "name", the label of the IR module whose
// text is src (a file path at the CLI, the upload name under serve).
// `lint` and `advise` parse, verify and analyze an IR module statically;
// `profile` and `export` need an application to run. Every error is the
// caller's mistake — nothing is simulated here.
func NewRequest(cmd string, get func(name string) string, src []byte) (*Request, error) {
	params, ok := commandParams[cmd]
	if !ok {
		return nil, fmt.Errorf("unknown command %q", cmd)
	}
	r := &Request{Command: cmd}
	static := cmd == "lint" || cmd == "advise"
	switch app := get("app"); {
	case app != "":
		if r.App = apps.ByName(app); r.App == nil {
			return nil, fmt.Errorf("unknown application %q (see 'cudaadvisor apps')", app)
		}
	case len(src) == 0 && static:
		return nil, fmt.Errorf("%s wants one application name or .mir module (see 'cudaadvisor apps')", cmd)
	case len(src) == 0:
		return nil, fmt.Errorf("%s wants one application name (see 'cudaadvisor apps')", cmd)
	case !static:
		return nil, fmt.Errorf("%s needs a dynamic profile; a .mir module has no runnable host driver (pass an application name, see 'cudaadvisor apps')", cmd)
	default:
		// No layout hint for a bare module: conservative tid.y/tid.z
		// treatment.
		name := get("name")
		if name == "" {
			name = "upload.mir"
		}
		m, err := irtext.Parse(name, string(src))
		if err != nil {
			return nil, err
		}
		if err := ir.Verify(m); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if r.module, err = staticadvisor.Analyze(m); err != nil {
			return nil, err
		}
	}
	for _, p := range params {
		v := get(p.Name)
		if v == "" {
			v = p.Default
		}
		if err := p.parse(r, v); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Write renders the request under env (whose Scale the request's
// replaces). The dynamic commands run one rendered-view cell named
// "<command>/<arch>/<app>"; `lint`, and `advise` of an IR module, are
// static and touch neither the simulator nor the cache.
func (r *Request) Write(w io.Writer, env Env) error {
	env.Scale = r.Scale
	if r.Command == "lint" || r.App == nil {
		return r.writeStatic(w)
	}
	opts, view, render := r.view()
	raw, err := env.viewCell(r.Command+"/"+r.Arch.Name+"/"+r.App.Name, r.App, r.Arch, opts, view, render)
	if err != nil || r.Command != "advise" || r.Format == "json" {
		if _, werr := w.Write(raw); err == nil { // the view, or the keep-going annotation
			err = werr
		}
		return err
	}
	// advise's view is the encoded report; text is a rendering of those
	// bytes, so one entry serves both formats.
	rep, err := findings.Decode(raw)
	if err != nil {
		return err
	}
	return writeReport(w, rep, "text")
}

// view is what a dynamic request renders of a run: the instrumentation
// the run needs (part of the run's key), the name the rendered bytes are
// cached under, which must carry everything render-only (mode, weight,
// the report's schema version), and the renderer.
func (r *Request) view() (instrument.Options, string, func(io.Writer, *profiler.Profiler) error) {
	opts := instrument.MemoryAndBlocks()
	switch {
	case r.Command == "profile":
		view := "profile:" + r.Mode
		if r.Smem {
			opts = instrument.MemorySharedAndBlocks()
			view += "+smem"
		}
		return opts, view, func(w io.Writer, p *profiler.Profiler) error {
			r.renderProfile(w, core.FromProfile(r.Arch, opts, p))
			return nil
		}
	case r.Command == "export" && r.Format == "chrome":
		return opts, "export:chrome", func(w io.Writer, p *profiler.Profiler) error {
			return export.WriteChromeTrace(w, p)
		}
	case r.Command == "export":
		return opts, "export:folded:" + r.Weight, func(w io.Writer, p *profiler.Profiler) error {
			return export.WriteFolded(w, p, r.Weight, r.Arch.L1LineSize)
		}
	}
	return instrument.MemorySharedAndBlocks(), "advise:" + findings.SchemaVersion, func(w io.Writer, p *profiler.Profiler) error {
		res, err := r.analyze()
		if err != nil {
			return err
		}
		fs := findings.FromStatic(res, r.Arch.L1LineSize)
		findings.Join(fs, findings.CollectProfile(p, r.Arch.L1LineSize), r.Arch)
		return writeReport(w, findings.NewReport(r.App.Name, r.Arch.Name, r.Arch.L1LineSize, r.Scale, fs), "json")
	}
}

// analyze returns the static advisor's result for the target: the
// uploaded module's, analysed in NewRequest, or a built-in application's
// (shared, read-only; see appAnalysis).
func (r *Request) analyze() (*staticadvisor.ModuleResult, error) {
	if r.App == nil {
		return r.module, nil
	}
	return appAnalysis(r.App)
}

// appAnalyses holds one func per built-in application (*apps.App) that
// parses its device code and runs the static advisor under its
// launch-layout hint the first time it is called, and returns that
// result, or error, to every later caller. The apps are immutable and
// few, so the memo is never bounded or evicted; its results are never
// mutated (findings.FromStatic copies what Join changes).
var appAnalyses sync.Map

// onAnalyze, set by a test only, is told of every application appAnalysis
// analyses.
var onAnalyze func(*apps.App)

// appAnalysis is the static analysis of a built-in application, computed
// at most once per process.
func appAnalysis(a *apps.App) (*staticadvisor.ModuleResult, error) {
	f, ok := appAnalyses.Load(a)
	if !ok {
		f, _ = appAnalyses.LoadOrStore(a, sync.OnceValues(func() (*staticadvisor.ModuleResult, error) {
			if onAnalyze != nil {
				onAnalyze(a)
			}
			m, err := a.Module()
			if err != nil {
				return nil, fmt.Errorf("%s: module: %w", a.Name, err)
			}
			return staticadvisor.AnalyzeLayout(m, staticadvisor.Layout{Block: a.BlockDims})
		}))
	}
	return f.(func() (*staticadvisor.ModuleResult, error))()
}

// writeStatic renders `lint` and the static half of `advise`: the lint
// listing, or a findings report with static evidence only (no dynamic
// run, so scale 0 and every verdict static-only).
func (r *Request) writeStatic(w io.Writer) error {
	res, err := r.analyze()
	if err != nil {
		return err
	}
	if r.Command == "lint" && r.Format == "text" {
		report.StaticLint(w, res)
		return nil
	}
	fs := findings.FromStatic(res, r.Arch.L1LineSize)
	return writeReport(w, findings.NewReport(res.Module.Name, r.Arch.Name, r.Arch.L1LineSize, 0, fs), r.Format)
}

// writeReport writes a findings report as ranked text or in the
// versioned advisor-report JSON schema.
func writeReport(w io.Writer, rep *findings.Report, format string) error {
	if format == "text" {
		findings.WriteText(w, rep)
		return nil
	}
	raw, err := findings.Encode(rep)
	if err != nil {
		return err
	}
	_, err = w.Write(raw)
	return err
}

// renderProfile writes the `profile` report sections.
func (r *Request) renderProfile(w io.Writer, adv *core.Advisor) {
	fmt.Fprintf(w, "profiled %s on %s: %d kernel instances\n\n", r.App.Name, r.Arch.Name, len(adv.Kernels()))
	if r.Mode == "rd" || r.Mode == "all" {
		report.ReuseHistogram(w, r.App.Name, adv.ReuseDistance(analysis.DefaultElementReuse()))
		fmt.Fprintln(w)
	}
	if r.Mode == "md" || r.Mode == "all" {
		report.MemDivDistribution(w, r.App.Name, adv.MemDivergence())
		fmt.Fprintln(w)
	}
	if r.Mode == "bd" || r.Mode == "all" {
		adv.WriteBranchDivergenceReport(w)
		fmt.Fprintln(w)
	}
	if r.Smem {
		adv.WriteSharedMemReport(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "most memory-divergent sites (code-centric view):")
	adv.WriteCodeCentric(w, 3)
}
