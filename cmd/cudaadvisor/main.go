// Command cudaadvisor drives the CUDAAdvisor reproduction: it profiles
// the Table 2 benchmark applications on the simulated Kepler/Pascal
// devices and regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	cudaadvisor [-j N] <command> [args]
//
//	cudaadvisor apps                      list the benchmark applications
//	cudaadvisor profile [flags] <app>     run one app under the profiler
//	cudaadvisor export [flags] <app>      emit flamegraph / timeline data
//	cudaadvisor lint [flags] <app|file.mir>    static divergence analysis
//	cudaadvisor advise [flags] <app|file.mir>  ranked static+dynamic report
//	cudaadvisor figure4|figure5|table3    regenerate an experiment
//	cudaadvisor figure6|figure7|figure10
//	cudaadvisor debugviews                Figures 8/9 (code/data-centric)
//	cudaadvisor all                       every table and figure
//	cudaadvisor serve [flags]             profiling-as-a-service HTTP daemon
//
// The global flags go before the command; `cudaadvisor` without one
// prints them, and every command's own flags, once (usage below).
//
// profile, lint, advise and export are one request type in
// internal/experiments (DESIGN.md §11): their flags come from its
// parameter table, go before the target, and are validated there — the
// serve daemon's query parameters are the same table.
//
// export serializes a profile for standard visualization tooling
// (DESIGN.md §12): -format folded emits flamegraph folded stacks over
// the merged CPU+GPU calling-context tree (pipe into flamegraph.pl or
// load into speedscope), weighted by -weight cycles|lines|divergence|
// reuse; -format chrome emits a Chrome-trace JSON timeline of warp/CTA
// scheduling (load at chrome://tracing or ui.perfetto.dev). checkexport
// structurally validates exported files.
//
// serve runs the pipeline as a hardened HTTP daemon (DESIGN.md §11):
// /v1/profile, /v1/lint, /v1/advise and /v1/export are the commands of
// the same names, answered from the shared cache with the CLI's bytes;
// -width/-depth bound admission (overflow is shed with 429 +
// Retry-After), -cell-timeout becomes the per-request deadline,
// -keep-going yields partial 200 responses, and SIGTERM drains
// gracefully within -drain.
//
// lint runs the static advisor (no simulation): the uniformity analysis
// predicts divergent branches, classifies global-memory accesses,
// predicts shared-memory bank conflicts and intra-CTA races, and flags
// barriers under divergent control flow. Its argument is a benchmark
// name from 'cudaadvisor apps' or a path to a .mir file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/faultinject"
	"cudaadvisor/internal/findings"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/report"
	"cudaadvisor/internal/runner"
	"cudaadvisor/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cudaadvisor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jFlag := fs.Int("j", 0, "parallel simulator runs (0 = GOMAXPROCS)")
	traceCap := fs.Int("trace-cap", 0, "bound each kernel trace's buffers to N records (0 = unbounded)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell deadline (0 = none), e.g. 30s")
	keepGoing := fs.Bool("keep-going", false, "annotate failing cells and continue; exit 1 at the end")
	injectSpec := fs.String("inject", "", "fault-injection spec, e.g. seed=1,cells=3,hookerr=100")
	cacheOn := fs.Bool("cache", false, "share repeated profiling/timing cells in-process (content-addressed memoizer)")
	cacheDir := fs.String("cache-dir", "", "persist the profile cache here (implies -cache); corrupt entries are misses")
	cacheStats := fs.Bool("cache-stats", false, "print a cache summary line to stderr after the command")
	cacheBudget := fs.Int64("cache-budget", 0, "on-disk cache size budget in bytes (0 = unlimited); oldest entries are evicted")
	memoBudget := fs.Int("memo-budget", 0, "bound the in-process memoizer to N resolved entries (0 = unlimited)")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	env := experiments.Env{
		Pool: runner.New(*jFlag), Scale: 1,
		TraceCap: *traceCap, CellTimeout: *cellTimeout, KeepGoing: *keepGoing,
	}
	if *cacheOn || *cacheDir != "" {
		env.Cache = profcache.New(*cacheDir)
		if *cacheBudget > 0 {
			env.Cache.SetBudget(*cacheBudget)
		}
		if *memoBudget > 0 {
			env.Cache.SetMemoBudget(*memoBudget)
		}
	}
	if *injectSpec != "" {
		inj, err := faultinject.Parse(*injectSpec)
		if err != nil {
			fmt.Fprintln(stderr, "cudaadvisor: -inject:", err)
			return 2
		}
		env.Inject = inj
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	var err error
	switch cmd {
	case "apps":
		for _, a := range apps.InTableOrder() {
			fmt.Fprintf(stdout, "%-10s %-9s warps/CTA=%-3d %s\n", a.Name, a.Suite, a.WarpsPerCTA, a.Description)
		}
	case "profile", "lint", "advise", "export":
		err = requestCmd(cmd, rest, env, stdout, stderr)
	case "serve":
		err = serveCmd(rest, env, stdout, stderr)
	case "checkreport":
		err = checkReportCmd(rest, stdout)
	case "checkexport":
		err = checkExportCmd(rest, stdout)
	case "figure4":
		err = experiments.WriteFigure4(stdout, env)
	case "figure5":
		err = experiments.WriteFigure5(stdout, env)
	case "table3":
		err = experiments.WriteTable3(stdout, env)
	case "figure6":
		err = experiments.WriteFigure6(stdout, env)
	case "figure7":
		err = experiments.WriteFigure7(stdout, env)
	case "figure10":
		err = experiments.WriteFigure10(stdout, env)
	case "debugviews":
		err = experiments.WriteCodeDataCentric(stdout, env)
	case "all":
		err = experiments.WriteAll(stdout, env)
	default:
		usage(stderr)
		return 2
	}
	if errors.Is(err, flag.ErrHelp) {
		err = nil // -h: the sub-command's flag set has printed its usage
	}
	if *cacheStats {
		// The summary goes to stderr so stdout stays byte-identical to an
		// uncached run — the property the cache is tested against.
		report.CacheStats(stderr, env.Cache)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cudaadvisor:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: cudaadvisor [-j N] <command>

global flags:
  -j N         parallel simulator runs (default 0 = GOMAXPROCS); experiments
               fan out on a worker pool and each uninstrumented launch splits
               its SM shards across idle workers, with byte-identical output
               for every N
  -trace-cap N       bound kernel trace buffers to N records; overflow falls
                     back to deterministic sampling, annotated in the output
  -cell-timeout D    per-cell deadline (e.g. 30s)
  -keep-going        annotate failing cells, render everything else, exit 1
  -inject SPEC       deterministic fault injection (seed=,cells=,hookerr=,
                     faultat=file:line,allocfail=,overflow=,panic=)
  -cache             share repeated profiling/timing cells in-process; output
                     stays byte-identical to an uncached run
  -cache-dir DIR     persist the cache in DIR across runs (implies -cache);
                     keyed on the binary's build, corruption-tolerant (bad
                     entries = misses), safe to share between concurrent
                     processes
  -cache-budget N    bound the on-disk cache to N bytes; least-recently-used
                     entries are evicted (counted separately from misses)
  -memo-budget N     bound the in-process memoizer to N resolved entries
                     (results and the runs they are derived from)
  -cache-stats       print "cache: ..." hit/miss summary to stderr at the end

commands:
  apps         list the benchmark applications (Table 2)
  profile      profile one application: cudaadvisor profile [-arch kepler|pascal] [-scale N] [-mode rd|md|bd|all] [-smem] <app>
  lint         static divergence analysis (no simulation): cudaadvisor lint [-format text|json] [-arch kepler|pascal] <app|file.mir>
  advise       ranked static+dynamic optimization report: cudaadvisor advise [-arch kepler|pascal] [-format text|json] [-scale N] <app|file.mir>
               (a .mir file gets a static-only report; apps are profiled and joined)
  checkreport  validate advisor-report JSON files: cudaadvisor checkreport <file.json>...
  export       emit a profile for visualization tooling: cudaadvisor export
               [-arch kepler|pascal] [-scale N] [-format folded|chrome]
               [-weight cycles|lines|divergence|reuse] <app>
               (folded: flamegraph.pl/speedscope; chrome: chrome://tracing)
  checkexport  validate exported files: cudaadvisor checkexport <file>...
  figure4      reuse distance histograms
  figure5      memory divergence distributions (Kepler + Pascal)
  table3       branch divergence table
  figure6      cache bypassing on Kepler (16 KB and 48 KB L1)
  figure7      cache bypassing on Pascal (24 KB unified cache)
  figure10     instrumentation overhead
  debugviews   code-/data-centric debugging views (Figures 8/9)
  all          everything above (figures run concurrently; figure10 last, alone)
  serve        HTTP daemon answering profile/lint/advise/export requests from the
               shared cache: cudaadvisor serve [-addr host:port] [-width N]
               [-depth N] [-drain D] [-allow-inject]; endpoints /healthz,
               /statsz, /v1/profile, /v1/lint, /v1/advise, /v1/export`)
}

// serveCmd boots the profiling daemon on the run's Env: the worker
// pool, cache, trace caps and keep-going policy all come from the
// global flags, and the global -cell-timeout becomes the per-request
// deadline (applied via the request context, so cancellation reaches
// the GPU step guard and caching keeps working). It blocks until the
// listener fails or a SIGTERM/SIGINT starts the graceful drain.
func serveCmd(args []string, env experiments.Env, stdout, stderr io.Writer) error {
	fl := flag.NewFlagSet("serve", flag.ContinueOnError)
	fl.SetOutput(stderr)
	addr := fl.String("addr", "127.0.0.1:7333", "listen address (host:port; port 0 picks a free port)")
	width := fl.Int("width", 0, "concurrent requests admitted (0 = GOMAXPROCS)")
	depth := fl.Int("depth", 16, "requests allowed to wait beyond -width; overflow sheds with 429")
	drain := fl.Duration("drain", 10*time.Second, "graceful shutdown budget after SIGTERM/SIGINT")
	allowInject := fl.Bool("allow-inject", false, "honor per-request ?inject= chaos specs (kill= always refused)")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments")
	}
	if env.Inject != nil {
		return fmt.Errorf("serve refuses a global -inject (it would poison every response); use -allow-inject and per-request ?inject= specs")
	}
	if env.Cache == nil {
		// Single-flight and the memoizer are what make the daemon cheap:
		// default them on even without -cache/-cache-dir.
		env.Cache = profcache.New("")
	}
	if *width <= 0 {
		*width = runtime.GOMAXPROCS(0)
	}

	srv := serve.New(serve.Config{
		Pool:        env.Pool,
		Cache:       env.Cache,
		Gate:        runner.NewGate(*width, *depth),
		Timeout:     env.CellTimeout,
		TraceCap:    env.TraceCap,
		KeepGoing:   env.KeepGoing,
		AllowInject: *allowInject,
		Log:         stderr,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cudaadvisor serve: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately instead of draining
		fmt.Fprintln(stdout, "cudaadvisor serve: draining")
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(dctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		<-errc // Serve has returned http.ErrServerClosed
		fmt.Fprintln(stdout, "cudaadvisor serve: drained")
		return nil
	}
}

// paramFlag is a flag.Value that keeps a request parameter as typed:
// experiments.NewRequest does all the validation, so the CLI and the
// daemon refuse the same values with the same words.
type paramFlag struct {
	text string
	bare bool // boolean syntax: a bare -flag means "true"
}

func (f *paramFlag) String() string     { return f.text }
func (f *paramFlag) Set(s string) error { f.text = s; return nil }
func (f *paramFlag) IsBoolFlag() bool   { return f.bare }

// requestCmd runs `profile`, `lint`, `advise` or `export`: the flags
// come from the command's parameter table, the one positional argument
// names the target — a benchmark application, or a .mir file whose text
// is read here — and the shared command layer decodes, validates and
// renders the request.
func requestCmd(cmd string, args []string, env experiments.Env, stdout, stderr io.Writer) error {
	fl := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fl.SetOutput(stderr)
	for _, p := range experiments.Params(cmd) {
		fl.Var(&paramFlag{text: p.Default, bare: p.Bool}, p.Name, p.Usage)
	}
	if err := fl.Parse(args); err != nil {
		return err
	}
	target := map[string]string{}
	var ir []byte
	if fl.NArg() == 1 {
		if t := fl.Arg(0); strings.HasSuffix(t, ".mir") {
			src, err := os.ReadFile(t)
			if err != nil {
				return err
			}
			target["name"], ir = t, src
		} else {
			target["app"] = t
		}
	}
	req, err := experiments.NewRequest(cmd, func(name string) string {
		if f := fl.Lookup(name); f != nil {
			return f.Value.String()
		}
		return target[name]
	}, ir)
	if err != nil {
		return err
	}
	return req.Write(stdout, env)
}

// checkReportCmd validates advisor-report JSON files: each must decode
// strictly (no unknown fields) and carry the current schema version.
// The CI pipeline runs it over every generated report.
func checkReportCmd(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("checkreport wants one or more report files")
	}
	for _, path := range args {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rep, err := findings.Decode(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(stdout, "%s: ok (%s, %s on %s, %d findings)\n",
			path, rep.Schema, rep.App, rep.Arch, len(rep.Findings))
	}
	return nil
}

// checkExportCmd structurally validates exported documents: Chrome
// traces must pass the strict schema/nesting/monotonicity validator,
// folded documents must parse line by line (the CI export sweep pipes
// every emitted file through this).
func checkExportCmd(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("checkexport wants one or more exported files")
	}
	for _, path := range args {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := report.ExportCheck(stdout, path, raw); err != nil {
			return err
		}
	}
	return nil
}
