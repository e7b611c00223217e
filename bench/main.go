// Command bench is the repository's benchmark. It drives the built
// cudaadvisor binary and daemon from outside over four named workloads
// and reports the end-to-end metrics with tracing off; a second, traced
// pass runs a pinned cell set in-process under spans and reports the
// per-layer metrics. README.md has the workload and metric tables.
//
//	go run -C bench .                          all workloads (-reps each), then the traced pass
//	go run -C bench . -workload W -seed N -seconds S -trace 0|1
//	                                           one workload, as BENCHMARK.json's driver runs it
//	go run -C bench . -compare A.json B.json   judge B against A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadFlag := flag.String("workload", "", "run only this workload and print the driver's JSON line (default: all, then the traced pass)")
	seed := flag.Int64("seed", 1, "seed for every shuffle and sample")
	seconds := flag.Float64("seconds", 0, "with -workload: repeat while another rep is expected to end within this many seconds (0 = use -reps)")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = the traced pass's per-layer metrics")
	reps := flag.Int("reps", 3, "repetitions of each workload")
	out := flag.String("out", "", "result file (default bench/.work/result.json)")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments:", flag.Args())
		return 2
	}

	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer h.close()
	if *out == "" {
		*out = filepath.Join(h.root, "bench", ".work", "result.json")
	}

	if *workloadFlag != "" {
		w := workloadByName(*workloadFlag)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFlag)
			return 2
		}
		if *trace != 0 {
			return driverTraced(h)
		}
		return driverEndToEnd(h, w, *seed, *reps, *seconds)
	}

	res := &result{Schema: resultSchema, Machine: machineShape(), Seed: *seed, Reps: *reps}
	ok := true
	for i := range workloads {
		h.setupS = nil
		wr, err := runWorkload(h, &workloads[i], *seed, *reps, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		printWorkload(wr)
		ok = ok && wr.Failed == 0
		res.Workloads = append(res.Workloads, wr)
	}
	lr, err := runTraced(h)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	printLayers(lr)
	ok = ok && len(lr.Problems) == 0
	res.Layers = lr
	if err := writeResult(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println("result:", *out)
	if !ok {
		return 1
	}
	return 0
}

// runWorkload sets up, repeats the workload and summarizes. With seconds
// > 0 it repeats while the next rep is expected to end inside the budget
// (always at least once); otherwise it runs exactly reps.
func runWorkload(h *harness, w *workload, seed int64, reps int, seconds float64) (workloadResult, error) {
	if err := h.setup(w.setup); err != nil {
		return workloadResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	var done []rep
	start := time.Now()
	for {
		r := w.run(h, rng)
		done = append(done, r)
		if seconds > 0 {
			if time.Since(start).Seconds()+r.wallS > seconds {
				break
			}
		} else if len(done) >= reps {
			break
		}
	}
	return summarizeReps(w.name, done, h.setupS), nil
}

func summarizeReps(name string, reps []rep, setupS []float64) workloadResult {
	wr := workloadResult{Name: name, Reps: len(reps), Metrics: map[string]metric{}}
	values := map[string][]float64{"setup_s": setupS}
	observed := map[string][]layerMetric{}
	for _, r := range reps {
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		wr.Failures = append(wr.Failures, r.failures...)
		per := map[string]float64{
			"wall_s": r.wallS, "cpu_s": r.cpuS, "peak_rss_mb": r.peakRSSMB,
			"op_geomean_ms": geomean(r.opMs), "op_p50_ms": median(r.opMs),
			"op_tail_ms": percentile(r.opMs, tailPercentile(len(r.opMs))),
		}
		for k, v := range r.extra {
			per[k] = v
		}
		for k, v := range per {
			values[k] = append(values[k], v)
		}
		for k, v := range r.observed {
			observed[k] = append(observed[k], v)
		}
		// Every rep must reproduce the first one's outputs.
		if wr.OutputSHA256 == "" {
			wr.OutputSHA256 = r.digest
		} else if wr.OutputSHA256 != r.digest {
			wr.Failed++
			wr.Failures = append(wr.Failures, "output digest differs between reps")
		}
	}
	if len(wr.Failures) > 8 {
		wr.Failures = wr.Failures[:8]
	}
	wr.FailRatio = ratio(wr.Failed, wr.Attempted)
	for k, v := range values {
		wr.Metrics[k] = summarize(unitOf(k), v)
	}
	for k, vs := range observed {
		if wr.Observed == nil {
			wr.Observed = map[string]layerMetric{}
		}
		var x []float64
		for _, v := range vs {
			x = append(x, v.Value)
		}
		m := vs[0]
		m.Value = median(x)
		wr.Observed[k] = m
	}
	return wr
}

// runTraced runs the traced pass, writes its span trace and has the
// binary under test validate it.
func runTraced(h *harness) (*layerResult, error) {
	if h.bin == "" {
		h.bin = filepath.Join(h.work, "cudaadvisor")
		if err := h.build(h.bin); err != nil {
			return nil, err
		}
	}
	dir, err := h.tempDir("profcache-")
	if err != nil {
		return nil, err
	}
	lr, spans, err := tracedPass(h.nproc, dir)
	if err != nil {
		return nil, err
	}
	lr.Problems = append(lr.Problems, layerNameProblems(lr)...)
	doc, err := chromeTrace(spans)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(h.root, "bench", ".work", "spans.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return nil, err
	}
	if c := h.run("checkexport", path); c.err != nil {
		lr.Problems = append(lr.Problems, "span trace: "+c.err.Error())
	}
	return lr, nil
}

// driverLine is the last line of stdout the benchmark's driver parses.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func emit(line driverLine) int {
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

func driverEndToEnd(h *harness, w *workload, seed int64, reps int, seconds float64) int {
	wr, err := runWorkload(h, w, seed, reps, seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	printWorkload(wr)
	line := driverLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]driverValue{}}
	for _, spec := range endToEnd {
		if spec.forDriver() {
			line.Metrics[spec.Name] = driverValue{wr.Metrics[spec.Name].Median, spec.Unit}
		}
	}
	return emit(line)
}

func driverTraced(h *harness) int {
	lr, err := runTraced(h)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	printLayers(lr)
	line := driverLine{Correct: len(lr.Problems) == 0, Attempted: len(lr.Cells), Failed: min(len(lr.Problems), len(lr.Cells)), Metrics: map[string]driverValue{}}
	for name, m := range lr.Metrics {
		line.Metrics[name] = driverValue{m.Value, m.Unit}
	}
	return emit(line)
}

func printWorkload(wr workloadResult) {
	fmt.Printf("== %s: %d reps, %d ops attempted, %d failed (fail_ratio %.4f), output_sha256 %s\n",
		wr.Name, wr.Reps, wr.Attempted, wr.Failed, wr.FailRatio, wr.OutputSHA256)
	for _, f := range wr.Failures {
		fmt.Println("   FAILED", f)
	}
	for _, spec := range endToEnd {
		if m, ok := wr.Metrics[spec.Name]; ok {
			fmt.Printf("   %-20s %-4s n=%d median=%.4f min=%.4f max=%.4f\n", spec.Name, m.Unit, m.N, m.Median, m.Min, m.Max)
		}
	}
	for _, k := range sortedKeys(wr.Observed) {
		fmt.Printf("   %-24s %-6s %.4f\n", k, wr.Observed[k].Unit, wr.Observed[k].Value)
	}
}

func printLayers(lr *layerResult) {
	fmt.Printf("== traced pass: %d cells, %d spans\n", len(lr.Cells), lr.Spans)
	for _, p := range lr.Problems {
		fmt.Println("   PROBLEM", p)
	}
	for _, k := range sortedKeys(lr.Metrics) {
		m := lr.Metrics[k]
		fmt.Printf("   %-32s %-7s %.4f\n", k, m.Unit, m.Value)
	}
	fmt.Println("   cells (wall ms, share under named layer spans):")
	for _, c := range lr.Cells {
		fmt.Printf("     %-28s %10.2f %6.1f%%\n", c.Cell, c.WallMs, c.AttributedPct)
	}
	fmt.Println("   span self-time by name (ms):")
	for _, k := range sortedKeys(lr.SelfTimeMs) {
		fmt.Printf("     %-28s %.2f\n", k, lr.SelfTimeMs[k])
	}
}

func machineShape() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/meminfo"); err == nil {
		var kb int64
		if _, err := fmt.Sscanf(string(b), "MemTotal: %d kB", &kb); err == nil {
			m.RAMMB = kb / 1024
		}
	}
	return m
}
