package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"time"
)

// appNames are the ten Table 2 applications, in the order `cudaadvisor
// apps` lists them. The driver names them itself because it may not
// import the package that registers them.
var appNames = []string{"backprop", "bfs", "hotspot", "lavaMD", "nn", "nw", "srad_v2", "bicg", "syrk", "syr2k"}

var archNames = []string{"kepler", "pascal"}

// rep is what one repetition of a workload measured.
type rep struct {
	wallS, cpuS, peakRSSMB float64
	opMs                   []float64          // per-op wall times: the sample behind op_*
	extra                  map[string]float64 // the workload's own end-to-end metrics
	observed               map[string]layerMetric
	attempted, failed      int
	failures               []string
	digest                 string
}

// op counts one attempted operation; err, when not nil, is why it failed.
func (r *rep) op(name string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, name+": "+err.Error())
		}
	}
}

// child folds one subprocess of the timed section into the totals.
func (r *rep) child(c child) {
	r.cpuS += c.cpu.Seconds()
	if c.rssMB > r.peakRSSMB {
		r.peakRSSMB = c.rssMB
	}
}

// workload is one named set of inputs. The names are fixed: later issues
// cite them.
type workload struct {
	name string
	why  string
	// setup is the workload's own share of each set-up round.
	setup func(h *harness) error
	run   func(h *harness, rng *rand.Rand) rep
}

var workloads = []workload{
	{
		name: "cells_cold",
		why:  "80 one-shot CLI cells without a cache: every pipeline layer from IR parse to render, no profcache/serve/fan-out",
		run:  runCellsCold,
	},
	{
		name: "sweep_native",
		why:  "one figure7 bypass sweep of native programs: pure simulator throughput plus pool fan-out, no hooks or analyses",
		run:  runSweepNative,
	},
	{
		name: "figs_cached",
		why:  "figure4/5/table3/debugviews cold then ten times warm on one cache dir: cache publish versus lookup+decode+render",
		run:  runFigsCached,
	},
	{
		name:  "serve_phases",
		why:   "the daemon under nproc closed-loop clients at three cache temperatures: cold fill, memo hits, disk hits after restart",
		setup: bootProbe,
		run:   runServePhases,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// cliOp is one CLI invocation of cells_cold and how to judge its stdout.
type cliOp struct {
	name     string
	args     []string
	checker  string // validating subcommand for the body, or ""
	mayEmpty bool   // an empty stdout is a legitimate answer
}

// cellOps is the fixed cells_cold op list: for each app on each
// architecture an advise report, a shared-memory profile, a timeline and
// a flamegraph. lavaMD stays at scale 1 and nothing goes above scale 2:
// see the hazards in README.md.
func cellOps() []cliOp {
	var ops []cliOp
	for _, arch := range archNames {
		for _, app := range appNames {
			scale := "2"
			if app == "lavaMD" {
				scale = "1"
			}
			id := arch + "/" + app
			ops = append(ops,
				cliOp{name: "advise/" + id, checker: "checkreport",
					args: []string{"advise", "-format=json", "-arch", arch, "-scale", scale, app}},
				cliOp{name: "profile-smem/" + id,
					args: []string{"profile", "-smem", "-arch", arch, app}},
				cliOp{name: "export-chrome/" + id, checker: "checkexport",
					args: []string{"export", "-format", "chrome", "-arch", arch, app}},
				// Apps with no finite reuse have no reuse-weighted stacks.
				cliOp{name: "export-folded-reuse/" + id, checker: "checkexport", mayEmpty: true,
					args: []string{"export", "-format", "folded", "-weight", "reuse", "-arch", arch, app}},
			)
		}
	}
	return ops
}

func runCellsCold(h *harness, rng *rand.Rand) rep {
	var r rep
	ops := cellOps()
	out := make([][]byte, len(ops))
	errs := make([]error, len(ops))
	start := time.Now()
	for _, i := range rng.Perm(len(ops)) {
		c := h.run(ops[i].args...)
		r.child(c)
		r.opMs = append(r.opMs, c.wall.Seconds()*1e3)
		out[i], errs[i] = c.stdout, c.err
	}
	r.wallS = time.Since(start).Seconds()

	d := newDigest()
	for i, op := range ops {
		err := errs[i]
		switch {
		case err != nil:
		case len(out[i]) == 0 && !op.mayEmpty:
			err = fmt.Errorf("empty stdout")
		case op.checker != "":
			err = h.check(op.checker, out[i])
		}
		r.op(op.name, err)
		d.add(op.name, out[i])
	}
	r.digest = d.String()
	return r
}

// golden compares a figure command's stdout with its section of
// all.golden.
func (h *harness) goldenErr(cmd string, c child) error {
	if c.err != nil {
		return c.err
	}
	if !bytes.Equal(c.stdout, h.golden[cmd]) {
		return fmt.Errorf("stdout (%d bytes) differs from its section of all.golden (%d bytes)", len(c.stdout), len(h.golden[cmd]))
	}
	return nil
}

func runSweepNative(h *harness, _ *rand.Rand) rep {
	var r rep
	c := h.run("figure7")
	r.child(c)
	r.wallS = c.wall.Seconds()
	r.opMs = []float64{c.wall.Seconds() * 1e3}
	r.op("figure7", h.goldenErr("figure7", c))
	d := newDigest()
	d.add("figure7", c.stdout)
	r.digest = d.String()
	return r
}

const (
	figDirs        = 3  // fresh cache directories per rep
	figWarmPerCold = 10 // warm passes on each directory after its cold pass
)

var figCommands = []string{"figure4", "figure5", "table3", "debugviews"}

// cacheLine matches the summary -cache-stats prints on stderr.
var cacheLine = regexp.MustCompile(`cache: (\d+) requests, (\d+) memo hits, (\d+) disk hits, (\d+) misses`)

// cacheCounts are the counters of one process's cache.
type cacheCounts struct{ requests, hits, misses int }

func parseCacheStats(stderr []byte) (cacheCounts, error) {
	m := cacheLine.FindSubmatch(stderr)
	if m == nil {
		return cacheCounts{}, fmt.Errorf("no cache summary on stderr: %q", firstLine(stderr))
	}
	n := func(b []byte) int { v, _ := strconv.Atoi(string(b)); return v }
	return cacheCounts{requests: n(m[1]), hits: n(m[2]) + n(m[3]), misses: n(m[4])}, nil
}

func runFigsCached(h *harness, _ *rand.Rand) rep {
	r := rep{extra: map[string]float64{}}
	var coldS, warmMs []float64
	var total cacheCounts
	warmMisses := 0
	d := newDigest()
	start := time.Now()
	for dir := 0; dir < figDirs; dir++ {
		cacheDir, err := h.tempDir("figs-")
		if err != nil {
			r.op("tempdir", err)
			continue
		}
		cold := map[string][]byte{}
		for pass := 0; pass <= figWarmPerCold; pass++ {
			passStart := time.Now()
			for _, cmd := range figCommands {
				c := h.run("-cache-dir", cacheDir, "-cache-stats", cmd)
				r.child(c)
				err := h.goldenErr(cmd, c)
				stats, serr := parseCacheStats(c.stderr)
				if err == nil {
					err = serr
				}
				total.requests += stats.requests
				total.hits += stats.hits
				if pass == 0 {
					cold[cmd] = c.stdout
					if dir == 0 {
						d.add(cmd, c.stdout)
					}
				} else {
					warmMisses += stats.misses
					if err == nil && !bytes.Equal(c.stdout, cold[cmd]) {
						err = fmt.Errorf("warm stdout differs from the cold pass")
					}
				}
				r.op(fmt.Sprintf("%s/dir%d/pass%d", cmd, dir, pass), err)
			}
			took := time.Since(passStart).Seconds()
			r.opMs = append(r.opMs, took*1e3)
			if pass == 0 {
				coldS = append(coldS, took)
			} else {
				warmMs = append(warmMs, took*1e3)
			}
		}
	}
	r.wallS = time.Since(start).Seconds()
	r.extra["cold_pass_s"] = median(coldS)
	r.extra["warm_pass_ms"] = median(warmMs)
	r.observed = map[string]layerMetric{
		"profcache.hit_ratio":   {Value: ratio(total.hits, total.requests), Unit: "ratio", Exact: true},
		"profcache.warm_misses": {Value: float64(warmMisses), Unit: "count", Exact: true},
	}
	r.digest = d.String()
	return r
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
