package main

// The traced pass: a pinned cell set run in-process, with a span around
// every call into a module's public functions. This is the one file of
// the benchmark that imports cudaadvisor/internal/...; README.md lists
// the functions it calls — the layer boundary a refactor has to keep or
// update here.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/core"
	"cudaadvisor/internal/export"
	"cudaadvisor/internal/findings"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/runner"
	"cudaadvisor/internal/serve"
	"cudaadvisor/internal/staticadvisor"
)

// deviceMemBytes is the global memory every CLI cell allocates.
const deviceMemBytes = 512 << 20

// scale2Apps run a second time at scale 2. syrk and syr2k would too, but
// their two scale-2 cells alone take 22 s (README.md has the sizing), so
// syrk at scale 2 appears only as the native shard-speed-up launch.
var scale2Apps = []string{"bfs", "srad_v2"}

// slowProbe leaves the two costliest scale-1 cells out of the repeated
// on/off and pooled probes, which would otherwise double the pass.
var slowProbe = map[string]bool{"syrk": true, "syr2k": true}

// cellSpec is one (app, scale) of the traced cell set, on Kepler.
type cellSpec struct {
	app   *apps.App
	scale int
}

func tracedCells() ([]cellSpec, error) {
	var cells []cellSpec
	for _, a := range apps.InTableOrder() {
		cells = append(cells, cellSpec{a, 1})
	}
	for _, name := range scale2Apps {
		a := apps.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("no application %q", name)
		}
		cells = append(cells, cellSpec{a, 2})
	}
	return cells, nil
}

// cellStats are one cell's counts and launch-side times. The counts are
// simulated statistics: they repeat exactly and a speed-only change may
// not move them.
type cellStats struct {
	launch                               time.Duration
	warpInstrs, simCycles, hookCalls     int64
	memRecords, blockRecords             int64
	hooksInserted, findings, chromeBytes int64
	profiler                             *profiler.Profiler // instrumented cells only
	adviseJSON                           []byte
}

// counts is the part of cellStats that must repeat exactly.
func (s cellStats) counts() [8]int64 {
	return [8]int64{s.warpInstrs, s.simCycles, s.hookCalls, s.memRecords, s.blockRecords, s.hooksInserted, s.findings, s.chromeBytes}
}

// stamp decorates a listener: it times KernelLaunch→KernelEnd (the gpu
// executor plus whatever the hooks do) and the inner KernelEnd.
type stamp struct {
	rt.Listener
	tr    *tracer
	cell  string
	stats *cellStats

	started time.Time
	end     func()
}

func (s *stamp) KernelLaunch(info *rt.LaunchInfo) (gpu.Hooks, error) {
	hooks, err := s.Listener.KernelLaunch(info)
	s.end = s.tr.begin("gpu.launch", s.cell)
	s.started = time.Now()
	return hooks, err
}

func (s *stamp) KernelEnd(info *rt.LaunchInfo, res *gpu.LaunchResult) {
	s.stats.launch += time.Since(s.started)
	s.end()
	s.stats.warpInstrs += res.WarpInstrs
	s.stats.simCycles += res.Cycles
	s.stats.hookCalls += res.HookCalls
	end := s.tr.begin("profiler.kernel_end", s.cell)
	s.Listener.KernelEnd(info, res)
	end()
}

func cellID(kind string, c cellSpec) string {
	return fmt.Sprintf("%s/%s/scale%d", kind, c.app.Name, c.scale)
}

// nativeCell runs the uninstrumented program under the cycle counter.
func nativeCell(tr *tracer, c cellSpec, cfg gpu.ArchConfig, pool *runner.Pool) (cellStats, error) {
	var st cellStats
	id := cellID("native", c)
	defer tr.begin("cell", id)()

	end := tr.begin("irtext.module_build", id)
	prog, err := c.app.Native()
	end()
	if err != nil {
		return st, err
	}
	end = tr.begin("gpu.device_new", id)
	dev := gpu.NewDevice(cfg, deviceMemBytes)
	end()
	ctx := rt.NewContext(dev, &stamp{Listener: rt.NewCycleCounter(), tr: tr, cell: id, stats: &st})
	ctx.Options.Pool = pool
	end = tr.begin("apps.run", id)
	err = c.app.Run(ctx, prog, c.scale)
	end()
	return st, err
}

// countWriter counts what a renderer writes.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// instrCell runs the instrumented program under the profiler, then every
// consumer of the profile: the four analyses, the static advisor and the
// findings join, both exports and the report renderers.
func instrCell(tr *tracer, c cellSpec, cfg gpu.ArchConfig) (cellStats, error) {
	var st cellStats
	id := cellID("instr", c)
	defer tr.begin("cell", id)()
	opts := instrument.MemorySharedAndBlocks()

	end := tr.begin("instrument.run", id)
	prog, err := c.app.Instrumented(opts)
	end()
	if err != nil {
		return st, err
	}
	for _, f := range prog.Module.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.IsHookCall() {
					st.hooksInserted++
				}
			}
		}
	}

	end = tr.begin("gpu.device_new", id)
	dev := gpu.NewDevice(cfg, deviceMemBytes)
	end()
	p := profiler.New()
	ctx := rt.NewContext(dev, &stamp{Listener: p, tr: tr, cell: id, stats: &st})
	ctx.Options.RecordSchedule = true
	end = tr.begin("apps.run", id)
	err = c.app.Run(ctx, prog, c.scale)
	end()
	if err != nil {
		return st, err
	}
	st.profiler = p
	for _, kp := range p.Kernels {
		st.memRecords += int64(len(kp.Trace.Mem))
		st.blockRecords += int64(len(kp.Trace.Blocks))
	}

	line := cfg.L1LineSize
	perKernel := func(name string, fn func(kp *profiler.KernelProfile)) {
		defer tr.begin(name, id)()
		for _, kp := range p.Kernels {
			fn(kp)
		}
	}
	perKernel("analysis.reuse", func(kp *profiler.KernelProfile) {
		analysis.ReuseDistance(kp.Trace, analysis.DefaultElementReuse())
	})
	perKernel("analysis.memdiv", func(kp *profiler.KernelProfile) { analysis.MemDivergence(kp.Trace, line) })
	perKernel("analysis.branchdiv", func(kp *profiler.KernelProfile) { analysis.BranchDivergence(kp.Trace, kp.Tables) })
	perKernel("analysis.sharedbank", func(kp *profiler.KernelProfile) { analysis.SharedBankConflicts(kp.Trace) })

	end = tr.begin("irtext.parse", id)
	m, err := c.app.Module()
	end()
	if err != nil {
		return st, err
	}
	end = tr.begin("staticadvisor.analyze", id)
	static, err := staticadvisor.AnalyzeLayout(m, staticadvisor.Layout{Block: c.app.BlockDims})
	end()
	if err != nil {
		return st, err
	}
	end = tr.begin("findings.join", id)
	fs := findings.FromStatic(static, line)
	findings.Join(fs, findings.CollectProfile(p, line), cfg)
	rep := findings.NewReport(c.app.Name, cfg.Name, line, c.scale, fs)
	end()
	st.findings = int64(len(rep.Findings))
	end = tr.begin("findings.encode", id)
	st.adviseJSON, err = findings.Encode(rep)
	end()
	if err != nil {
		return st, err
	}
	end = tr.begin("findings.decode", id)
	_, err = findings.Decode(st.adviseJSON)
	end()
	if err != nil {
		return st, err
	}

	end = tr.begin("export.folded", id)
	for _, weight := range []string{"cycles", "lines", "divergence", "reuse"} {
		if err == nil {
			err = export.WriteFolded(io.Discard, p, weight, line)
		}
	}
	end()
	if err != nil {
		return st, err
	}
	var chrome countWriter
	end = tr.begin("export.chrome", id)
	err = export.WriteChromeTrace(&chrome, p)
	end()
	if err != nil {
		return st, err
	}
	st.chromeBytes = chrome.n

	// core derives each analysis again per renderer (it keeps no memo),
	// so this span holds rendering plus those repeats — what `profile`
	// pays today.
	end = tr.begin("report.render", id)
	adv := core.FromProfile(cfg, opts, p)
	adv.WriteReuseReport(io.Discard)
	adv.WriteMemDivergenceReport(io.Discard)
	adv.WriteBranchDivergenceReport(io.Discard)
	adv.WriteSharedMemReport(io.Discard)
	adv.WriteCodeCentric(io.Discard, 3)
	if len(p.DevAllocs) > 0 {
		adv.WriteDataCentric(io.Discard, p.DevAllocs[0].Addr)
	}
	end()
	return st, nil
}

// cacheProbe measures profcache from outside with fills that return
// results already built, so what is timed is the cache, not the work.
type cacheProbe struct {
	dir   string
	cache *profcache.Cache
	// lookups read one published key each back through a cache, with a
	// fill that fails: a key that should hit must not run it.
	lookups []func(*profcache.Cache) error
}

var errFillCalled = errors.New("bench: fill called on a key that should hit")

// publish stores one cell's profile and encoded report: the miss path
// net of the fill (analysis resolve, encode, claim, atomic publish).
func (cp *cacheProbe) publish(tr *tracer, c cellSpec, cfg gpu.ArchConfig, st cellStats) error {
	id := cellID("profcache", c)
	defer tr.begin("cell", id)()
	defer tr.begin("profcache.publish", id)()
	ctx := context.Background()
	opts := instrument.MemorySharedAndBlocks()
	pk := profcache.ProfileKey(c.app, cfg, opts, c.scale, 0)
	if _, err := cp.cache.Profile(ctx, pk, cfg.L1LineSize, func(context.Context) (*profiler.Profiler, error) {
		return st.profiler, nil
	}); err != nil {
		return err
	}
	vk := profcache.ViewKey(c.app, cfg, opts, c.scale, 0, "bench:advise")
	if _, err := cp.cache.Bytes(ctx, vk, func(context.Context) ([]byte, error) {
		return st.adviseJSON, nil
	}); err != nil {
		return err
	}
	cp.lookups = append(cp.lookups,
		func(c *profcache.Cache) error {
			_, err := c.Profile(ctx, pk, cfg.L1LineSize, func(context.Context) (*profiler.Profiler, error) { return nil, errFillCalled })
			return err
		},
		func(c *profcache.Cache) error {
			_, err := c.Bytes(ctx, vk, func(context.Context) ([]byte, error) { return nil, errFillCalled })
			return err
		})
	return nil
}

// hits reads every published key back through c and returns the time
// per lookup, in microseconds.
func (cp *cacheProbe) hits(c *profcache.Cache) ([]float64, error) {
	var us []float64
	for _, lookup := range cp.lookups {
		t := time.Now()
		if err := lookup(c); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return us, nil
}

// entryBytes is the mean size of the published entry files.
func (cp *cacheProbe) entryBytes() (float64, error) {
	var total, n int64
	err := filepath.Walk(cp.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
			n++
		}
		return err
	})
	if err != nil || n == 0 {
		return 0, err
	}
	return float64(total) / float64(n), nil
}

// handlerHotUS times the serve handler in-process on a memo-hot key; an
// end-to-end hot p50 minus this is HTTP transport.
func handlerHotUS(nproc int) (float64, error) {
	srv := serve.New(serve.Config{Cache: profcache.New(""), Gate: runner.NewGate(nproc, 16)})
	const url = "/v1/profile?app=nn&arch=kepler&mode=all"
	var us []float64
	for i := 0; i < 2001; i++ {
		rec := httptest.NewRecorder()
		t := time.Now()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		d := time.Since(t)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("serve handler: status %d: %s", rec.Code, firstLine(rec.Body.Bytes()))
		}
		if i > 0 { // the first request fills the key
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
	}
	return median(us), nil
}

func gateEnterNS(nproc int) (float64, error) {
	g := runner.NewGate(nproc, 16)
	const n = 200000
	t := time.Now()
	for i := 0; i < n; i++ {
		release, err := g.Enter(context.Background())
		if err != nil {
			return 0, err
		}
		release()
	}
	return float64(time.Since(t).Nanoseconds()) / n, nil
}

// heapBytesPerRecord is the live heap one trace record costs: the heap
// growth a profile of bfs pins, over its record count.
func heapBytesPerRecord(cfg gpu.ArchConfig) (float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := instrCell(nil, cellSpec{apps.ByName("bfs"), 1}, cfg)
	if err != nil {
		return 0, err
	}
	// A LaunchResult points into its launch state and so pins the whole
	// 512 MiB device; drop it to see the trace alone.
	for _, kp := range st.profiler.Kernels {
		kp.Result = nil
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st.profiler)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(st.memRecords+st.blockRecords), nil
}

// tracedPass runs the cell set under spans and derives the layer table.
func tracedPass(nproc int, probeDir string) (*layerResult, []span, error) {
	cells, err := tracedCells()
	if err != nil {
		return nil, nil, err
	}
	cfg := gpu.KeplerK40c()
	pool := runner.New(nproc)
	lr := &layerResult{Metrics: map[string]layerMetric{}, SelfTimeMs: map[string]float64{}}
	set := func(name string, v float64, unit string) { lr.Metrics[name] = layerMetric{Value: v, Unit: unit} }
	exact := func(name string, v int64) {
		lr.Metrics[name] = layerMetric{Value: float64(v), Unit: "count", Exact: true}
	}

	probe := &cacheProbe{dir: probeDir, cache: profcache.New(probeDir)}

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	tr := newTracer()
	native := make([]cellStats, len(cells))
	instr := make([]cellStats, len(cells))
	for i, c := range cells {
		if native[i], err = nativeCell(tr, c, cfg, nil); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", cellID("native", c), err)
		}
		if instr[i], err = instrCell(tr, c, cfg); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", cellID("instr", c), err)
		}
		if c.scale == 1 {
			if err := probe.publish(tr, c, cfg, instr[i]); err != nil {
				return nil, nil, err
			}
		}
		instr[i].profiler = nil // one profile in memory at a time
	}
	runtime.ReadMemStats(&mem1)
	spans := tr.spans
	lr.Spans = len(spans)

	// Span self-times by name, and each cell's attributed share.
	self := selfTimes(spans)
	selfBy := map[string]time.Duration{}
	var deviceNewMs []float64
	for i, s := range spans {
		selfBy[s.Name] += self[i]
		if s.Name == "gpu.device_new" {
			deviceNewMs = append(deviceNewMs, (s.End-s.Start).Seconds()*1e3)
		}
		if s.Parent < 0 {
			wall := s.End - s.Start
			share := cellShare{Cell: s.Cell, WallMs: wall.Seconds() * 1e3, AttributedPct: 100 * (1 - self[i].Seconds()/wall.Seconds())}
			lr.Cells = append(lr.Cells, share)
			if share.AttributedPct < 90 {
				lr.Problems = append(lr.Problems, fmt.Sprintf("%s: only %.1f%% of its wall-clock is under named layer spans", s.Cell, share.AttributedPct))
			}
		}
	}
	for name, d := range selfBy {
		lr.SelfTimeMs[name] = d.Seconds() * 1e3
	}
	ms := func(name string) float64 { return selfBy[name].Seconds() * 1e3 }

	var nat, ins cellStats
	var overheads []float64
	for i, c := range cells {
		n, s := native[i], instr[i]
		nat.launch += n.launch
		nat.warpInstrs += n.warpInstrs
		nat.simCycles += n.simCycles
		ins.launch += s.launch
		ins.warpInstrs += s.warpInstrs
		ins.simCycles += s.simCycles
		ins.hookCalls += s.hookCalls
		ins.memRecords += s.memRecords
		ins.blockRecords += s.blockRecords
		ins.hooksInserted += s.hooksInserted
		ins.findings += s.findings
		ins.chromeBytes += s.chromeBytes
		if c.scale == 1 {
			overheads = append(overheads, s.launch.Seconds()/n.launch.Seconds())
		}
	}

	set("irtext.module_build_ms", ms("irtext.module_build"), "ms")
	set("instrument.run_ms", ms("instrument.run"), "ms") // includes the parse: Instrumented builds its own module
	exact("instrument.hooks_inserted", ins.hooksInserted)
	set("instrument.overhead_x", geomean(overheads), "x")
	set("gpu.launch_native_s", nat.launch.Seconds(), "s")
	set("gpu.launch_instr_s", ins.launch.Seconds(), "s")
	set("gpu.ns_per_warp_instr_native", float64(nat.launch.Nanoseconds())/float64(nat.warpInstrs), "ns")
	set("gpu.ns_per_warp_instr_instr", float64(ins.launch.Nanoseconds())/float64(ins.warpInstrs), "ns")
	exact("gpu.warp_instrs", nat.warpInstrs+ins.warpInstrs)
	exact("gpu.sim_cycles", nat.simCycles+ins.simCycles)
	exact("gpu.hook_calls", ins.hookCalls)
	set("gpu.device_new_ms", median(deviceNewMs[1:]), "ms") // the first one gets OS-zeroed pages
	set("gpu.alloc_mb_per_cell", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20)/float64(2*len(cells)), "MB")
	set("profiler.hook_s", (ins.launch - nat.launch).Seconds(), "s")
	set("profiler.kernel_end_ms", ms("profiler.kernel_end"), "ms")
	exact("trace.mem_records", ins.memRecords)
	exact("trace.block_records", ins.blockRecords)
	set("analysis.reuse_ms", ms("analysis.reuse"), "ms")
	set("analysis.memdiv_ms", ms("analysis.memdiv"), "ms")
	set("analysis.branchdiv_ms", ms("analysis.branchdiv"), "ms")
	set("analysis.sharedbank_ms", ms("analysis.sharedbank"), "ms")
	set("analysis.reuse_mrec_per_s", float64(ins.memRecords)/1e6/selfBy["analysis.reuse"].Seconds(), "Mrec/s")
	set("staticadvisor.analyze_ms", ms("staticadvisor.analyze"), "ms")
	set("findings.join_ms", ms("findings.join"), "ms")
	set("findings.encode_ms", ms("findings.encode"), "ms")
	set("findings.decode_ms", ms("findings.decode"), "ms")
	exact("findings.count", ins.findings)
	set("export.folded_ms", ms("export.folded"), "ms")
	set("export.chrome_ms", ms("export.chrome"), "ms")
	exact("export.chrome_bytes", ins.chromeBytes)
	set("report.render_ms", ms("report.render"), "ms")
	set("profcache.publish_ms", ms("profcache.publish"), "ms")

	// The cache read back: a new Cache on the directory hits the disk
	// layer once per key, and again from its memoizer.
	reader := profcache.New(probeDir)
	diskUS, err := probe.hits(reader)
	if err != nil {
		return nil, nil, fmt.Errorf("profcache disk hit: %w", err)
	}
	memoUS, err := probe.hits(reader)
	if err != nil {
		return nil, nil, fmt.Errorf("profcache memo hit: %w", err)
	}
	entry, err := probe.entryBytes()
	if err != nil {
		return nil, nil, err
	}
	set("profcache.disk_hit_us", median(diskUS), "us")
	set("profcache.memo_hit_us", median(memoUS), "us")
	set("profcache.entry_bytes", entry, "B")

	hot, err := handlerHotUS(nproc)
	if err != nil {
		return nil, nil, err
	}
	set("serve.handler_hot_us", hot, "us")
	gate, err := gateEnterNS(nproc)
	if err != nil {
		return nil, nil, err
	}
	set("runner.gate_enter_ns", gate, "ns")
	heap, err := heapBytesPerRecord(cfg)
	if err != nil {
		return nil, nil, err
	}
	set("trace.heap_bytes_per_record", heap, "B")

	// One launch split across SM shards: syrk at scale 2, serial over
	// pooled.
	syrk2 := cellSpec{apps.ByName("syrk"), 2}
	serial, err := nativeCell(nil, syrk2, cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	sharded, err := nativeCell(nil, syrk2, cfg, pool)
	if err != nil {
		return nil, nil, err
	}
	set("gpu.shard_speedup_x", serial.launch.Seconds()/sharded.launch.Seconds(), "x")

	// The probe cells again with spans off, serially and then fanned out
	// on the pool: the fan-out speed-up. Every repeat must reproduce the
	// main pass's counts.
	var probes []int
	for i, c := range cells {
		if c.scale == 1 && !slowProbe[c.app.Name] {
			probes = append(probes, i)
		}
	}
	again := func(p *runner.Pool) (float64, error) {
		t := time.Now()
		out, err := runner.Map(p, len(probes), func(k int) ([8]int64, error) {
			st, err := instrCell(nil, cells[probes[k]], cfg)
			return st.counts(), err
		})
		took := time.Since(t).Seconds()
		for k, got := range out {
			if want := instr[probes[k]].counts(); err == nil && got != want {
				lr.Problems = append(lr.Problems, fmt.Sprintf("%s: counts differ between two runs: %v then %v",
					cellID("instr", cells[probes[k]]), want, got))
			}
		}
		return took, err
	}
	serialS, err := again(nil)
	if err != nil {
		return nil, nil, err
	}
	pooledS, err := again(pool)
	if err != nil {
		return nil, nil, err
	}
	set("runner.pool_speedup_x", serialS/pooledS, "x")

	// Tracing overhead by accounting: what recording one span costs,
	// times the spans recorded, against the traced time. Timing the same
	// cells with spans off instead differs by a few percent either way
	// (each cell zeroes a fresh 512 MiB device), a thousand times the
	// cost being measured.
	const calibration = 200000
	scratch := newTracer()
	t := time.Now()
	for i := 0; i < calibration; i++ {
		scratch.begin("calibration", "")()
	}
	perSpan := time.Since(t) / calibration
	var traced time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			traced += s.End - s.Start
		}
	}
	set("bench.trace_overhead_x", traced.Seconds()/(traced-time.Duration(len(spans))*perSpan).Seconds(), "x")
	return lr, spans, nil
}
