package main

import (
	"fmt"
	"sort"
)

// layerSpec names one per-layer metric of the traced pass, as
// BENCHMARK.json lists it.
type layerSpec struct {
	Name   string
	Unit   string
	Better string
}

// perLayer is every metric the traced pass must report, grouped by the
// module it measures. TestBenchmarkJSONMatchesTables keeps BENCHMARK.json
// equal to this table and to endToEnd.
var perLayer = []layerSpec{
	{"irtext.module_build_ms", "ms", "lower"},
	{"instrument.run_ms", "ms", "lower"},
	{"instrument.hooks_inserted", "count", "lower"},
	{"instrument.overhead_x", "x", "lower"},
	{"gpu.launch_native_s", "s", "lower"},
	{"gpu.launch_instr_s", "s", "lower"},
	{"gpu.ns_per_warp_instr_native", "ns", "lower"},
	{"gpu.ns_per_warp_instr_instr", "ns", "lower"},
	{"gpu.warp_instrs", "count", "lower"},
	{"gpu.sim_cycles", "count", "lower"},
	{"gpu.hook_calls", "count", "lower"},
	{"gpu.device_new_ms", "ms", "lower"},
	{"gpu.alloc_mb_per_cell", "MB", "lower"},
	{"gpu.shard_speedup_x", "x", "higher"},
	{"profiler.hook_s", "s", "lower"},
	{"profiler.kernel_end_ms", "ms", "lower"},
	{"trace.mem_records", "count", "lower"},
	{"trace.block_records", "count", "lower"},
	{"trace.heap_bytes_per_record", "B", "lower"},
	{"analysis.reuse_ms", "ms", "lower"},
	{"analysis.memdiv_ms", "ms", "lower"},
	{"analysis.branchdiv_ms", "ms", "lower"},
	{"analysis.sharedbank_ms", "ms", "lower"},
	{"analysis.reuse_mrec_per_s", "Mrec/s", "higher"},
	{"staticadvisor.analyze_ms", "ms", "lower"},
	{"findings.join_ms", "ms", "lower"},
	{"findings.encode_ms", "ms", "lower"},
	{"findings.decode_ms", "ms", "lower"},
	{"findings.count", "count", "higher"},
	{"export.folded_ms", "ms", "lower"},
	{"export.chrome_ms", "ms", "lower"},
	{"export.chrome_bytes", "count", "lower"},
	{"report.render_ms", "ms", "lower"},
	{"profcache.publish_ms", "ms", "lower"},
	{"profcache.disk_hit_us", "us", "lower"},
	{"profcache.memo_hit_us", "us", "lower"},
	{"profcache.entry_bytes", "B", "lower"},
	{"runner.pool_speedup_x", "x", "higher"},
	{"runner.gate_enter_ns", "ns", "lower"},
	{"serve.handler_hot_us", "us", "lower"},
	{"bench.trace_overhead_x", "x", "lower"},
}

// layerNameProblems reports a traced pass whose metric names or units
// drifted from the perLayer table.
func layerNameProblems(lr *layerResult) []string {
	var problems []string
	want := map[string]string{}
	for _, s := range perLayer {
		want[s.Name] = s.Unit
		if _, ok := lr.Metrics[s.Name]; !ok {
			problems = append(problems, "traced pass did not report "+s.Name)
		}
	}
	for name, m := range lr.Metrics {
		if unit, ok := want[name]; !ok {
			problems = append(problems, "traced pass reported "+name+", which perLayer does not list")
		} else if unit != m.Unit {
			problems = append(problems, fmt.Sprintf("%s: unit %q, perLayer says %q", name, m.Unit, unit))
		}
	}
	sort.Strings(problems)
	return problems
}
