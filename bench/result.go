package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// resultSchema versions the result file -compare reads.
const resultSchema = "cudaadvisor-bench/v1"

// regressionBound is the share of the parent's median by which any
// end-to-end metric may get worse before -compare (and the driver, for the
// metrics BENCHMARK.json repeats) calls it a regression. One value for
// all: on the 2-core sandbox the box itself drifts by up to a fifth
// between two sets of ten runs (README.md has the measurements), and a
// tighter bound would flag that drift.
const regressionBound = 0.25

// metricSpec fixes a metric's unit and direction.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Only names the one workload that reports the metric; empty means
	// every workload does.
	Only string
	// Unsteady keeps a metric every workload reports out of BENCHMARK.json:
	// its spread over ten runs comes too close to the largest bound the
	// driver allows, which would get the benchmark itself refused.
	Unsteady bool
}

// forDriver reports whether BENCHMARK.json lists the metric.
func (s metricSpec) forDriver() bool { return s.Only == "" && !s.Unsteady }

// endToEnd lists every end-to-end metric. The first seven are defined on
// every workload (README.md says what an "op" is on each); the rest are
// the phase views of the two multi-phase workloads. peak_rss_mb stays out
// of BENCHMARK.json: in a process that runs many cells the peak moves in
// 512 MiB steps with GC timing (sweep_native: 2.8-4.8 GB, spread 12-20 %).
var endToEnd = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Unsteady: true},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "op_geomean_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower"},

	{Name: "cold_pass_s", Unit: "s", Better: "lower", Only: "figs_cached"},
	{Name: "warm_pass_ms", Unit: "ms", Better: "lower", Only: "figs_cached"},

	{Name: "serve_cold_p50_ms", Unit: "ms", Better: "lower", Only: "serve_phases"},
	{Name: "serve_cold_p90_ms", Unit: "ms", Better: "lower", Only: "serve_phases"},
	{Name: "serve_cold_rps", Unit: "1/s", Better: "higher", Only: "serve_phases"},
	{Name: "serve_hot_p50_ms", Unit: "ms", Better: "lower", Only: "serve_phases"},
	{Name: "serve_hot_rps", Unit: "1/s", Better: "higher", Only: "serve_phases"},
	{Name: "serve_disk_p50_ms", Unit: "ms", Better: "lower", Only: "serve_phases"},
	{Name: "serve_disk_p90_ms", Unit: "ms", Better: "lower", Only: "serve_phases"},
}

func unitOf(name string) string {
	for _, s := range endToEnd {
		if s.Name == name {
			return s.Unit
		}
	}
	return ""
}

// metric is one end-to-end metric of one workload: a value per rep and
// their summary.
type metric struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) metric {
	return metric{Unit: unit, N: len(values), Median: median(values), Min: minOf(values), Max: maxOf(values), Values: values}
}

// workloadResult is everything one workload reports.
type workloadResult struct {
	Name      string            `json:"name"`
	Reps      int               `json:"reps"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Failures  []string          `json:"failures,omitempty"` // first few, for the reader
	Metrics   map[string]metric `json:"metrics"`
	// Observed holds layer metrics only an end-to-end run can see: cache
	// and gate counters read from -cache-stats and /statsz, and the
	// phase figures too noisy to bound. Counts repeat exactly.
	Observed     map[string]layerMetric `json:"observed,omitempty"`
	OutputSHA256 string                 `json:"output_sha256"`
}

// layerMetric is one per-layer value; Exact marks the simulated
// statistics and other counts that must repeat bit for bit.
type layerMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
}

// cellShare says how much of one traced cell's wall-clock the named
// layer spans account for.
type cellShare struct {
	Cell          string  `json:"cell"`
	WallMs        float64 `json:"wall_ms"`
	AttributedPct float64 `json:"attributed_pct"`
}

// layerResult is the traced pass: the span-derived layer table.
type layerResult struct {
	Metrics    map[string]layerMetric `json:"metrics"`
	SelfTimeMs map[string]float64     `json:"self_time_ms"` // by span name, summed over the cell set
	Cells      []cellShare            `json:"cells"`
	Spans      int                    `json:"spans"`
	Problems   []string               `json:"problems,omitempty"`
}

type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	RAMMB      int64  `json:"ram_mb"`
}

// result is the file a run writes and -compare reads.
type result struct {
	Schema    string           `json:"schema"`
	Machine   machine          `json:"machine"`
	Seed      int64            `json:"seed"`
	Reps      int              `json:"reps"`
	Workloads []workloadResult `json:"workloads"`
	Layers    *layerResult     `json:"layers,omitempty"`
}

func writeResult(path string, r *result) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
