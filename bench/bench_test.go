package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {33, 50}, {40, 75}, {80, 75}, {100, 90}, {150, 90}, {200, 95}, {300, 95}, {1000, 99}, {20450, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if n := len(serveRequests()); n != 150 || tailPercentile(n) != 90 {
		t.Errorf("serve key set has %d keys; the serve_*_p90_ms metrics assume 150 and a p90 tail", n)
	}
	if n := len(cellOps()); n != 80 {
		t.Errorf("cells_cold has %d ops, want 80", n)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {10, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1,100) = %v, want 10", got)
	}
	// A 20 ms cell and a 4 s cell count alike: halving either halves
	// the square of the mean.
	base := geomean([]float64{20, 4000})
	if a, b := geomean([]float64{10, 4000}), geomean([]float64{20, 2000}); math.Abs(a-b) > 1e-9 || math.Abs(a*math.Sqrt2-base) > 1e-9 {
		t.Errorf("geomean does not weigh cells equally: %v %v (base %v)", a, b, base)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4, method="inclusive") == [3.25, 5.5, 7.75]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 3.25 || q2 != 5.5 || q3 != 7.75 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// Three runs: halfway to the neighbours, nothing beyond the data.
	q1, q2, q3 = quartiles([]float64{13, 10, 12})
	if q1 != 11 || q2 != 12 || q3 != 12.5 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("quartiles of one = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-4.5/5.5) > 1e-9 {
		t.Errorf("spread = %v, want (7.75-3.25)/5.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "cell", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "run", Start: ms(10), End: ms(60), Parent: 0},    // nested child with its own children
		{Name: "launch", Start: ms(20), End: ms(40), Parent: 1}, // grandchild: counts against run, not cell
		{Name: "a", Start: ms(50), End: ms(80), Parent: 0},      // overlaps run by 10 ms
		{Name: "b", Start: ms(90), End: ms(120), Parent: 0},     // runs past the parent: clipped
		{Name: "c", Start: ms(55), End: ms(58), Parent: 0},      // inside both run and a
	}
	want := []time.Duration{ms(100 - 50 - 20 - 10), ms(30), ms(20), ms(30), ms(30), ms(3)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsAndNilRecordsNothing(t *testing.T) {
	var off *tracer
	off.begin("x", "c")() // must not panic
	tr := newTracer()
	endCell := tr.begin("cell", "c1")
	endA := tr.begin("a", "c1")
	tr.begin("a1", "c1")()
	endA()
	tr.begin("b", "c1")()
	endCell()
	parents := []int{}
	for _, s := range tr.spans {
		parents = append(parents, s.Parent)
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if want := []int{-1, 0, 1, 0}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	doc, err := chromeTrace(tr.spans)
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(doc, &events); err != nil {
		t.Fatal(err)
	}
	depth, last := 0, int64(0)
	for _, ev := range events[1:] {
		if ev.Ts < last {
			t.Errorf("timestamps go backwards at %q", ev.Name)
		}
		last = ev.Ts
		if ev.Ph == "B" {
			depth++
		} else {
			depth--
		}
		if depth < 0 {
			t.Fatalf("E without B at %q", ev.Name)
		}
	}
	if depth != 0 || len(events) != 1+2*len(tr.spans) {
		t.Errorf("unbalanced trace: depth %d, %d events for %d spans", depth, len(events), len(tr.spans))
	}
}

func TestSeededSequences(t *testing.T) {
	seq := func(seed int64) ([]int, []int) {
		rng := rand.New(rand.NewSource(seed))
		return rng.Perm(len(cellOps())), hotSequence(rng, len(serveRequests()), 1000)
	}
	order1, hot1 := seq(1)
	order1b, hot1b := seq(1)
	order2, hot2 := seq(2)
	if !reflect.DeepEqual(order1, order1b) || !reflect.DeepEqual(hot1, hot1b) {
		t.Error("equal seeds gave different sequences")
	}
	if reflect.DeepEqual(order1, order2) || reflect.DeepEqual(hot1, hot2) {
		t.Error("different seeds gave the same sequence")
	}
	seen := map[string]bool{}
	for _, rq := range serveRequests() {
		if seen[rq.url] {
			t.Errorf("duplicate key %s", rq.url)
		}
		seen[rq.url] = true
	}
}

func TestResultRoundTrip(t *testing.T) {
	r := &result{
		Schema: resultSchema, Machine: machine{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Kernel: "6.1", RAMMB: 15000},
		Seed: 7, Reps: 3,
		Workloads: []workloadResult{{
			Name: "cells_cold", Reps: 3, Attempted: 240, Metrics: map[string]metric{"wall_s": summarize("s", []float64{29.1, 28.7, 30.2})},
			Observed:     map[string]layerMetric{"profcache.warm_misses": {Value: 5, Unit: "count", Exact: true}},
			OutputSHA256: "abc",
		}},
		Layers: &layerResult{
			Metrics:    map[string]layerMetric{"gpu.warp_instrs": {Value: 7028062, Unit: "count", Exact: true}},
			SelfTimeMs: map[string]float64{"gpu.launch": 3243.4},
			Cells:      []cellShare{{Cell: "instr/bfs/scale1", WallMs: 734.5, AttributedPct: 99.9}},
			Spans:      952,
		},
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResult(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, r)
	}
	if m := got.Workloads[0].Metrics["wall_s"]; m.N != 3 || m.Median != 29.1 || m.Min != 28.7 || m.Max != 30.2 {
		t.Errorf("summary = %+v", m)
	}
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readResult(path); err == nil {
		t.Error("a foreign schema was accepted")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower"}
	higher := metricSpec{Name: "serve_hot_rps", Better: "higher"}
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01} }
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight(10), tight(10.2), verdictOK},
		{"faster", lower, tight(10), tight(7), verdictOK},
		{"slower beyond bound", lower, tight(10), tight(13), verdictRegressed},
		{"slower inside bound", lower, tight(10), tight(12), verdictOK},
		{"noisy parent", lower, []float64{6, 10, 16}, tight(10), verdictUnresolved},
		{"noisy change", lower, tight(10), []float64{6, 10, 16}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{6, 10, 16}, tight(5), verdictOK},
		{"rate fell", higher, tight(5000), tight(3500), verdictRegressed},
		{"rate rose", higher, tight(5000), tight(9000), verdictOK},
		{"noisy rate, every run better", higher, []float64{3000, 5000, 8000}, tight(9000), verdictOK},
	} {
		if got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(wall float64, sha string, warmMisses float64) *result {
		return &result{Schema: resultSchema, Workloads: []workloadResult{{
			Name: "figs_cached", Metrics: map[string]metric{"wall_s": summarize("s", []float64{wall * 0.99, wall, wall * 1.01})},
			Observed:     map[string]layerMetric{"profcache.warm_misses": {Value: warmMisses, Unit: "count", Exact: true}},
			OutputSHA256: sha,
		}}}
	}
	var out bytes.Buffer
	if !compareResults(&out, mk(18, "s", 0), mk(18.5, "s", 0)) {
		t.Errorf("equal runs did not compare clean:\n%s", out.String())
	}
	for name, b := range map[string]*result{
		"regressed":     mk(25, "s", 0),
		"output_sha256": mk(18, "other", 0),
		"warm_misses":   mk(18, "s", 3),
	} {
		out.Reset()
		if compareResults(&out, mk(18, "s", 0), b) || !strings.Contains(out.String(), name) {
			t.Errorf("%s: not reported:\n%s", name, out.String())
		}
	}
}

func TestSplitGolden(t *testing.T) {
	doc := "=== Figure 4: reuse ===\nf4\n=== Figure 5: kepler ===\nk\n=== Figure 5: pascal ===\np\n=== Table 3: bd ===\nt3\n" +
		"=== Figure 6: x ===\nf6\n=== Figure 7: y ===\nf7\n=== Figure 8: code ===\nc\n=== Figure 9: data ===\nd\n"
	got := splitGolden([]byte(doc))
	for cmd, want := range map[string]string{
		"figure4":    "=== Figure 4: reuse ===\nf4\n",
		"figure5":    "=== Figure 5: kepler ===\nk\n=== Figure 5: pascal ===\np\n",
		"table3":     "=== Table 3: bd ===\nt3\n",
		"figure7":    "=== Figure 7: y ===\nf7\n",
		"debugviews": "=== Figure 8: code ===\nc\n=== Figure 9: data ===\nd\n",
	} {
		if string(got[cmd]) != want {
			t.Errorf("%s section = %q, want %q", cmd, got[cmd], want)
		}
	}
}

func TestParseCacheStats(t *testing.T) {
	got, err := parseCacheStats([]byte("cache: 20 requests, 3 memo hits, 4 disk hits, 13 misses, 0 bad entries, 13 stores, 0 store errors, 0 evictions, 0 heals\n"))
	if err != nil || got != (cacheCounts{requests: 20, hits: 7, misses: 13}) {
		t.Errorf("parseCacheStats = %+v, %v", got, err)
	}
	if _, err := parseCacheStats([]byte("cache: off\n")); err == nil {
		t.Error("a run without a cache summary was accepted")
	}
}

// The end-to-end numbers must survive any refactor of the packages they
// measure, so only the traced pass may import them.
func TestEndToEndDriverImportsNoInternals(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if path == "layers.go" || strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "cudaadvisor/") {
				t.Errorf("%s imports %s; only layers.go may import the packages under test", path, imp.Path.Value)
			}
		}
	}
}

// BENCHMARK.json repeats the metric and workload tables for the driver;
// it must not drift from the ones the program uses.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var want []entry
	for _, w := range workloads {
		want = append(want, entry{Name: w.name, Why: w.why})
	}
	if !reflect.DeepEqual(doc.Workloads, want) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", doc.Workloads, want)
	}
	want = nil
	for _, s := range endToEnd {
		if s.forDriver() {
			bound := regressionBound
			want = append(want, entry{Name: s.Name, Unit: s.Unit, Better: s.Better, Bound: &bound})
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, want) {
		t.Errorf("end_to_end differs from the metrics every workload reports")
	}
	want = nil
	for _, s := range perLayer {
		want = append(want, entry{Name: s.Name, Unit: s.Unit, Better: s.Better})
	}
	if !reflect.DeepEqual(doc.PerLayer, want) {
		t.Errorf("per_layer differs from perLayer")
	}
}
