package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/export"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/trace"
)

// exportRequest decodes one `export` request the way a transport does.
func exportRequest(app, format, weight string) (*Request, error) {
	params := map[string]string{"app": app, "format": format, "weight": weight}
	return NewRequest("export", func(name string) string { return params[name] }, nil)
}

// renderExport renders one export request under env, failing on error.
func renderExport(t *testing.T, env Env, app, format, weight string) []byte {
	t.Helper()
	req, err := exportRequest(app, format, weight)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := req.Write(&buf, env); err != nil {
		t.Fatalf("export %s %s/%s: %v", app, format, weight, err)
	}
	return buf.Bytes()
}

// profileApp reruns the app's profiling cell exactly the way the export
// path does, for the independent side of the differential checks.
func profileApp(t *testing.T, env Env, app string) *profiler.Profiler {
	t.Helper()
	p, err := env.profileCell(context.Background(), "test/"+app,
		apps.ByName(app), gpu.KeplerK40c(), instrument.MemoryAndBlocks())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFoldedTotalsReconcile is the differential harness for the folded
// weights: for each weight, re-aggregating the folded document must
// reproduce the profile aggregate exactly. The exporter reads the lines
// and divergence weights out of the analysis bundle, so comparing with
// the bundle would compare a table with itself: the wanted totals are
// recounted here record by record (the loop the exporter used to carry),
// once on complete traces and once on a -trace-cap sample, where the
// weights must be the raw recorded counts.
func TestFoldedTotalsReconcile(t *testing.T) {
	lineSize := gpu.KeplerK40c().L1LineSize
	nonzero := map[string]bool{}
	for _, tc := range []struct {
		traceCap int
		apps     []string
	}{{0, []string{"backprop", "bfs", "nn", "nw"}}, {100, []string{"bfs"}}} {
		env := Env{Scale: 1, TraceCap: tc.traceCap}
		for _, app := range tc.apps {
			p := profileApp(t, env, app)
			want := map[string]int64{}
			var addrs [trace.WarpSize]uint64
			for _, kp := range p.Kernels {
				if kp.Result != nil {
					want[export.WeightCycles] += kp.Result.Cycles
				}
				for i := range kp.Trace.Mem {
					if m := &kp.Trace.Mem[i]; m.Space == ir.Global {
						kp.Trace.LaneAddrs(m, &addrs)
						want[export.WeightLines] += int64(min(gpu.UniqueLines(m.Mask, &addrs, int(m.Bits)/8, lineSize), gpu.WarpSize))
					}
				}
				for _, be := range kp.Trace.Blocks {
					if be.Divergent() {
						want[export.WeightDivergence]++
					}
				}
				for _, s := range analysis.NaiveReuseBySite(kp.Trace, analysis.DefaultElementReuse()) {
					want[export.WeightReuse] += s.Reused
				}
			}
			an := p.Analyses(lineSize)
			if md, bd := an.MemDiv().WeightedSum, an.BranchDiv().Divergent; md != want[export.WeightLines] || bd != want[export.WeightDivergence] {
				t.Errorf("%s cap %d: analyses total %d lines, %d divergent; recounted %d, %d", app, tc.traceCap,
					md, bd, want[export.WeightLines], want[export.WeightDivergence])
			}

			for _, weight := range export.Weights {
				doc := renderExport(t, env, app, "folded", weight)
				if sampled := bytes.HasPrefix(doc, []byte("# [sampled]")); sampled != (tc.traceCap > 0) {
					t.Errorf("%s/%s cap %d: [sampled] header present = %v", app, weight, tc.traceCap, sampled)
				}
				got, err := export.SumFolded(doc)
				if err != nil {
					t.Fatalf("%s/%s: %v", app, weight, err)
				}
				if got != want[weight] {
					t.Errorf("%s/%s cap %d: folded total %d, recounted aggregate %d (must reconcile exactly)",
						app, weight, tc.traceCap, got, want[weight])
				}
				if want[weight] != 0 {
					nonzero[weight] = true
				}
			}
		}
	}
	// Zero-equals-zero proves nothing: every weight must reconcile a
	// nonzero aggregate on at least one of the apps above.
	for _, w := range export.Weights {
		if !nonzero[w] {
			t.Errorf("weight %s never saw a nonzero aggregate across the test apps", w)
		}
	}
}

// TestChromeTraceValidAllApps runs the strict structural validator over
// the Chrome-trace export of every registered application: decodable
// with no unknown fields, B/E balanced per track, timestamps monotone.
func TestChromeTraceValidAllApps(t *testing.T) {
	env := Env{Scale: 1}
	for _, app := range apps.TableOrder {
		doc := renderExport(t, env, app, "chrome", "")
		if err := export.ValidateChrome(doc); err != nil {
			t.Errorf("%s: %v", app, err)
		}
	}
}

// TestExportSampledTraceCap: a -trace-cap truncated profile exports with
// the [sampled] annotation, and its weights stay the raw recorded sample
// — reconciling with the analyses over the same capped trace, never
// rescaled toward the full run.
func TestExportSampledTraceCap(t *testing.T) {
	env := Env{Scale: 1}
	env.TraceCap = 100
	doc := renderExport(t, env, "bfs", "folded", export.WeightLines)
	if !bytes.HasPrefix(doc, []byte("# [sampled]")) {
		t.Fatalf("capped export lacks the [sampled] header:\n%.200s", doc)
	}
	if !strings.Contains(string(doc), "not rescaled") {
		t.Errorf("sampled header does not state the no-rescaling contract:\n%.200s", doc)
	}

	got, err := export.SumFolded(doc)
	if err != nil {
		t.Fatal(err)
	}
	p := profileApp(t, env, "bfs")
	want := p.Analyses(gpu.KeplerK40c().L1LineSize).MemDiv().WeightedSum
	if got != want {
		t.Errorf("sampled folded total %d != capped-profile aggregate %d (weights must not be rescaled)", got, want)
	}

	full := Env{Scale: 1}
	fullTotal, err := export.SumFolded(renderExport(t, full, "bfs", "folded", export.WeightLines))
	if err != nil {
		t.Fatal(err)
	}
	if got >= fullTotal {
		t.Errorf("sampled total %d >= full total %d: the cap did not truncate", got, fullTotal)
	}

	// The Chrome export marks sampled kernels too.
	chrome := renderExport(t, env, "bfs", "chrome", "")
	if !strings.Contains(string(chrome), `"sampled":"true"`) {
		t.Errorf("capped Chrome trace lacks the sampled kernel annotation")
	}
}

// TestExportCacheViewZeroMisses: export renders cache as profcache view
// entries — a warm rerun of every format and weight is pure cache reads
// (0 misses), byte-identical to the cold render and to the uncached one.
func TestExportCacheViewZeroMisses(t *testing.T) {
	uncached := map[string][]byte{}
	reqs := [][2]string{{"chrome", ""}}
	for _, w := range export.Weights {
		reqs = append(reqs, [2]string{"folded", w})
	}
	for _, r := range reqs {
		uncached[r[0]+"/"+r[1]] = renderExport(t, Env{Scale: 1}, "bfs", r[0], r[1])
	}

	dir := t.TempDir()
	cold := Env{Scale: 1}
	cold.Cache = profcache.New(dir)
	for _, r := range reqs {
		if got := renderExport(t, cold, "bfs", r[0], r[1]); !bytes.Equal(got, uncached[r[0]+"/"+r[1]]) {
			t.Errorf("cold cached %s/%s differs from uncached", r[0], r[1])
		}
	}
	if s := cold.Cache.Stats(); s.Misses == 0 || s.Stores != s.Misses {
		t.Errorf("cold stats %+v: every view entry must miss then store", s)
	}

	warm := Env{Scale: 1}
	warm.Cache = profcache.New(dir)
	for _, r := range reqs {
		if got := renderExport(t, warm, "bfs", r[0], r[1]); !bytes.Equal(got, uncached[r[0]+"/"+r[1]]) {
			t.Errorf("warm cached %s/%s differs from uncached", r[0], r[1])
		}
	}
	if s := warm.Cache.Stats(); s.Misses != 0 || s.BadEntries != 0 || s.DiskHits != int64(len(reqs)) {
		t.Errorf("warm stats %+v: want %d disk hits and 0 misses", s, len(reqs))
	}
}

// TestExportRequestValidation: malformed requests fail at decoding,
// before any simulator work, with messages naming the valid sets.
func TestExportRequestValidation(t *testing.T) {
	if _, err := exportRequest("bfs", "svg", ""); err == nil || !strings.Contains(err.Error(), `unknown export format "svg"`) {
		t.Errorf("bad format err = %v", err)
	}
	if _, err := exportRequest("bfs", "folded", "bytes"); err == nil || !strings.Contains(err.Error(), `unknown export weight "bytes"`) {
		t.Errorf("bad weight err = %v", err)
	}
	// The weight is a folded-only parameter.
	if _, err := exportRequest("bfs", "chrome", "bytes"); err != nil {
		t.Errorf("chrome request with an unused weight: %v", err)
	}
}
