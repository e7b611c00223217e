package report

import (
	"strings"
	"testing"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/bypass"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/trace"
)

func TestReuseHistogramRendering(t *testing.T) {
	r := &analysis.ReuseResult{Samples: 100, Infinite: 60}
	r.Buckets[0] = 40
	r.Buckets[analysis.NumReuseBuckets-1] = 60
	var sb strings.Builder
	ReuseHistogram(&sb, "demo", r)
	out := sb.String()
	for _, want := range []string{"demo", "40.00%", "60.00%", "inf", ">512"} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
}

func TestMemDivDistributionSkipsEmptyRows(t *testing.T) {
	r := &analysis.MemDivResult{LineSize: 128, Total: 10, WeightedSum: 10}
	r.Dist[1] = 10
	var sb strings.Builder
	MemDivDistribution(&sb, "demo", r)
	out := sb.String()
	if !strings.Contains(out, " 1 lines") {
		t.Errorf("missing populated row:\n%s", out)
	}
	if strings.Contains(out, " 2 lines") {
		t.Errorf("empty row rendered:\n%s", out)
	}
	if !strings.Contains(out, "degree 1.00") {
		t.Errorf("degree missing:\n%s", out)
	}
}

func TestBranchDivTable(t *testing.T) {
	rows := []BranchRow{
		{App: "nw", Result: &analysis.BranchDivResult{Divergent: 147875, Total: 212992}},
		{App: "bicg", Result: &analysis.BranchDivResult{Divergent: 0, Total: 1256}},
	}
	var sb strings.Builder
	BranchDivTable(&sb, rows)
	out := sb.String()
	if !strings.Contains(out, "69.43%") {
		t.Errorf("nw percentage wrong:\n%s", out)
	}
	if !strings.Contains(out, "0.00%") {
		t.Errorf("bicg percentage wrong:\n%s", out)
	}
}

// TestSampledSectionsSayWhatTheyRead: a profile section whose trace
// fell back to sampling carries the coverage note that every other
// section does, and a complete one carries none.
func TestSampledSectionsSayWhatTheyRead(t *testing.T) {
	sampled := analysis.Events{EventsRecorded: 5311, EventsSeen: 7903}
	for _, c := range []struct {
		name   string
		render func(*strings.Builder, analysis.Events)
	}{
		{"branch", func(sb *strings.Builder, e analysis.Events) {
			BranchDivergence(sb, &analysis.BranchDivResult{Divergent: 864, Total: 5311, Events: e})
		}},
		{"shared", func(sb *strings.Builder, e analysis.Events) {
			SharedMem(sb, &analysis.SharedBankResult{Total: 10, Events: e}, nil)
		}},
	} {
		var full, part strings.Builder
		c.render(&full, analysis.Events{EventsRecorded: 7903, EventsSeen: 7903})
		c.render(&part, sampled)
		first := func(s string) string { return s[:strings.IndexByte(s, '\n')] }
		if got, want := first(part.String()), first(full.String())+" [sampled: 67.2% of events]"; got != want {
			t.Errorf("%s: sampled line = %q, want %q", c.name, got, want)
		}
		if strings.Contains(full.String(), "sampled") {
			t.Errorf("%s: a complete profile reads as sampled:\n%s", c.name, full.String())
		}
	}
}

// TestSharedMemRacesInSiteOrder: the races print in site order, whatever
// order the map hands them out in.
func TestSharedMemRacesInSiteOrder(t *testing.T) {
	races := map[ir.Loc]int64{
		{File: "k.mir", Line: 9}: 3, {File: "k.mir", Line: 2}: 5, {File: "a.mir", Line: 40}: 1,
	}
	var sb strings.Builder
	SharedMem(&sb, &analysis.SharedBankResult{}, races)
	want := `shared memory: 0 warp accesses, average bank-conflict degree 0.00
  RACE at a.mir:40:0: 1 lane reads hit another thread's same-interval write
  RACE at k.mir:2:0: 5 lane reads hit another thread's same-interval write
  RACE at k.mir:9:0: 3 lane reads hit another thread's same-interval write
`
	if sb.String() != want {
		t.Errorf("shared memory view:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestBypassComparisonTable(t *testing.T) {
	rows := []bypass.Comparison{{
		App: "syrk", L1Bytes: 16 * 1024,
		BaselineCycles: 1000, OracleCycles: 770, OracleWarps: 6,
		PredictCycles: 820, PredictWarps: 4,
	}}
	var sb strings.Builder
	BypassComparison(&sb, rows)
	out := sb.String()
	for _, want := range []string{"syrk", "16KB", "0.770", "0.820"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q:\n%s", want, out)
		}
	}
}

func TestOverheadTable(t *testing.T) {
	rows := []OverheadRow{
		{App: "bfs", Arch: "kepler-k40c", Native: 50_000, Profiled: 500_000},
	}
	if got := rows[0].Slowdown(); got != 10 {
		t.Errorf("slowdown = %g, want 10", got)
	}
	var sb strings.Builder
	OverheadTable(&sb, rows)
	if !strings.Contains(sb.String(), "500000") || !strings.Contains(sb.String(), "10.00x") {
		t.Errorf("overhead table wrong:\n%s", sb.String())
	}
	zero := OverheadRow{Native: 0, Profiled: 1}
	if zero.Slowdown() != 0 {
		t.Error("zero native time should yield zero slowdown")
	}
}

func TestBarClamps(t *testing.T) {
	if got := bar(-0.5); got != strings.Repeat(".", 40) {
		t.Errorf("bar(-0.5) = %q", got)
	}
	if got := bar(2); got != strings.Repeat("#", 40) {
		t.Errorf("bar(2) = %q", got)
	}
	if got := bar(0.5); got != strings.Repeat("#", 20)+strings.Repeat(".", 20) {
		t.Errorf("bar(0.5) = %q", got)
	}
}

func TestFormatPathIndent(t *testing.T) {
	s := indent(trace.FormatPath([]trace.Frame{{Func: "main"}}))
	if !strings.HasPrefix(s, "    CPU 0") {
		t.Errorf("indent wrong: %q", s)
	}
}
