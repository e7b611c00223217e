package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a change's values (b) with its parent's (a). The
// change regresses when its median is worse than the parent's by more
// than bound. When either side's own run-to-run spread is wider than
// the bound the medians cannot settle it: the row is unresolved, unless
// every run of the change reads better than every run of the parent.
func judge(spec metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / math.Abs(ma)
	allBetter := maxOf(b) < minOf(a)
	if spec.Better == "higher" {
		worse = -worse
		allBetter = minOf(b) > maxOf(a)
	}
	switch {
	case (spread(a) > regressionBound || spread(b) > regressionBound) && !allBetter:
		return verdictUnresolved
	case worse > regressionBound:
		return verdictRegressed
	}
	return verdictOK
}

// compareResults prints one row per (metric, workload) pair both files
// have, then what differs among the counts that must repeat exactly. It
// reports whether no row regressed or stayed unresolved and no exact
// value moved.
func compareResults(w io.Writer, a, b *result) bool {
	clean := true
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %9s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-14s missing from B\n", wa.Name)
			clean = false
			continue
		}
		for _, spec := range endToEnd {
			ma, okA := wa.Metrics[spec.Name]
			mb, okB := wb.Metrics[spec.Name]
			if !okA || !okB {
				continue
			}
			verdict := judge(spec, ma.Values, mb.Values)
			if verdict != verdictOK {
				clean = false
			}
			fmt.Fprintf(w, "%-14s %-20s %12.4f %12.4f %8.3fx %5.0f%%  %s\n",
				wa.Name, spec.Name, ma.Median, mb.Median, mb.Median/ma.Median, regressionBound*100, verdict)
		}
		// fail_ratio has no tolerance: any failure is a regression.
		if wb.Failed > 0 {
			fmt.Fprintf(w, "%-14s %-20s %12.4f %12.4f %9s %5.0f%%  %s\n", wa.Name, "fail_ratio", wa.FailRatio, wb.FailRatio, "", 0.0, verdictRegressed)
			clean = false
		}
		if wa.OutputSHA256 != wb.OutputSHA256 {
			fmt.Fprintf(w, "%-14s output_sha256 differs: %s -> %s\n", wa.Name, wa.OutputSHA256, wb.OutputSHA256)
			clean = false
		}
		clean = diffExact(w, wa.Name, wa.Observed, wb.Observed) && clean
	}
	if a.Layers != nil && b.Layers != nil {
		clean = diffExact(w, "traced pass", a.Layers.Metrics, b.Layers.Metrics) && clean
		fmt.Fprintf(w, "%-32s %14s %14s %9s\n", "layer metric (informational)", "A", "B", "B/A")
		for _, k := range sortedKeys(a.Layers.Metrics) {
			ma, mb := a.Layers.Metrics[k], b.Layers.Metrics[k]
			if !ma.Exact {
				fmt.Fprintf(w, "%-32s %14.4f %14.4f %8.3fx\n", k, ma.Value, mb.Value, mb.Value/ma.Value)
			}
		}
	}
	return clean
}

// diffExact lists the exact-count metrics whose value differs.
func diffExact(w io.Writer, where string, a, b map[string]layerMetric) bool {
	same := true
	for _, k := range sortedKeys(a) {
		if ma, mb := a[k], b[k]; ma.Exact && ma.Value != mb.Value {
			fmt.Fprintf(w, "%-14s exact count %s differs: %v -> %v\n", where, k, ma.Value, mb.Value)
			same = false
		}
	}
	return same
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	if !compareResults(w, a, b) {
		return 1
	}
	return 0
}
