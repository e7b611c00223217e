package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// runInjected runs one subcommand (and its arguments, space-separated)
// with keep-going injection at the given worker count and returns
// (stdout, exit code).
func runInjected(t *testing.T, cmd, spec string, j int) (string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{
		"-j", fmt.Sprint(j), "-keep-going", "-inject", spec,
	}, strings.Fields(cmd)...), &stdout, &stderr)
	if stderr.Len() == 0 && code != 0 {
		t.Fatalf("%s -j %d: exit %d with empty stderr", cmd, j, code)
	}
	return stdout.String(), code
}

// TestKeepGoingInjectionDeterministic pins the resilience acceptance
// criteria on the deterministic figures (figure10 reports wall-clock
// seconds, so it is exercised separately): with fault injection enabled
// and -keep-going, every figure completes, exactly the injured cells are
// annotated, the exit status is non-zero, and the output is
// byte-identical at -j 1 and -j 8.
func TestKeepGoingInjectionDeterministic(t *testing.T) {
	for _, tc := range []struct {
		cmd        string
		spec       string
		annotated  []string // substrings that must appear in a failed-cell line
		mustRender []string // healthy output that must still be present
	}{
		{
			// One worker panic: the rest of the figure renders around it.
			cmd:        "figure4",
			spec:       "seed=7,panic=figure4/hotspot",
			annotated:  []string{"figure4/hotspot [cell failed:", "injected panic"},
			mustRender: []string{"reuse distance: backprop", "reuse distance: syrk"},
		},
		{
			// A hook error early in every cell: the injected error must
			// surface as a *gpu.Fault at the hook's location and every
			// row degrades to its annotation, same text at every -j.
			cmd:        "table3",
			spec:       "seed=7,hookerr=3",
			annotated:  []string{"[cell failed:", "injected hook error", "gpu fault in kernel"},
			mustRender: []string{"=== Table 3: branch divergence ==="},
		},
		{
			// A device-allocation failure in the single debugviews cell.
			cmd:        "debugviews",
			spec:       "seed=7,allocfail=2",
			annotated:  []string{"debugviews/bfs [cell failed:", "injected allocator failure"},
			mustRender: []string{"=== Figures 8/9"},
		},
		{
			// A worker panic in the single advise cell: the annotation is
			// the whole output, labelled like every other view command's.
			cmd:       "advise nn",
			spec:      "seed=7,panic=advise",
			annotated: []string{"advise/kepler-k40c/nn [cell failed: job 0 panicked", "injected panic"},
		},
	} {
		t.Run(tc.cmd, func(t *testing.T) {
			serial, code := runInjected(t, tc.cmd, tc.spec, 1)
			if code != 1 {
				t.Errorf("-j 1 exit = %d, want 1 (injured cells must fail the run)", code)
			}
			for _, want := range append(tc.annotated, tc.mustRender...) {
				if !strings.Contains(serial, want) {
					t.Errorf("output missing %q:\n%s", want, serial)
				}
			}
			// An annotation names its cell once, as the label — never
			// again as a prefix of the cause.
			for _, line := range strings.Split(serial, "\n") {
				if cell, cause, ok := strings.Cut(line, " [cell failed: "); ok && strings.HasPrefix(cause, cell+": ") {
					t.Errorf("annotation names its cell twice: %s", line)
				}
			}
			parallel, code := runInjected(t, tc.cmd, tc.spec, 8)
			if code != 1 {
				t.Errorf("-j 8 exit = %d, want 1", code)
			}
			if parallel != serial {
				t.Errorf("injected %s output differs between -j 1 and -j 8:\n--- j1\n%s\n--- j8\n%s",
					tc.cmd, serial, parallel)
			}
		})
	}
}

// TestKeepGoingOffInjectionAborts: without -keep-going an injected
// failure aborts the figure with a plain error and no partial panel.
func TestKeepGoingOffInjectionAborts(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-inject", "seed=7,panic=figure4/hotspot", "figure4"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "injected panic") {
		t.Errorf("stderr should carry the injected panic, got:\n%s", stderr.String())
	}
	if strings.Contains(stdout.String(), "[cell failed:") {
		t.Errorf("fail-fast mode must not emit keep-going annotations:\n%s", stdout.String())
	}
}

// TestInjectSpecRejected: a malformed -inject spec is a usage error.
func TestInjectSpecRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-inject", "bogus=1", "figure4"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown key") {
		t.Errorf("stderr = %q, want the unknown-key parse error", stderr.String())
	}
}

// TestTraceCapAnnotatesCoverage: a global trace cap degrades table3 to a
// sampled profile whose rows carry the coverage annotation, while the
// run itself stays healthy — partial results, zero exit.
func TestTraceCapAnnotatesCoverage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trace-cap", "1024", "table3"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[sampled:") {
		t.Errorf("capped table3 should annotate sampled coverage:\n%s", stdout.String())
	}
	var full bytes.Buffer
	if code := run([]string{"table3"}, &full, &stderr); code != 0 {
		t.Fatalf("uncapped table3 exit = %d", code)
	}
	if strings.Contains(full.String(), "[sampled:") {
		t.Errorf("uncapped table3 must not carry sampling annotations:\n%s", full.String())
	}
}
