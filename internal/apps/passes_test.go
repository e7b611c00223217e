package apps

import (
	"testing"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/pass"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/rt"
)

// TestUtilityPassesPreserveBehavior runs constant folding and DCE over
// each application's device code and re-runs the driver, whose built-in
// validation against the Go reference catches any semantic change. The
// shared ir.Eval* semantics make this hold by construction; this test
// keeps it that way.
func TestUtilityPassesPreserveBehavior(t *testing.T) {
	for _, name := range []string{"bicg", "nn", "nw", "hotspot"} {
		t.Run(name, func(t *testing.T) {
			a := ByName(name)
			m, err := a.Module()
			if err != nil {
				t.Fatal(err)
			}
			pm := pass.NewManager(pass.ConstFold(), pass.DCE())
			if err := pm.Run(m); err != nil {
				t.Fatalf("passes: %v", err)
			}
			ctx := rt.NewContext(gpu.NewDevice(gpu.KeplerK40c(), 256<<20), nil)
			if err := a.Run(ctx, instrument.NativeProgram(m), 1); err != nil {
				t.Fatalf("validation after passes: %v", err)
			}
		})
	}
}

// TestInstrumentationPreservesBehavior runs every application fully
// instrumented (memory + blocks + arithmetic + call bracketing) and lets
// the drivers' reference validation prove the rewrite is transparent.
func TestInstrumentationPreservesBehavior(t *testing.T) {
	for _, name := range []string{"backprop", "srad_v2", "lavaMD"} {
		t.Run(name, func(t *testing.T) {
			a := ByName(name)
			// hooks runs a under opts and returns its launches' hook calls.
			hooks := func(opts instrument.Options) int64 {
				prog, err := a.Instrumented(opts)
				if err != nil {
					t.Fatal(err)
				}
				p := profiler.New()
				ctx := rt.NewContext(gpu.NewDevice(gpu.KeplerK40c(), 256<<20), p)
				if err := a.Run(ctx, prog, 1); err != nil {
					t.Fatalf("validation under %+v: %v", opts, err)
				}
				var n int64
				for _, kp := range p.Kernels {
					n += kp.Result.HookCalls
				}
				return n
			}
			full := hooks(instrument.Options{Memory: true, Blocks: true, Arith: true})
			// The arithmetic category actually fired hooks.
			if base := hooks(instrument.MemoryAndBlocks()); full <= base {
				t.Errorf("%d hook calls with arithmetic instrumented, %d without", full, base)
			}
		})
	}
}

// TestAppSourcesRoundTrip print-parses every application's device code:
// the printer and parser must agree on the whole kernel corpus.
func TestAppSourcesRoundTrip(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			m1, err := a.Module()
			if err != nil {
				t.Fatal(err)
			}
			if err := m1.Finalize(); err != nil {
				t.Fatal(err)
			}
			text1 := ir.Print(m1)
			m2, err := irtext.Parse("roundtrip.mir", text1)
			if err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			if text2 := ir.Print(m2); text1 != text2 {
				t.Error("print/parse round trip not stable")
			}
			if err := ir.Verify(m2); err != nil {
				t.Fatalf("round-tripped module invalid: %v", err)
			}
		})
	}
}

// TestAppsRunOnPascal exercises every driver on the second architecture
// configuration (different SM count, line size, cache geometry).
func TestAppsRunOnPascal(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			prog, err := a.Native()
			if err != nil {
				t.Fatal(err)
			}
			ctx := rt.NewContext(gpu.NewDevice(gpu.PascalP100(), 256<<20), nil)
			if err := a.Run(ctx, prog, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAppsScaleTwo runs the drivers at the bypass-study scale to keep
// that configuration healthy too.
func TestAppsScaleTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-2 runs are slower; skipped in -short")
	}
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			prog, err := a.Native()
			if err != nil {
				t.Fatal(err)
			}
			ctx := rt.NewContext(gpu.NewDevice(gpu.KeplerK40c(), 512<<20), nil)
			if err := a.Run(ctx, prog, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
}
