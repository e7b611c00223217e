package profiler

import (
	"testing"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/rt"
)

// boundedSrc generates plenty of memory and block events: each of 256
// threads loads and stores one element.
const boundedSrc = `
module bnd
kernel @work(%p: ptr, %n: i32) {
entry:
  %tx = sreg tid.x
  %bx = sreg ctaid.x
  %bd = sreg ntid.x
  %b  = mul i32 %bx, %bd
  %i  = add i32 %b, %tx
  %c  = icmp lt i32 %i, %n
  cbr %c, body, exit
body:
  %a = gep %p, %i, 4
  %v = ld f32 global [%a]
  st f32 global [%a], %v
  br exit
exit:
  ret
}
`

func runBounded(t *testing.T, cap int) (*Profiler, *KernelProfile) {
	t.Helper()
	m, err := irtext.Parse("bnd.mir", boundedSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := instrument.Instrument(m, instrument.MemoryAndBlocks())
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	p.TraceCap = cap
	cfg := gpu.KeplerK40c()
	cfg.SMs = 2
	ctx := rt.NewContext(gpu.NewDevice(cfg, 1<<20), p)
	const n = 256
	d, err := ctx.CudaMalloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Launch(prog, "work", rt.Dim(4), rt.Dim(64), rt.Ptr(d), rt.I32(n)); err != nil {
		t.Fatal(err)
	}
	return p, p.Kernels[0]
}

// TestProfilerUnboundedByDefault: without a cap the trace records every
// event exactly as before the bounded-buffer work (the golden-output
// guarantee).
func TestProfilerUnboundedByDefault(t *testing.T) {
	_, kp := runBounded(t, 0)
	rec, seen := kp.Trace.MemCoverage()
	if rec != seen || rec == 0 {
		t.Errorf("unbounded trace coverage = %d/%d, want complete and non-empty", rec, seen)
	}
	if kp.Trace.MemSampleN > 1 || kp.Trace.BlockSampleN > 1 {
		t.Errorf("unbounded trace engaged sampling: mem N=%d block N=%d",
			kp.Trace.MemSampleN, kp.Trace.BlockSampleN)
	}
}

// TestProfilerTraceCapSamples: a cap engages per-warp sampling — the
// buffer respects the cap and the coverage is partial.
func TestProfilerTraceCapSamples(t *testing.T) {
	_, full := runBounded(t, 0)
	_, fullSeen := full.Trace.MemCoverage()

	const cap = 4
	_, kp := runBounded(t, cap)
	rec, seen := kp.Trace.MemCoverage()
	if seen != fullSeen {
		t.Errorf("bounded run saw %d events, unbounded saw %d — Seen must count every offer", seen, fullSeen)
	}
	if rec >= seen {
		t.Errorf("coverage = %d/%d, want a partial (sampled) profile", rec, seen)
	}
	if kp.Trace.MemSampleN < 2 {
		t.Errorf("MemSampleN = %d, want sampling engaged", kp.Trace.MemSampleN)
	}
	// The soft cap: the buffer may exceed the cap only by the compaction
	// slack, never unboundedly.
	if got := len(kp.Trace.Mem); got > 2*cap {
		t.Errorf("bounded mem buffer holds %d records, cap %d", got, cap)
	}
}
