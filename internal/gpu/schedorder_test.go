package gpu

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"cudaadvisor/internal/ir"
)

var update = flag.Bool("update", false, "rewrite golden files")

// schedOrderSrc is built to make the issue order observable: three warps
// per CTA meet at a barrier, odd and even lanes diverge into a strided
// (many-line, missing) load and a shared-memory read, a device call adds
// a frame, and a short loop re-reads a small window so hits and misses
// mix. Every phase raises a hook, so the (warp, cycle) stream pins which
// warp the scheduler picked at each slot.
const schedOrderSrc = `
module sched
func @twice(%x: f32): f32 {
entry:
  %y = fadd f32 %x, %x
  ret %y
}
kernel @k(%in: ptr, %out: ptr, %n: i32) {
  shared @tile: f32[96]
entry:
  %tx   = sreg tid.x
  %bx   = sreg ctaid.x
  %bd   = sreg ntid.x
  %base = mul i32 %bx, %bd
  %i    = add i32 %base, %tx
  call @__advisor_mark(%i, 0)
  %a    = gep %in, %i, 4
  %v    = ld f32 global [%a]
  %v2   = ld f32 global [%a]
  %s    = fadd f32 %v, %v2
  %tp   = shptr @tile
  %sa   = gep %tp, %tx, 4
  st f32 shared [%sa], %s
  bar
  call @__advisor_mark(%i, 1)
  %odd  = and i32 %tx, 1
  %c    = icmp eq i32 %odd, 1
  cbr %c, oddb, evenb
oddb:
  %j0   = mul i32 %i, 37
  %j    = srem i32 %j0, %n
  %ja   = gep %in, %j, 4
  %jv   = ld f32 global [%ja]
  call @__advisor_mark(%j, 2)
  %r    = mov f32 %jv
  br join
evenb:
  %t1   = add i32 %tx, 1
  %nb   = srem i32 %t1, %bd
  %sb   = gep %tp, %nb, 4
  %sv   = ld f32 shared [%sb]
  call @__advisor_mark(%nb, 3)
  %r    = call @twice(%sv)
  br join
join:
  %k    = mov i32 0
  %acc  = mov f32 %r
  br loop
loop:
  %lc   = icmp lt i32 %k, 3
  cbr %lc, body, done
body:
  %w0   = mul i32 %k, 8
  %w1   = add i32 %w0, %tx
  %w2   = srem i32 %w1, %n
  %wa   = gep %in, %w2, 4
  %wv   = ld f32 global [%wa]
  %acc  = fadd f32 %acc, %wv
  %k    = add i32 %k, 1
  br loop
done:
  %o    = gep %out, %i, 4
  st f32 global [%o], %acc
  call @__advisor_mark(%i, 4)
  ret
}
`

// orderRecorder renders every hook event as one line.
type orderRecorder struct{ buf bytes.Buffer }

func (r *orderRecorder) OnHook(w *WarpView, call *ir.Instr, args []*LaneValues) error {
	h := fnv.New64a()
	for lane := 0; lane < WarpSize; lane++ {
		fmt.Fprintf(h, "%d,", args[0][lane])
	}
	fmt.Fprintf(&r.buf, "sm=%d cta=%d warp=%d phase=%d mask=%08x cycle=%d args=%016x\n",
		w.SM, w.CTALinear, w.WarpInCTA, args[1][bits.TrailingZeros32(w.ActiveMask)&31], w.ActiveMask, w.Cycle, h.Sum64())
	return nil
}

// runSchedOrder launches schedOrderSrc and renders the hook stream, the
// launch statistics and a checksum of the output buffer.
func runSchedOrder(t *testing.T, l1Warps, workers int) string {
	t.Helper()
	cfg := KeplerK40c()
	cfg.SMs = 2
	cfg.MaxCTAsPerSM = 2 // 7 CTAs over 2 SMs: admission and retirement interleave
	cfg.MSHRs = 8        // small enough that the strided loads stall on entries
	d := NewDevice(cfg, 1<<20)
	m := parseKernel(t, schedOrderSrc)
	const n = 7 * 96
	in, _ := d.Mem.Alloc(4 * n)
	out, _ := d.Mem.Alloc(4 * n)
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i%13) + 0.5
	}
	writeF32s(t, d, in, vals)
	rec := &orderRecorder{}
	p := LaunchParams{
		Grid: [3]int{7, 1, 1}, Block: [3]int{96, 1, 1},
		Args:  []uint64{in, out, ir.I32Bits(n)},
		Hooks: rec, L1WarpsPerCTA: l1Warps, RecordSchedule: true,
	}
	if workers > 1 {
		p.Pool = testPool(t, workers)
	}
	res, err := d.Launch(m.Func("k"), p)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 4*n)
	if err := d.Mem.ReadBytes(out, raw); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(raw)
	fmt.Fprintf(&rec.buf, "cycles=%d instrs=%d hooks=%d cache=%+v out=%016x\n",
		res.Cycles, res.WarpInstrs, res.HookCalls, res.Cache, h.Sum64())
	for _, s := range res.Schedule {
		fmt.Fprintf(&rec.buf, "sm=%d cycles=%d ctas=%v\n", s.SM, s.Cycles, s.CTAs)
	}
	return rec.buf.String()
}

// TestSchedulerOrderGolden pins the exact issue order — which warp runs
// at which cycle — against a stream recorded before the scheduler and
// executor were rewritten: greedy-then-oldest with admission-order ties
// is part of the model, and every cycle count downstream rides on it.
func TestSchedulerOrderGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		l1Warps int
	}{
		{"all_l1", -1},
		{"bypass_after_warp0", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runSchedOrder(t, tc.l1Warps, 1)
			path := filepath.Join("testdata", "sched_order_"+tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("issue order moved (run with -update only if the model changed on purpose)\n%s",
					firstDiff(string(want), got))
			}
			if par := runSchedOrder(t, tc.l1Warps, 4); par != got {
				t.Errorf("pooled launch differs from serial\n%s", firstDiff(got, par))
			}
		})
	}
}

// firstDiff renders the first line where two renderings part.
func firstDiff(want, got string) string {
	w, g := bytes.Split([]byte(want), []byte("\n")), bytes.Split([]byte(got), []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("line %d:\nwant %s\ngot  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}
