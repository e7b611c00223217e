package profiler_test

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"testing"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/runner"
	"cudaadvisor/internal/trace"
)

// orderedOnly hides every method of a hook sink but OnHook, which forces
// a launch through the ordered path whatever its pool.
type orderedOnly struct{ h gpu.Hooks }

func (o orderedOnly) OnHook(w *gpu.WarpView, call *ir.Instr, args []*gpu.LaneValues) error {
	return o.h.OnHook(w, call, args)
}

// orderedListener hands the executor the profiler's sink as an ordered one.
type orderedListener struct{ *profiler.Profiler }

func (l orderedListener) KernelLaunch(info *rt.LaunchInfo) (gpu.Hooks, error) {
	h, err := l.Profiler.KernelLaunch(info)
	if h == nil || err != nil {
		return h, err
	}
	if _, ok := h.(gpu.SMHooks); !ok {
		return nil, fmt.Errorf("an uncapped profiler's sink does not record per SM")
	}
	return orderedOnly{h}, nil
}

// testPool returns a pool of exactly workers workers (nil for none), raising
// GOMAXPROCS for the test when the machine has fewer cores.
func testPool(t *testing.T, workers int) *runner.Pool {
	t.Helper()
	if workers == 0 {
		return nil
	}
	if runtime.GOMAXPROCS(0) < workers {
		old := runtime.GOMAXPROCS(workers)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	p := runner.New(workers)
	if p.Workers() != workers {
		t.Fatalf("pool has %d workers, want %d", p.Workers(), workers)
	}
	return p
}

// profileApp runs app at scale 1 under a fresh profiler, through the
// ordered path when ordered is set.
func profileApp(t *testing.T, app *apps.App, cfg gpu.ArchConfig, opts instrument.Options, pool *runner.Pool, ordered bool) *profiler.Profiler {
	t.Helper()
	prog, err := app.Instrumented(opts)
	if err != nil {
		t.Fatal(err)
	}
	p := profiler.New()
	var l rt.Listener = p
	if ordered {
		l = orderedListener{p}
	}
	c := rt.NewContext(gpu.NewDevice(cfg, experiments.DefaultDeviceMem), l)
	c.Options = rt.LaunchOptions{Pool: pool, RecordSchedule: true}
	if err := app.Run(c, prog, 1); err != nil {
		t.Fatal(err)
	}
	return p
}

// sameProfiles reports the first difference between two runs' contexts
// and kernel profiles: every record with its lane addresses, the location
// tables and the launch results.
func sameProfiles(t *testing.T, want, got *profiler.Profiler) {
	t.Helper()
	if want.CCT.Len() != got.CCT.Len() {
		t.Fatalf("context tree has %d nodes, want %d", got.CCT.Len(), want.CCT.Len())
	}
	for id := int32(0); id < int32(want.CCT.Len()); id++ {
		if w, g := want.CCT.Path(id), got.CCT.Path(id); !reflect.DeepEqual(w, g) {
			t.Fatalf("context %d is %v, want %v", id, g, w)
		}
	}
	if len(want.Kernels) != len(got.Kernels) {
		t.Fatalf("%d kernel profiles, want %d", len(got.Kernels), len(want.Kernels))
	}
	for i, wk := range want.Kernels {
		gk := got.Kernels[i]
		sameTraces(t, fmt.Sprintf("kernel %d (%s)", i, wk.Info.Kernel), wk.Trace, gk.Trace)
		if !reflect.DeepEqual(wk.Result, gk.Result) {
			t.Fatalf("kernel %d: result %+v, want %+v", i, gk.Result, wk.Result)
		}
	}
}

func sameTraces(t *testing.T, what string, want, got *trace.KernelTrace) {
	t.Helper()
	if !reflect.DeepEqual(want.Mem, got.Mem) {
		t.Fatalf("%s: %d mem records differ from the ordered %d", what, len(got.Mem), len(want.Mem))
	}
	if !reflect.DeepEqual(want.Blocks, got.Blocks) {
		t.Fatalf("%s: %d block records differ from the ordered %d", what, len(got.Blocks), len(want.Blocks))
	}
	var wa, ga [trace.WarpSize]uint64
	for j := range want.Mem {
		want.LaneAddrs(&want.Mem[j], &wa)
		got.LaneAddrs(&got.Mem[j], &ga)
		for rest := want.Mem[j].Mask; rest != 0; rest &= rest - 1 {
			if l := bits.TrailingZeros32(rest); wa[l] != ga[l] {
				t.Fatalf("%s: record %d lane %d address %#x, want %#x", what, j, l, ga[l], wa[l])
			}
		}
	}
	if want.Locs.Len() != got.Locs.Len() {
		t.Fatalf("%s: %d locations, want %d", what, got.Locs.Len(), want.Locs.Len())
	}
	for id := int32(0); id < int32(want.Locs.Len()); id++ {
		if want.Locs.Loc(id) != got.Locs.Loc(id) {
			t.Fatalf("%s: location %d is %v, want %v", what, id, got.Locs.Loc(id), want.Locs.Loc(id))
		}
	}
	wr, ws := want.MemCoverage()
	gr, gs := got.MemCoverage()
	br, bs := want.BlocksCoverage()
	gbr, gbs := got.BlocksCoverage()
	if wr != gr || ws != gs || br != gbr || bs != gbs {
		t.Fatalf("%s: coverage %d/%d, %d/%d; want %d/%d, %d/%d", what, gr, gs, gbr, gbs, wr, ws, br, bs)
	}
}

// TestPerSMSinksMatchOrdered: a fanned-out profiled launch, every SM
// recording into its own fragment, leaves exactly the profile the ordered
// path leaves — on every application and architecture, with device calls
// (nn, nw) and the arithmetic hook in the instrumentation.
func TestPerSMSinksMatchOrdered(t *testing.T) {
	opts := instrument.MemorySharedAndBlocks()
	opts.Arith = true
	pools := map[int]*runner.Pool{0: nil, 2: testPool(t, 2), 8: testPool(t, 8)}
	for _, arch := range []gpu.ArchConfig{gpu.KeplerK40c(), gpu.PascalP100()} {
		for _, name := range apps.TableOrder {
			t.Run(arch.Name+"/"+name, func(t *testing.T) {
				app := apps.ByName(name)
				want := profileApp(t, app, arch, opts, pools[8], true)
				for _, workers := range []int{0, 2, 8} {
					t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
						sameProfiles(t, want, profileApp(t, app, arch, opts, pools[workers], false))
					})
				}
			})
		}
	}
}

// faultSrc faults in CTA %k: its threads load through %bad, past the
// device's capacity. Every CTA records its loads and stores first, and
// calls a device function, so each SM's fragment has records, locations
// and context nodes of its own.
const faultSrc = `
module persm
func @twice(%x: i32): i32 {
entry:
  %y = add i32 %x, %x
  ret %y
}
kernel @k(%out: ptr, %bad: ptr, %k: i32) {
entry:
  %tx   = sreg tid.x
  %bx   = sreg ctaid.x
  %bd   = sreg ntid.x
  %base = mul i32 %bx, %bd
  %i    = add i32 %base, %tx
  %v    = call @twice(%i)
  %oa   = gep %out, %i, 4
  st i32 global [%oa], %v
  %c    = icmp eq i32 %bx, %k
  cbr %c, wild, exit
wild:
  %ba = gep %bad, %i, 4
  %w  = ld i32 global [%ba]
  br exit
exit:
  ret
}
`

// wrongArgsSrc calls the memory hook with two arguments in CTA %k.
const wrongArgsSrc = `
module persm
kernel @k(%out: ptr, %bad: ptr, %k: i32) {
entry:
  %tx   = sreg tid.x
  %bx   = sreg ctaid.x
  %bd   = sreg ntid.x
  %base = mul i32 %bx, %bd
  %i    = add i32 %base, %tx
  %oa   = gep %out, %i, 4
  call @__advisor_record_mem(%oa, 32, 2, 0)
  %c    = icmp eq i32 %bx, %k
  cbr %c, wild, exit
wild:
  call @__advisor_record_mem(%oa, 32)
  br exit
exit:
  ret
}
`

// TestPerSMSinksFaultPrefix: when a fanned-out launch faults on SM k, the
// kernel's trace is the ordered path's — SMs below k complete, then SM k's
// prefix up to the fault — and the fault text is the same at every worker
// count, for a faulting instruction and for a malformed hook call alike.
func TestPerSMSinksFaultPrefix(t *testing.T) {
	const capacity = 1 << 20
	const sms, k = 15, 6
	for _, tc := range []struct {
		name, src  string
		instrument bool
	}{{"load", faultSrc, true}, {"hookargs", wrongArgsSrc, false}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(pool *runner.Pool, ordered bool) (*profiler.Profiler, error) {
				m, err := irtext.Parse("persm.mir", tc.src)
				if err != nil {
					t.Fatal(err)
				}
				prog := &instrument.Program{Module: m, Tables: &instrument.Tables{}}
				if tc.instrument {
					if prog, err = instrument.Instrument(m, instrument.Options{Memory: true, Blocks: true}); err != nil {
						t.Fatal(err)
					}
				}
				p := profiler.New()
				var l rt.Listener = p
				if ordered {
					l = orderedListener{p}
				}
				cfg := gpu.KeplerK40c()
				cfg.SMs = sms
				c := rt.NewContext(gpu.NewDevice(cfg, capacity), l)
				c.Options = rt.LaunchOptions{Pool: pool}
				out, err := c.CudaMalloc(4 * 2 * sms * 64)
				if err != nil {
					t.Fatal(err)
				}
				leave := c.Enter("main")
				defer leave()
				_, err = c.Launch(prog, "k", rt.Dim(2*sms), rt.Dim(64), rt.Ptr(out), rt.Ptr(capacity), rt.I32(k))
				if err == nil {
					t.Fatal("launch did not fault")
				}
				return p, err
			}
			want, wantErr := run(nil, true)
			ctas := map[int32]bool{}
			for _, m := range want.Kernels[0].Trace.Mem {
				ctas[m.CTA] = true
			}
			if !ctas[k-1] || !ctas[k] || ctas[k+1] {
				t.Fatalf("the ordered run recorded CTAs %v, want %d and %d but not %d", ctas, k-1, k, k+1)
			}
			for _, workers := range []int{0, 2, 8} {
				got, err := run(testPool(t, workers), false)
				if err.Error() != wantErr.Error() {
					t.Errorf("j%d: fault %q, want %q", workers, err, wantErr)
				}
				sameProfiles(t, want, got)
			}
		})
	}
}
