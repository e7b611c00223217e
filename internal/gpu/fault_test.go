package gpu

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cudaadvisor/internal/ir"
)

const foreverSrc = `
module fv
kernel @forever() {
entry:
  br entry
}
`

// TestFaultPaths drives every *Fault-producing path in the executor and
// asserts the fault carries the message, the source attribution, and the
// identifying fields (kernel, CTA, warp) the degradation layer reports.
func TestFaultPaths(t *testing.T) {
	cases := []struct {
		name string
		// launch builds a device+kernel and returns the launch error.
		launch  func(t *testing.T) error
		wantMsg string // substring of Fault.Msg
		wantLoc bool   // fault must be attributed to a source line
	}{
		{
			name: "out-of-range access",
			launch: func(t *testing.T) error {
				cfg := KeplerK40c()
				cfg.SMs = 2
				d := NewDevice(cfg, 4096) // 4 KB device: element 1<<20 is far past it
				m := parseKernel(t, scaleSrc)
				in, _ := d.Mem.Alloc(64)
				out, _ := d.Mem.Alloc(64)
				_, err := d.Launch(m.Func("scale"), LaunchParams{
					Grid: [3]int{64, 1, 1}, Block: [3]int{256, 1, 1},
					Args:          []uint64{in, out, ir.I32Bits(1 << 20), ir.F32Bits(1)},
					L1WarpsPerCTA: -1,
				})
				return err
			},
			wantMsg: "out of range",
			wantLoc: true,
		},
		{
			name: "divergent barrier",
			launch: func(t *testing.T) error {
				d := newTestDevice()
				m := parseKernel(t, divBarrierSrc)
				_, err := d.Launch(m.Func("bad"), LaunchParams{
					Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
					Args: []uint64{ir.I32Bits(0)}, L1WarpsPerCTA: -1,
				})
				return err
			},
			wantMsg: "divergent barrier",
			wantLoc: true,
		},
		{
			name: "instruction budget exhaustion",
			launch: func(t *testing.T) error {
				d := newTestDevice()
				m := parseKernel(t, foreverSrc)
				_, err := d.Launch(m.Func("forever"), LaunchParams{
					Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
					maxWarpInstrs: 5000, L1WarpsPerCTA: -1,
				})
				return err
			},
			wantMsg: "instruction budget exhausted",
			// The guard fires between instructions, not at one: no location.
			wantLoc: false,
		},
		{
			name: "unimplemented opcode",
			launch: func(t *testing.T) error {
				d := newTestDevice()
				// irtext refuses unknown mnemonics, so corrupt a verified
				// kernel after the fact: the executor must fault, not panic.
				m := parseKernel(t, divBarrierSrc)
				f := m.Func("bad")
				f.Blocks[0].Instrs[0].Op = ir.Op(200)
				_, err := d.Launch(f, LaunchParams{
					Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
					Args: []uint64{ir.I32Bits(0)}, L1WarpsPerCTA: -1,
				})
				return err
			},
			wantMsg: "unimplemented opcode",
			wantLoc: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.launch(t)
			if err == nil {
				t.Fatal("kernel did not fault")
			}
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("error %T is not a *Fault: %v", err, err)
			}
			if !strings.Contains(f.Msg, tc.wantMsg) {
				t.Errorf("Fault.Msg = %q, want substring %q", f.Msg, tc.wantMsg)
			}
			if tc.wantLoc && f.Loc.Line == 0 {
				t.Errorf("fault not attributed to a source line: %v", f)
			}
			if f.Kernel == "" {
				t.Errorf("fault does not name the kernel: %v", f)
			}
			if f.CTA < 0 || f.Warp < 0 {
				t.Errorf("fault CTA/warp = %d/%d, want non-negative", f.CTA, f.Warp)
			}
			if s := f.Error(); !strings.Contains(s, "gpu fault in kernel") || !strings.Contains(s, f.Msg) {
				t.Errorf("Error() = %q lacks the fault preamble or message", s)
			}
		})
	}
}

// TestLaunchCancelledBeforeStart: an already-ended context stops the
// launch at the door with a "not launched" error wrapping ctx.Err().
func TestLaunchCancelledBeforeStart(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, foreverSrc)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()

	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"cancelled", cancelled, context.Canceled},
		{"deadline", expired, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := d.Launch(m.Func("forever"), LaunchParams{
				Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
				Ctx: tc.ctx, L1WarpsPerCTA: -1,
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !strings.Contains(err.Error(), "not launched") {
				t.Errorf("err = %v, want a 'not launched' pre-start error", err)
			}
		})
	}
}

// TestLaunchCancelledMidRun: cancelling the context while warps execute
// aborts the kernel at the step-guard poll instead of running to the
// instruction budget.
func TestLaunchCancelledMidRun(t *testing.T) {
	d := newTestDevice()
	m := parseKernel(t, foreverSrc)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := d.Launch(m.Func("forever"), LaunchParams{
		Grid: [3]int{1, 1, 1}, Block: [3]int{32, 1, 1},
		Ctx: ctx, maxWarpInstrs: 1 << 40, L1WarpsPerCTA: -1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled after") {
		t.Errorf("err = %v, want a mid-run cancellation message", err)
	}
}
