package gpu

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/runner"
)

// TestLaunchCycleBudget: a launch whose MaxCycles equals its cycles
// completes with the unbounded launch's result, and one whose MaxCycles
// is a cycle less fails with ErrOverBudget, on the serial path and the
// pooled one alike.
func TestLaunchCycleBudget(t *testing.T) {
	m := parseKernel(t, nativeScaleSrc)
	launch := func(pool *runner.Pool, budget int64) (*LaunchResult, error) {
		cfg := KeplerK40c()
		cfg.SMs = 15
		d := NewDevice(cfg, 1<<20)
		in, _ := d.Mem.Alloc(4 * 4096)
		out, _ := d.Mem.Alloc(4 * 4096)
		return d.Launch(m.Func("work"), LaunchParams{
			Grid: [3]int{32, 1, 1}, Block: [3]int{128, 1, 1},
			Args: []uint64{in, out, ir.I32Bits(4096)},
			Pool: pool, L1WarpsPerCTA: -1, MaxCycles: budget,
		})
	}
	for _, pool := range []*runner.Pool{nil, testPool(t, 4)} {
		t.Run(fmt.Sprintf("pool=%d", pool.Workers()), func(t *testing.T) {
			want, err := launch(pool, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := launch(pool, want.Cycles)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("budget = its cycles (%d): %+v, %v; want the unbounded %+v", want.Cycles, got, err, want)
			}
			if got, err := launch(pool, want.Cycles-1); !errors.Is(err, ErrOverBudget) || got != nil {
				t.Errorf("budget = cycles - 1: %+v, %v; want ErrOverBudget", got, err)
			}
		})
	}
}

// raceSrc: CTA %first stores through %bad at once; every other CTA spins
// %n times first.
const raceSrc = `
module race
kernel @k(%bad: ptr, %first: i32, %n: i32) {
entry:
  %bx = sreg ctaid.x
  %c  = icmp eq i32 %bx, %first
  cbr %c, wild, spin
wild:
  st i32 global [%bad], %bx
  br exit
spin:
  %k = mov i32 0
  br loop
loop:
  %d = icmp lt i32 %k, %n
  cbr %d, body, exit
body:
  %k = add i32 %k, 1
  br loop
exit:
  ret
}
`

// TestBudgetAndFaultInSMOrder: of a fault and a passed budget on two SMs,
// the one on the earlier SM decides the launch's error, on the serial
// path (which stops at the first) and the pooled one (whose every SM
// runs to its own end) alike.
func TestBudgetAndFaultInSMOrder(t *testing.T) {
	m := parseKernel(t, raceSrc)
	const capacity = 1 << 20
	launch := func(pool *runner.Pool, first int) error {
		cfg := KeplerK40c()
		cfg.SMs = 15 // one CTA per SM: CTA i runs on SM i
		_, err := NewDevice(cfg, capacity).Launch(m.Func("k"), LaunchParams{
			Grid: [3]int{15, 1, 1}, Block: [3]int{32, 1, 1},
			Args: []uint64{capacity, ir.I32Bits(int32(first)), ir.I32Bits(1000)},
			Pool: pool, L1WarpsPerCTA: -1, MaxCycles: 500,
		})
		return err
	}
	for _, pool := range []*runner.Pool{nil, testPool(t, 4)} {
		// CTA 0 faults before its clock reaches the budget; the spinning
		// CTAs after it pass the budget.
		var f *Fault
		if err := launch(pool, 0); !errors.As(err, &f) || f.CTA != 0 {
			t.Errorf("pool %d, SM 0 faults: %v; want CTA 0's fault", pool.Workers(), err)
		}
		// SM 0 spins past the budget; SM 1's fault comes after it.
		if err := launch(pool, 1); !errors.Is(err, ErrOverBudget) {
			t.Errorf("pool %d, SM 1 faults: %v; want ErrOverBudget", pool.Workers(), err)
		}
	}
}
