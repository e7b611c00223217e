package gpu

import (
	"testing"

	"cudaadvisor/internal/ir"
)

func TestArchPresetsMatchTable1(t *testing.T) {
	k := KeplerK40c()
	if k.L1LineSize != 128 {
		t.Errorf("Kepler line size = %d, want 128", k.L1LineSize)
	}
	if k.L1Bytes != 16*1024 {
		t.Errorf("Kepler default L1 = %d, want 16 KB (configurable split)", k.L1Bytes)
	}
	if k.SMs != 15 {
		t.Errorf("K40c SMs = %d, want 15", k.SMs)
	}
	p := PascalP100()
	if p.L1LineSize != 32 {
		t.Errorf("Pascal line size = %d, want 32", p.L1LineSize)
	}
	if p.L1Bytes != 24*1024 {
		t.Errorf("Pascal unified cache = %d, want 24 KB", p.L1Bytes)
	}
	if p.SMs != 56 {
		t.Errorf("P100 SMs = %d, want 56", p.SMs)
	}
	for _, cfg := range []ArchConfig{k, p} {
		if cfg.L1Sets() < 1 {
			t.Errorf("%s has %d cache sets", cfg.Name, cfg.L1Sets())
		}
	}
}

func TestWithL1(t *testing.T) {
	k := KeplerK40c().WithL1(48 * 1024)
	if k.L1Bytes != 48*1024 {
		t.Errorf("WithL1 = %d", k.L1Bytes)
	}
	if KeplerK40c().L1Bytes != 16*1024 {
		t.Error("WithL1 mutated the preset")
	}
	if k.L1Sets() != 48*1024/(128*k.L1Assoc) {
		t.Errorf("L1Sets = %d", k.L1Sets())
	}
}

func TestTimingScalesWithWork(t *testing.T) {
	// Four times the CTAs on a one-SM device must take longer (sanity of
	// the per-SM timing model).
	cfg := KeplerK40c()
	cfg.SMs = 1
	d := NewDevice(cfg, 16<<20)
	m := parseKernel(t, scaleSrc)
	in, _ := d.Mem.Alloc(4 * 8192)
	out, _ := d.Mem.Alloc(4 * 8192)
	run := func(ctas int) int64 {
		res, err := d.Launch(m.Func("scale"), LaunchParams{
			Grid: [3]int{ctas, 1, 1}, Block: [3]int{256, 1, 1},
			Args:          []uint64{in, out, ir.I32Bits(8192), ir.F32Bits(2)},
			L1WarpsPerCTA: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	small, big := run(4), run(16)
	if big <= small {
		t.Errorf("16 CTAs (%d cycles) not slower than 4 CTAs (%d cycles)", big, small)
	}
}
