package staticadvisor_test

import (
	"testing"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/rt"
	"cudaadvisor/internal/staticadvisor"
)

// The self-validating shared-memory fixtures: each kernel's bank-access
// pattern has a closed-form conflict degree, the static analyzer must
// predict it exactly, and the simulator's watch must measure the same
// number on a real launch.
const (
	// Column accesses of an unpadded 16x16 i32 tile: 64-byte lane stride,
	// lanes hit banks {0, 16} with 16 distinct words each — 16-way.
	smemUnpaddedSrc = `
module smem_unpadded
kernel @k(%n: i32) {
  shared @tile: i32[512]
entry:
  %tx = sreg tid.x
  %tp = shptr @tile
  %sa = gep %tp, %tx, 64
  st i32 shared [%sa], %tx
  ret
}
`
	// The same column walk over a tile padded to 17 columns: the 68-byte
	// stride is 17 words, coprime to the 32 banks — conflict-free.
	smemPaddedSrc = `
module smem_padded
kernel @k(%n: i32) {
  shared @tile: i32[544]
entry:
  %tx = sreg tid.x
  %tp = shptr @tile
  %sa = gep %tp, %tx, 68
  st i32 shared [%sa], %tx
  ret
}
`
	// All lanes load one word: a broadcast, degree 1 at no extra cost.
	smemBroadcastSrc = `
module smem_broadcast
kernel @k(%n: i32) {
  shared @tile: i32[32]
entry:
  %tp = shptr @tile
  %v = ld i32 shared [%tp]
  ret
}
`
	// Stride-2 element walk (8-byte lane stride): lanes land on the even
	// banks only, two distinct words per bank — 2-way.
	smemStride2Src = `
module smem_stride2
kernel @k(%n: i32) {
  shared @tile: i32[64]
entry:
  %tx = sreg tid.x
  %tp = shptr @tile
  %sa = gep %tp, %tx, 8
  st i32 shared [%sa], %tx
  ret
}
`
	// The missing-barrier race: every thread stores its own slot then
	// reads its neighbor's without an intervening bar. Statically a
	// same-interval hazard; dynamically each read (except the last
	// thread's, whose word was never written) hits another thread's
	// same-interval write.
	smemRaceSrc = `
module smem_race
kernel @k(%n: i32) {
  shared @tile: i32[68]
entry:
  %tx = sreg tid.x
  %tp = shptr @tile
  %sa = gep %tp, %tx, 4
  st i32 shared [%sa], %tx
  %i1 = add i32 %tx, 1
  %ra = gep %tp, %i1, 4
  %v = ld i32 shared [%ra]
  ret
}
`
	// The fixed variant: the same exchange with the bar in place is clean
	// both statically and dynamically.
	smemRaceFixedSrc = `
module smem_race_fixed
kernel @k(%n: i32) {
  shared @tile: i32[68]
entry:
  %tx = sreg tid.x
  %tp = shptr @tile
  %sa = gep %tp, %tx, 4
  st i32 shared [%sa], %tx
  bar
  %i1 = add i32 %tx, 1
  %ra = gep %tp, %i1, 4
  %v = ld i32 shared [%ra]
  ret
}
`
)

// launchSmemFixture instruments the module with memory, shared-memory
// and block categories (turning on the watch) and launches one CTA.
func launchSmemFixture(t *testing.T, m *ir.Module, block int) (*gpu.LaunchResult, *profiler.KernelProfile) {
	t.Helper()
	prog, err := instrument.Instrument(m, instrument.MemorySharedAndBlocks())
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	p := profiler.New()
	ctx := rt.NewContext(gpu.NewDevice(gpu.KeplerK40c(), 1<<20), p)
	res, err := ctx.Launch(prog, "k", rt.Dim(1), rt.Dim(block), rt.I32(0))
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	if len(p.Kernels) != 1 {
		t.Fatalf("profiled %d kernels, want 1", len(p.Kernels))
	}
	return res, p.Kernels[0]
}

// TestSharedMemFixtures checks the fixtures end to end: the static
// degree prediction is exact, and the dynamic counters measure the very
// same degree on a launch of the kernel.
func TestSharedMemFixtures(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		block     int
		degree    int
		broadcast bool
		warps     int64 // expected warp-level shared accesses per launch
	}{
		{"unpadded-16way", smemUnpaddedSrc, 32, 16, false, 1},
		{"padded-1way", smemPaddedSrc, 32, 1, false, 1},
		{"broadcast", smemBroadcastSrc, 32, 1, true, 1},
		{"stride2-2way", smemStride2Src, 32, 2, false, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := parseTestModule(t, tc.src)
			res, err := staticadvisor.Analyze(m)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			fr := staticadvisor.FuncNamed(res, "k")
			if len(fr.SharedAccesses) != 1 {
				t.Fatalf("static shared accesses = %d, want 1", len(fr.SharedAccesses))
			}
			sa := fr.SharedAccesses[0]
			if sa.Degree != tc.degree {
				t.Errorf("static degree = %d, want %d", sa.Degree, tc.degree)
			}
			if sa.Broadcast != tc.broadcast {
				t.Errorf("static broadcast = %v, want %v", sa.Broadcast, tc.broadcast)
			}
			if sa.Decl != "tile" {
				t.Errorf("static decl = %q, want tile", sa.Decl)
			}
			if len(fr.Races) != 0 {
				t.Errorf("static races = %d, want 0", len(fr.Races))
			}

			lr, kp := launchSmemFixture(t, m, tc.block)
			if len(lr.SharedRaces) != 0 {
				t.Errorf("dynamic races = %v, want none", lr.SharedRaces)
			}

			// The trace-level view must match the hand-derived counts
			// and, per site, the static prediction.
			sb := analysis.SharedBankConflicts(kp.Trace)
			if sb.Total != tc.warps {
				t.Errorf("trace shared accesses = %d, want %d", sb.Total, tc.warps)
			}
			if want := int64(tc.degree-1) * tc.warps; sb.Replays != want {
				t.Errorf("trace bank replays = %d, want %d", sb.Replays, want)
			}
			sites := sb.Sites()
			if len(sites) != 1 {
				t.Fatalf("trace shared sites = %d, want 1", len(sites))
			}
			s := sites[0]
			if s.Loc != sa.Loc {
				t.Errorf("trace site %s, static site %s", s.Loc, sa.Loc)
			}
			if s.MaxDegree != tc.degree || s.Degree() != float64(tc.degree) {
				t.Errorf("measured degree %.2f (max %d), statically predicted %d",
					s.Degree(), s.MaxDegree, tc.degree)
			}
		})
	}
}

// TestSharedMemRaceFixture seeds the missing-barrier race: the static
// detector must flag the read, and the launch must confirm it with the
// expected lane-read count; the barriered variant must be clean on both
// sides.
func TestSharedMemRaceFixture(t *testing.T) {
	const block = 64

	m := parseTestModule(t, smemRaceSrc)
	res, err := staticadvisor.Analyze(m)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	fr := staticadvisor.FuncNamed(res, "k")
	if len(fr.Races) != 1 {
		t.Fatalf("static races = %+v, want exactly one", fr.Races)
	}
	rc := fr.Races[0]
	if rc.Decl != "tile" {
		t.Errorf("race decl = %q, want tile", rc.Decl)
	}

	lr, _ := launchSmemFixture(t, m, block)
	if len(lr.SharedRaces) != 1 {
		t.Fatalf("dynamic races = %+v, want exactly one site", lr.SharedRaces)
	}
	got := lr.SharedRaces[0]
	if got.Loc != rc.ReadLoc {
		t.Errorf("dynamic race at %s, static read at %s", got.Loc, rc.ReadLoc)
	}
	// Every thread's read hits its neighbor's same-interval write except
	// the last, whose word was never written.
	if got.Count != block-1 {
		t.Errorf("raced lane reads = %d, want %d", got.Count, block-1)
	}

	// The barriered variant is clean statically and dynamically.
	mf := parseTestModule(t, smemRaceFixedSrc)
	resf, err := staticadvisor.Analyze(mf)
	if err != nil {
		t.Fatalf("analyze fixed: %v", err)
	}
	if n := len(staticadvisor.FuncNamed(resf, "k").Races); n != 0 {
		t.Errorf("fixed variant static races = %d, want 0", n)
	}
	lrf, _ := launchSmemFixture(t, mf, block)
	if len(lrf.SharedRaces) != 0 {
		t.Errorf("fixed variant dynamic races = %+v, want none", lrf.SharedRaces)
	}
}

// FuzzBankIndex feeds random strides, widths and base phases into the
// bank-index model and asserts the invariants the advisor relies on:
// the degree always lands in [1, 32], the computation is deterministic,
// and the phase-maximized stride degree is an upper bound for the
// simulator's count of every aligned placement. Negative addresses are
// taken mod 2^64 as they are, with no shift into the non-negative range.
func FuzzBankIndex(f *testing.F) {
	f.Add(int64(64), uint8(2), uint8(0))
	f.Add(int64(68), uint8(2), uint8(16))
	f.Add(int64(8), uint8(3), uint8(3))
	f.Add(int64(-4), uint8(2), uint8(1))
	f.Add(int64(0), uint8(0), uint8(255))
	f.Add(int64(-64), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, stride int64, widthLog uint8, phase uint8) {
		bytes := 1 << (widthLog % 5) // 1, 2, 4, 8 or 16
		stride %= 1 << 20

		d := staticadvisor.BankDegreeStride(stride, bytes)
		if d < 1 || d > gpu.NumBanks {
			t.Fatalf("BankDegreeStride(%d, %d) = %d, out of [1, 32]", stride, bytes, d)
		}
		if d2 := staticadvisor.BankDegreeStride(stride, bytes); d2 != d {
			t.Fatalf("BankDegreeStride(%d, %d) nondeterministic: %d then %d", stride, bytes, d, d2)
		}

		// A concrete warp at an aligned base phase.
		const period = gpu.NumBanks * gpu.BankWidth
		base := (int64(phase) * int64(bytes)) % period
		var addrs [gpu.WarpSize]uint64
		for lane := range addrs {
			addrs[lane] = uint64(base + stride*int64(lane))
		}
		da := gpu.BankConflictDegree(gpu.FullMask, &addrs, bytes)
		if da < 1 || da > gpu.NumBanks {
			t.Fatalf("BankConflictDegree = %d, out of [1, 32]", da)
		}
		if da > d {
			t.Fatalf("stride bound violated: addrs degree %d > stride degree %d (stride %d, bytes %d, base %d)",
				da, d, stride, bytes, base)
		}
	})
}
