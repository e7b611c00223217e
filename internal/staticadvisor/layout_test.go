package staticadvisor

import (
	"testing"

	"cudaadvisor/internal/irtext"
)

// TestLaneStride pins the layout lattice: which affine thread-index
// decompositions have a well-defined per-lane stride within a warp, for
// 1D, 2D and 3D block geometries and for the unknown layout.
func TestLaneStride(t *testing.T) {
	tx := func(s int64) Value { return Value{Shape: Affine, Stride: s} }
	ty := Value{Shape: Affine, StrideY: 1}
	tz := Value{Shape: Affine, StrideZ: 1}

	cases := []struct {
		name   string
		lay    Layout
		v      Value
		stride int64
		ok     bool
	}{
		{"uniform any layout", Layout{}, Value{Shape: Uniform}, 0, true},
		{"varying never resolves", Layout{Block: [3]int{32, 8, 1}}, Value{Shape: Varying}, 0, false},

		// Unknown layout: only pure-tid.x values resolve.
		{"unknown tx", Layout{}, tx(4), 4, true},
		{"unknown ty conservative", Layout{}, ty, 0, false},
		{"unknown tz conservative", Layout{}, tz, 0, false},

		// 32×8: each warp is exactly one tid.y row, so tid.y broadcasts.
		{"32x8 ty broadcast", Layout{Block: [3]int{32, 8, 1}}, ty, 0, true},
		{"32x8 tx", Layout{Block: [3]int{32, 8, 1}}, tx(1), 1, true},

		// 16×16: a warp spans two tid.y rows; tid.y alone jumps at lane
		// 16 (0,…,0,1,…,1 — not affine in the lane index), but the
		// linearized index ty*16+tx is consecutive across the wrap.
		{"16x16 ty not lane-affine", Layout{Block: [3]int{16, 16, 1}}, ty, 0, false},
		{"16x16 linearized", Layout{Block: [3]int{16, 16, 1}}, Value{Shape: Affine, Stride: 1, StrideY: 16}, 1, true},
		{"16x16 row-major ty*16+tx scaled", Layout{Block: [3]int{16, 16, 1}}, Value{Shape: Affine, Stride: 4, StrideY: 64}, 4, true},
		{"16x16 transposed tx*16+ty", Layout{Block: [3]int{16, 16, 1}}, Value{Shape: Affine, Stride: 16, StrideY: 1}, 0, false},

		// 8×4×4: a warp is one full z-slice (8×4 threads), so tid.z is
		// warp-uniform and the linearized index is consecutive.
		{"8x4x4 tz broadcast", Layout{Block: [3]int{8, 4, 4}}, tz, 0, true},
		{"8x4x4 ty strides within warp", Layout{Block: [3]int{8, 4, 4}}, Value{Shape: Affine, Stride: 1, StrideY: 8, StrideZ: 32}, 1, true},

		// Oversized CTAs fall back to the unknown-layout treatment.
		{"oversized block", Layout{Block: [3]int{8192, 1, 1}}, ty, 0, false},
	}
	for _, tc := range cases {
		s, ok := tc.lay.LaneStride(tc.v)
		if s != tc.stride || ok != tc.ok {
			t.Errorf("%s: LaneStride(%v) = (%d, %v), want (%d, %v)",
				tc.name, tc.v, s, ok, tc.stride, tc.ok)
		}
	}
}

// TestAnalyzeLayoutBroadcast: the same tid.y-indexed module is divergent
// under an unknown layout but uniform under a 32×8 hint, where every
// warp holds one tid.y row.
func TestAnalyzeLayoutBroadcast(t *testing.T) {
	m, err := irtext.Parse("layout.mir", `
module m
kernel @k(%p: ptr, %n: i32) {
entry:
  %ty = sreg tid.y
  %a  = gep %p, %ty, 4
  %v  = ld i32 global [%a]
  %c  = icmp lt i32 %ty, %n
  cbr %c, hot, done
hot:
  st i32 global [%a], %v
  br done
done:
  ret
}
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}

	unknown, err := AnalyzeLayout(m, Layout{})
	if err != nil {
		t.Fatalf("analyze (unknown): %v", err)
	}
	fr := FuncNamed(unknown, "k")
	if len(fr.Branches) != 1 {
		t.Errorf("unknown layout: %d branches flagged, want 1 (tid.y conservatively varying)", len(fr.Branches))
	}
	if got := fr.Accesses[0].Class; got != ClassDivergent {
		t.Errorf("unknown layout: ld class = %v, want divergent", got)
	}

	hinted, err := AnalyzeLayout(m, Layout{Block: [3]int{32, 8, 1}})
	if err != nil {
		t.Fatalf("analyze (32x8): %v", err)
	}
	fr = FuncNamed(hinted, "k")
	if len(fr.Branches) != 0 {
		t.Errorf("32x8 layout: %d branches flagged, want 0 (tid.y warp-uniform)", len(fr.Branches))
	}
	if got := fr.Accesses[0].Class; got != ClassUniform {
		t.Errorf("32x8 layout: ld class = %v, want uniform", got)
	}
	if got := fr.Accesses[0].PredictedLines(128); got != 1 {
		t.Errorf("32x8 layout: predicted lines = %d, want 1", got)
	}
}
