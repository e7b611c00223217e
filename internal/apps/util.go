package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"cudaadvisor/internal/rt"
)

// putF32s encodes float32 values into a host buffer at byte offset off.
func putF32s(h *rt.HostBuf, off int, vals []float32) {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(h.Data[off+4*i:], math.Float32bits(v))
	}
}

// getF32s decodes n float32 values from a host buffer at byte offset off.
func getF32s(h *rt.HostBuf, off, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(h.Data[off+4*i:]))
	}
	return out
}

// putI32s encodes int32 values into a host buffer.
func putI32s(h *rt.HostBuf, off int, vals []int32) {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(h.Data[off+4*i:], uint32(v))
	}
}

// getI32s decodes int32 values from a host buffer.
func getI32s(h *rt.HostBuf, off, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(h.Data[off+4*i:]))
	}
	return out
}

// putBools encodes bools as bytes.
func putBools(h *rt.HostBuf, off int, vals []bool) {
	for i, v := range vals {
		if v {
			h.Data[off+i] = 1
		} else {
			h.Data[off+i] = 0
		}
	}
}

// uploadF32s allocates device memory for vals and copies them up through
// a tracked host staging buffer.
func uploadF32s(ctx *rt.Context, label string, vals []float32) (rt.DevPtr, *rt.HostBuf, error) {
	h := ctx.Malloc(int64(4*len(vals)), label)
	putF32s(h, 0, vals)
	d, err := ctx.CudaMalloc(int64(4 * len(vals)))
	if err != nil {
		return 0, nil, err
	}
	if err := ctx.MemcpyH2D(d, h, h.Bytes()); err != nil {
		return 0, nil, err
	}
	return d, h, nil
}

// downloadF32s copies n floats back from the device through h.
func downloadF32s(ctx *rt.Context, h *rt.HostBuf, d rt.DevPtr, n int) ([]float32, error) {
	if err := ctx.MemcpyD2H(h, d, int64(4*n)); err != nil {
		return nil, err
	}
	return getF32s(h, 0, n), nil
}

// checkF32s compares device results against a reference within a relative
// tolerance (float32 accumulation order differs between warp-parallel and
// sequential reference code).
func checkF32s(what string, got, want []float32, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := float64(got[i]), float64(want[i])
		diff := math.Abs(g - w)
		scale := math.Max(math.Abs(w), 1)
		if diff/scale > tol || g != g { // also catches NaN
			return fmt.Errorf("%s: index %d: got %g, want %g (tol %g)", what, i, g, w, tol)
		}
	}
	return nil
}

// rng returns a deterministic random source for input generation; the
// paper uses fixed benchmark inputs, so every run sees identical data.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// randF32s fills a slice with uniform values in [0, 1).
func randF32s(r *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = r.Float32()
	}
	return out
}
