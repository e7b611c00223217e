package trace

import (
	"errors"
	"fmt"
	"testing"
)

// addMem offers tr a one-lane memory record for warp (cta, warp) whose
// lane-0 address is the record's per-warp sequence number.
func addMem(tr *KernelTrace, cta, warp int32, seq uint64) error {
	return tr.AddMem(MemAccess{CTA: cta, Warp: warp, Mask: 1}, &[WarpSize]uint64{seq})
}

// lane0 decodes the payload addMem stored.
func lane0(tr *KernelTrace, m *MemAccess) uint64 {
	var addrs [WarpSize]uint64
	tr.LaneAddrs(m, &addrs)
	return addrs[0]
}

func blk(cta, warp, block int32) BlockExec {
	return BlockExec{CTA: cta, Warp: warp, Block: block, Mask: 1, InitMask: 1}
}

func TestUnboundedTraceAppends(t *testing.T) {
	tr := NewKernelTrace("k", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	for i := 0; i < 100; i++ {
		if err := addMem(tr, 0, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Mem) != 100 {
		t.Fatalf("len(Mem) = %d, want 100", len(tr.Mem))
	}
	rec, seen := tr.MemCoverage()
	if rec != 100 || seen != 100 {
		t.Errorf("coverage = %d/%d, want 100/100", rec, seen)
	}
}

// collectSink gathers flushed records — for memory records the lane-0
// payload, decoded during the flush as the FlushSink contract asks — and
// can be told to fail.
type collectSink struct {
	mem    []uint64
	blocks []BlockExec
	fail   error
}

func (s *collectSink) FlushMem(tr *KernelTrace, recs []MemAccess) error {
	if s.fail != nil {
		return s.fail
	}
	for i := range recs {
		s.mem = append(s.mem, lane0(tr, &recs[i]))
	}
	return nil
}

func (s *collectSink) FlushBlocks(_ *KernelTrace, recs []BlockExec) error {
	if s.fail != nil {
		return s.fail
	}
	s.blocks = append(s.blocks, recs...)
	return nil
}

func TestSinkReceivesEveryRecordExactlyOnce(t *testing.T) {
	tr := NewKernelTrace("k", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	sink := &collectSink{}
	tr.SetBounds(8, 4, sink)
	const n = 100
	for i := 0; i < n; i++ {
		if err := addMem(tr, 0, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := tr.AddBlock(blk(0, 0, int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Mem) > 8 || len(tr.Blocks) > 4 {
		t.Fatalf("buffer exceeded cap: mem %d, blocks %d", len(tr.Mem), len(tr.Blocks))
	}
	if err := tr.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(sink.mem) != n || len(sink.blocks) != n {
		t.Fatalf("sink got %d mem, %d blocks, want %d each", len(sink.mem), len(sink.blocks), n)
	}
	for i, seq := range sink.mem {
		if seq != uint64(i) {
			t.Fatalf("sink mem[%d] has seq %d: records reordered or duplicated", i, seq)
		}
	}
	if tr.MemFlushed != n || tr.BlocksFlushed != n {
		t.Errorf("flushed counters = %d/%d, want %d/%d", tr.MemFlushed, tr.BlocksFlushed, n, n)
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	tr := NewKernelTrace("k", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	boom := errors.New("sink full")
	tr.SetBounds(2, 0, &collectSink{fail: boom})
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		err = addMem(tr, 0, 0, uint64(i))
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
}

// TestSamplingKeepsEveryNthPerWarp drives one warp far past the cap and
// checks the surviving records are exactly the per-warp seqs divisible by
// the final sampling period.
func TestSamplingKeepsEveryNthPerWarp(t *testing.T) {
	tr := NewKernelTrace("k", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	tr.SetBounds(16, 0, nil)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := addMem(tr, 0, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Mem) > 16+1 {
		t.Fatalf("len(Mem) = %d, want <= cap", len(tr.Mem))
	}
	N := uint64(tr.MemSampleN)
	if N < 2 {
		t.Fatalf("sampling period %d did not grow past the cap", N)
	}
	for i := range tr.Mem {
		if seq := lane0(tr, &tr.Mem[i]); seq%N != 0 {
			t.Fatalf("kept record %d has seq %d, not divisible by period %d", i, seq, N)
		}
	}
	// And every divisible seq below the highest kept one is present.
	want := uint64(0)
	for i := range tr.Mem {
		if seq := lane0(tr, &tr.Mem[i]); seq != want {
			t.Fatalf("kept seqs skip from %d to %d (period %d)", want-N, seq, N)
		}
		want += N
	}
	rec, seen := tr.MemCoverage()
	if seen != n || rec != int64(len(tr.Mem)) {
		t.Errorf("coverage = %d/%d, want %d/%d", rec, seen, len(tr.Mem), n)
	}
}

// TestSamplingIsPerWarp interleaves two warps in different orders and
// checks the kept set for each warp depends only on its own sequence.
func TestSamplingIsPerWarp(t *testing.T) {
	keptFor := func(interleave func(add func(w int32, seq uint64))) map[int32][]uint64 {
		tr := NewKernelTrace("k", 0, [3]int{1, 1, 1}, [3]int{64, 1, 1})
		tr.SetBounds(8, 0, nil)
		seqs := map[int32]uint64{}
		interleave(func(w int32, _ uint64) {
			s := seqs[w]
			seqs[w] = s + 1
			if err := addMem(tr, 0, w, s); err != nil {
				panic(err)
			}
		})
		out := map[int32][]uint64{}
		for i := range tr.Mem {
			out[tr.Mem[i].Warp] = append(out[tr.Mem[i].Warp], lane0(tr, &tr.Mem[i]))
		}
		return out
	}
	// Same per-warp event counts, different interleavings.
	a := keptFor(func(add func(int32, uint64)) {
		for i := 0; i < 50; i++ {
			add(0, 0)
			add(1, 0)
		}
	})
	b := keptFor(func(add func(int32, uint64)) {
		for i := 0; i < 50; i++ {
			add(0, 0)
		}
		for i := 0; i < 50; i++ {
			add(1, 0)
		}
	})
	for w := int32(0); w < 2; w++ {
		if fmt.Sprint(a[w]) != fmt.Sprint(b[w]) {
			t.Errorf("warp %d kept %v under interleaving A but %v under B", w, a[w], b[w])
		}
	}
}

func TestSamplingDeterministicAcrossRuns(t *testing.T) {
	run := func() []MemAccess {
		tr := NewKernelTrace("k", 0, [3]int{1, 1, 1}, [3]int{128, 1, 1})
		tr.SetBounds(32, 0, nil)
		for i := 0; i < 500; i++ {
			w := int32(i % 4)
			if err := addMem(tr, 0, w, uint64(i/4)); err != nil {
				t.Fatal(err)
			}
		}
		return tr.Mem
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("sampling is not deterministic across identical runs")
	}
}

func TestBlockSamplingBounded(t *testing.T) {
	tr := NewKernelTrace("k", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	tr.SetBounds(0, 8, nil)
	for i := 0; i < 300; i++ {
		if err := tr.AddBlock(blk(0, int32(i%3), int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Blocks) > 8+3 {
		t.Fatalf("len(Blocks) = %d, want near cap 8", len(tr.Blocks))
	}
	rec, seen := tr.BlocksCoverage()
	if seen != 300 || rec != int64(len(tr.Blocks)) {
		t.Errorf("coverage = %d/%d", rec, seen)
	}
	// Mem side is unbounded here.
	for i := 0; i < 50; i++ {
		if err := addMem(tr, 0, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Mem) != 50 {
		t.Errorf("unbounded mem buffer sampled: len = %d, want 50", len(tr.Mem))
	}
}
