package analysis

import (
	"testing"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/trace"
)

// mkSiteTrace builds a single-CTA trace where each access carries a
// source line (the site) and an element id.
func mkSiteTrace(accesses []struct {
	line  int
	elem  uint64
	write bool
}) *trace.KernelTrace {
	tr := trace.NewKernelTrace("s", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	for _, a := range accesses {
		kind := trace.Load
		if a.write {
			kind = trace.Store
		}
		var rec trace.MemAccess
		rec.Mask = 1
		rec.Kind = kind
		rec.Bits = 32
		rec.Loc = tr.Locs.Intern(ir.Loc{File: "k.mir", Line: a.line})
		addRec(tr, rec, [trace.WarpSize]uint64{a.elem * 4})
	}
	return tr
}

func TestReuseBySiteForwardAttribution(t *testing.T) {
	// Site 10 loads element A; site 20 re-reads it. The forward credit
	// goes to site 10 (its load was worth caching); site 20's own load is
	// never reused afterwards.
	tr := mkSiteTrace([]struct {
		line  int
		elem  uint64
		write bool
	}{
		{10, 1, false},
		{20, 1, false},
	})
	sites := ReuseBySite(tr, DefaultElementReuse())
	s10 := sites[ir.Loc{File: "k.mir", Line: 10}]
	s20 := sites[ir.Loc{File: "k.mir", Line: 20}]
	if s10 == nil || s20 == nil {
		t.Fatalf("missing sites: %v", sites)
	}
	if s10.Reused != 1 || s10.Samples != 1 {
		t.Errorf("site 10 = %+v, want 1 sample reused once", s10)
	}
	if s20.Reused != 0 || s20.Samples != 1 {
		t.Errorf("site 20 = %+v, want 1 unreused sample", s20)
	}
	if s10.StreamFraction() != 0 || s20.StreamFraction() != 1 {
		t.Errorf("stream fractions = %g, %g", s10.StreamFraction(), s20.StreamFraction())
	}
}

func TestReuseBySiteWriteBreaksCredit(t *testing.T) {
	// load A (site 10), write A (site 15), load A (site 20): the write
	// invalidates the line, so site 10 gets no credit.
	tr := mkSiteTrace([]struct {
		line  int
		elem  uint64
		write bool
	}{
		{10, 1, false},
		{15, 1, true},
		{20, 1, false},
	})
	sites := ReuseBySite(tr, DefaultElementReuse())
	if s := sites[ir.Loc{File: "k.mir", Line: 10}]; s.Reused != 0 {
		t.Errorf("site 10 credited across a write: %+v", s)
	}
}

func TestReuseBySiteStreamingKernel(t *testing.T) {
	// Every element touched exactly once: all sites fully streaming.
	var acc []struct {
		line  int
		elem  uint64
		write bool
	}
	for i := uint64(0); i < 100; i++ {
		acc = append(acc, struct {
			line  int
			elem  uint64
			write bool
		}{10, i, false})
	}
	sites := ReuseBySite(mkSiteTrace(acc), DefaultElementReuse())
	s := sites[ir.Loc{File: "k.mir", Line: 10}]
	if s.Samples != 100 || s.StreamFraction() != 1 {
		t.Errorf("streaming site = %+v", s)
	}
}

func TestMergeSiteReuse(t *testing.T) {
	loc := ir.Loc{File: "k.mir", Line: 10}
	dst := map[ir.Loc]*SiteReuse{loc: {Loc: loc, Samples: 10, Reused: 5}}
	src := map[ir.Loc]*SiteReuse{
		loc:                       {Loc: loc, Samples: 6, Reused: 1},
		{File: "k.mir", Line: 20}: {Samples: 3},
	}
	MergeSiteReuse(dst, src)
	if dst[loc].Samples != 16 || dst[loc].Reused != 6 {
		t.Errorf("merged = %+v", dst[loc])
	}
	if len(dst) != 2 {
		t.Errorf("merged map has %d sites, want 2", len(dst))
	}
	// Merging must copy, not alias.
	src[ir.Loc{File: "k.mir", Line: 20}].Samples = 99
	if dst[ir.Loc{File: "k.mir", Line: 20}].Samples != 3 {
		t.Error("MergeSiteReuse aliased the source record")
	}
}

func TestReuseBySitePerCTA(t *testing.T) {
	// The same element read by two CTAs: no cross-CTA credit.
	tr := trace.NewKernelTrace("s", 0, [3]int{2, 1, 1}, [3]int{32, 1, 1})
	loc := tr.Locs.Intern(ir.Loc{File: "k.mir", Line: 10})
	for cta := int32(0); cta < 2; cta++ {
		var rec trace.MemAccess
		rec.CTA = cta
		rec.Mask = 1
		rec.Kind = trace.Load
		rec.Bits = 32
		rec.Loc = loc
		addRec(tr, rec, [trace.WarpSize]uint64{400})
	}
	sites := ReuseBySite(tr, DefaultElementReuse())
	s := sites[ir.Loc{File: "k.mir", Line: 10}]
	if s.Samples != 2 || s.Reused != 0 {
		t.Errorf("cross-CTA site = %+v, want 2 unreused samples", s)
	}
}
