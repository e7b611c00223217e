package findings

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/staticadvisor"
)

func sampleReport() *Report {
	fs := []Finding{
		{
			Kind: KindAccess,
			Site: Site{File: "a.mir", Line: 10, Col: 3, Func: "k", Block: "body"},
			Static: StaticEvidence{
				Shape: "affine(stride 128)", AccessOp: "ld", AccessBytes: 4,
				Class: "strided", StrideBytes: 128, PredictedLines: 32,
			},
			Dynamic: &DynamicEvidence{
				Observed: true, WarpExecs: 64, DivergentExecs: 64,
				MeasuredLines: 32, MaxLines: 32, ReuseSamples: 2048, ReuseReused: 12,
			},
			Verdict:         VerdictCorroborated,
			EstimatedCycles: 13888,
			Advice:          "transpose",
		},
		{
			Kind:    KindBranch,
			Site:    Site{File: "a.mir", Line: 4, Col: 3, Func: "k", Block: "entry"},
			Static:  StaticEvidence{Shape: "varying", Cond: "c", Region: []RegionBlock{{Name: "then", Instrs: 5}}},
			Dynamic: &DynamicEvidence{Observed: true, WarpExecs: 16, DivergentExecs: 4},
			Verdict: VerdictCorroborated, EstimatedCycles: 40, Advice: "partition",
		},
		{
			Kind:    KindBarrier,
			Site:    Site{File: "a.mir", Line: 20, Col: 3, Func: "k", Block: "sync"},
			Static:  StaticEvidence{Shape: "divergent-control"},
			Dynamic: &DynamicEvidence{Observed: true, WarpExecs: 8, DivergentExecs: 2},
			Verdict: VerdictCorroborated, Advice: "hoist",
		},
		{
			Kind:    KindAccess,
			Site:    Site{File: "a.mir", Line: 30, Col: 3, Func: "k", Block: "tail"},
			Static:  StaticEvidence{Shape: "uniform", AccessOp: "st", AccessBytes: 4, Class: "uniform", PredictedLines: 1},
			Verdict: VerdictUnobserved, Advice: "none",
		},
		{
			Kind: KindBankConflict,
			Site: Site{File: "a.mir", Line: 40, Col: 3, Func: "k", Block: "body"},
			Static: StaticEvidence{
				Shape: "affine(stride 64)", AccessOp: "st", AccessBytes: 4,
				StrideBytes: 64, Decl: "tile", Degree: 16,
			},
			Dynamic: &DynamicEvidence{
				Observed: true, WarpExecs: 32, DivergentExecs: 32,
				MeasuredDegree: 16, MaxDegree: 16, BankReplays: 480,
			},
			Verdict: VerdictCorroborated, EstimatedCycles: 960, Advice: "pad",
		},
		{
			Kind:   KindSharedRace,
			Site:   Site{File: "a.mir", Line: 50, Col: 3, Func: "k", Block: "body"},
			Static: StaticEvidence{Shape: "same-interval", Decl: "tile", Write: &Site{File: "a.mir", Line: 48, Col: 3, Func: "k", Block: "body"}},
			Dynamic: &DynamicEvidence{
				Observed: true, WarpExecs: 2, RaceReads: 63,
			},
			Verdict: VerdictCorroborated, Advice: "insert a bar.sync",
		},
	}
	return NewReport("demo", "kepler-k40c", 128, 1, fs)
}

// The schema version is part of the public contract: changing the JSON
// shape requires bumping it, and this test pins the current value.
func TestSchemaVersionPinned(t *testing.T) {
	if SchemaVersion != "advisor-report/v3" {
		t.Fatalf("SchemaVersion = %q; changing the schema requires updating consumers and this pin", SchemaVersion)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := sampleReport()
	enc, err := Encode(r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.HasSuffix(enc, []byte("\n")) {
		t.Fatalf("encoded report must end in a newline")
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(r, dec) {
		t.Fatalf("decoded report differs from original:\n%#v\nvs\n%#v", r, dec)
	}
	re, err := Encode(dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatalf("Encode(Decode(b)) != b:\n%s\nvs\n%s", enc, re)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	r := sampleReport()
	enc, _ := Encode(r)
	bad := bytes.Replace(enc, []byte("advisor-report/v3"), []byte("advisor-report/v1"), 1)
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "advisor-report/v3") {
		t.Fatalf("decode of v1 report: err = %v, want version mismatch naming v2", err)
	}
	if _, err := Decode([]byte(`{"findings":[]}`)); err == nil {
		t.Fatalf("decode without schema field must fail")
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	enc, _ := Encode(sampleReport())
	bad := bytes.Replace(enc, []byte(`"app"`), []byte(`"bogus": 1, "app"`), 1)
	if _, err := Decode(bad); err == nil {
		t.Fatalf("decode with unknown field must fail (schema stability)")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not json")); err == nil {
		t.Fatalf("decode of non-JSON must fail")
	}
}

// Rank is a total order: any shuffle of the findings ranks back to the
// same sequence.
func TestRankDeterministic(t *testing.T) {
	base := sampleReport().Findings
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]Finding(nil), base...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		Rank(shuffled)
		if !reflect.DeepEqual(base, shuffled) {
			t.Fatalf("trial %d: rank is order-sensitive:\n%v\nvs\n%v", trial, base, shuffled)
		}
	}
}

func TestRankOrdering(t *testing.T) {
	fs := sampleReport().Findings
	// Corroborated hazards (divergent barriers and shared races) form the
	// top group regardless of cycle benefit; the rest sort by benefit.
	if fs[0].Kind != KindBarrier {
		t.Fatalf("corroborated barrier must rank first, got %s", fs[0].Kind)
	}
	if fs[1].Kind != KindSharedRace {
		t.Fatalf("corroborated shared race must rank second, got %s", fs[1].Kind)
	}
	for i := 2; i+1 < len(fs); i++ {
		if fs[i].EstimatedCycles < fs[i+1].EstimatedCycles {
			t.Fatalf("findings %d and %d out of benefit order: %d < %d",
				i, i+1, fs[i].EstimatedCycles, fs[i+1].EstimatedCycles)
		}
	}
}

func TestPredictLinesParity(t *testing.T) {
	cases := []staticadvisor.AccessFinding{
		{Class: staticadvisor.ClassUniform, Bytes: 4},
		{Class: staticadvisor.ClassCoalesced, Bytes: 4, Stride: 4},
		{Class: staticadvisor.ClassCoalesced, Bytes: 8, Stride: -8},
		{Class: staticadvisor.ClassStrided, Bytes: 4, Stride: 64},
		{Class: staticadvisor.ClassStrided, Bytes: 4, Stride: 2048},
		{Class: staticadvisor.ClassDivergent, Bytes: 4},
	}
	for _, af := range cases {
		for _, ls := range []int{gpu.KeplerK40c().L1LineSize, gpu.PascalP100().L1LineSize} {
			got := PredictLines(af.Class.String(), af.Stride, af.Bytes, ls)
			want := af.PredictedLines(ls)
			if got != want {
				t.Errorf("PredictLines(%s, %d, %d, %d) = %d, want %d",
					af.Class, af.Stride, af.Bytes, ls, got, want)
			}
		}
	}
}

func TestJoinAccessBenefit(t *testing.T) {
	cfg := gpu.KeplerK40c()
	loc := ir.Loc{File: "a.mir", Line: 10, Col: 3}
	prof := &Profile{
		Mem:    map[ir.Loc]*analysis.SiteDivergence{},
		Blocks: map[BlockKey]*analysis.BlockDivergence{},
		Reuse:  map[ir.Loc]*analysis.SiteReuse{},
		MemDiv: &analysis.MemDivResult{LineSize: 128},
	}
	// 10 executions, 4 lines each; a 4B access could do it in 1 line.
	prof.Mem[loc] = &analysis.SiteDivergence{
		Loc: loc, Count: 10, WeightedSum: 40, MaxLines: 4, Diverged: 10,
	}
	fs := []Finding{{
		Kind: KindAccess,
		Site: Site{File: "a.mir", Line: 10, Col: 3, Func: "k", Block: "body"},
		Static: StaticEvidence{
			AccessOp: "ld", AccessBytes: 4, Class: "strided",
			StrideBytes: 512, PredictedLines: 4,
		},
	}}
	Join(fs, prof, cfg)
	f := fs[0]
	if f.Verdict != VerdictCorroborated {
		t.Fatalf("verdict = %s, want corroborated", f.Verdict)
	}
	// excess = 40 - 1*10 = 30 extra lines, each 1+L1FillOcc cycles.
	want := int64(30 * (1 + cfg.L1FillOcc))
	if f.EstimatedCycles != want {
		t.Fatalf("benefit = %d, want %d", f.EstimatedCycles, want)
	}
	if f.Dynamic == nil || !f.Dynamic.Observed || f.Dynamic.MeasuredLines != 4 {
		t.Fatalf("dynamic evidence = %+v", f.Dynamic)
	}

	// A flagged site that measured at the coalescing target is refuted
	// with zero benefit.
	prof.Mem[loc] = &analysis.SiteDivergence{Loc: loc, Count: 10, WeightedSum: 10, MaxLines: 1}
	fs[0].EstimatedCycles = 0
	Join(fs, prof, cfg)
	if fs[0].Verdict != VerdictRefuted || fs[0].EstimatedCycles != 0 {
		t.Fatalf("refuted join = %s/%d, want refuted/0", fs[0].Verdict, fs[0].EstimatedCycles)
	}

	// An unobserved site keeps observed=false.
	delete(prof.Mem, loc)
	Join(fs, prof, cfg)
	if fs[0].Verdict != VerdictUnobserved || fs[0].Dynamic.Observed {
		t.Fatalf("unobserved join = %s/%+v", fs[0].Verdict, fs[0].Dynamic)
	}
}

func TestJoinBranchBenefit(t *testing.T) {
	cfg := gpu.KeplerK40c()
	prof := &Profile{
		Mem: map[ir.Loc]*analysis.SiteDivergence{},
		Blocks: map[BlockKey]*analysis.BlockDivergence{
			{Func: "k", Block: "then"}: {Execs: 100, Divergent: 30},
			{Func: "k", Block: "else"}: {Execs: 100, Divergent: 20},
		},
		Reuse:  map[ir.Loc]*analysis.SiteReuse{},
		MemDiv: &analysis.MemDivResult{LineSize: 128},
	}
	fs := []Finding{{
		Kind: KindBranch,
		Site: Site{File: "a.mir", Line: 4, Col: 3, Func: "k", Block: "entry"},
		Static: StaticEvidence{
			Cond: "c", Shape: "varying",
			Region: []RegionBlock{{Name: "then", Instrs: 6}, {Name: "else", Instrs: 4}},
		},
	}}
	Join(fs, prof, cfg)
	f := fs[0]
	if f.Verdict != VerdictCorroborated {
		t.Fatalf("verdict = %s, want corroborated", f.Verdict)
	}
	want := int64((30*6 + 20*4) * cfg.IssueCost)
	if f.EstimatedCycles != want {
		t.Fatalf("benefit = %d, want %d", f.EstimatedCycles, want)
	}
	if f.Dynamic.WarpExecs != 200 || f.Dynamic.DivergentExecs != 50 {
		t.Fatalf("dynamic = %+v", f.Dynamic)
	}

	// Region executed but never diverged: refuted.
	prof.Blocks[BlockKey{Func: "k", Block: "then"}].Divergent = 0
	prof.Blocks[BlockKey{Func: "k", Block: "else"}].Divergent = 0
	fs[0].EstimatedCycles = 0
	Join(fs, prof, cfg)
	if fs[0].Verdict != VerdictRefuted || fs[0].EstimatedCycles != 0 {
		t.Fatalf("refuted join = %s/%d", fs[0].Verdict, fs[0].EstimatedCycles)
	}
}

func TestJoinBarrier(t *testing.T) {
	cfg := gpu.KeplerK40c()
	prof := &Profile{
		Mem: map[ir.Loc]*analysis.SiteDivergence{},
		Blocks: map[BlockKey]*analysis.BlockDivergence{
			{Func: "k", Block: "sync"}: {Execs: 10, Divergent: 3},
		},
		Reuse:  map[ir.Loc]*analysis.SiteReuse{},
		MemDiv: &analysis.MemDivResult{LineSize: 128},
	}
	fs := []Finding{{
		Kind:   KindBarrier,
		Site:   Site{File: "a.mir", Line: 20, Col: 3, Func: "k", Block: "sync"},
		Static: StaticEvidence{Shape: "divergent-control"},
	}}
	Join(fs, prof, cfg)
	if fs[0].Verdict != VerdictCorroborated || fs[0].Dynamic.DivergentExecs != 3 {
		t.Fatalf("barrier join = %s/%+v", fs[0].Verdict, fs[0].Dynamic)
	}
	prof.Blocks[BlockKey{Func: "k", Block: "sync"}].Divergent = 0
	Join(fs, prof, cfg)
	if fs[0].Verdict != VerdictRefuted {
		t.Fatalf("converged barrier verdict = %s, want refuted", fs[0].Verdict)
	}
}

func TestWriteTextStable(t *testing.T) {
	var a, b bytes.Buffer
	WriteText(&a, sampleReport())
	WriteText(&b, sampleReport())
	if a.String() != b.String() {
		t.Fatalf("WriteText is not deterministic")
	}
	for _, want := range []string{
		"advisor report: demo on kepler-k40c",
		"findings: 6 total — 5 corroborated, 0 refuted, 1 unobserved",
		"[divergent-barrier]",
		"benefit: ~13888 cycles",
		"predicted 16-way bank conflict (stride 64B)",
		"measured degree 16.00 (max 16), 480 extra bank passes",
		"read of shared @tile races a same-interval write from block body at a.mir:48:3",
		"63 lane reads hit another thread's same-interval write",
	} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, a.String())
		}
	}
}

// FuzzReportDecode feeds arbitrary bytes to the strict report decoder:
// it never panics, and a report it accepts re-encodes to bytes that
// decode again and re-encode to themselves (the canonical form is a
// fixed point). Input already in canonical form decodes to a report
// equal to the one its re-encoding decodes to. Seeds: the JSON goldens
// of cmd/cudaadvisor, the sample report, and (in testdata/fuzz) the
// advise -format json body of cmd/cudaadvisor/testdata/smem.mir.
func FuzzReportDecode(f *testing.F) {
	goldens, err := filepath.Glob("../../cmd/cudaadvisor/testdata/*json*.golden")
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no JSON goldens to seed from (%v)", err)
	}
	for _, g := range goldens {
		b, err := os.ReadFile(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	enc, err := Encode(sampleReport())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := Encode(r)
		if err != nil {
			t.Fatalf("Encode of an accepted report: %v", err)
		}
		r2, err := Decode(enc)
		if err != nil {
			t.Fatalf("the re-encoded report does not decode: %v\n%s", err, enc)
		}
		re, err := Encode(r2)
		if err != nil {
			t.Fatalf("Encode of the decoded re-encoding: %v", err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\nvs\n%s", enc, re)
		}
		if bytes.Equal(data, enc) && !reflect.DeepEqual(r, r2) {
			t.Fatalf("canonical input decodes to a different report than its re-encoding:\n%#v\nvs\n%#v", r, r2)
		}
	})
}
