package analysis

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/trace"
)

// jsonKernel builds one kernel instance's trace: warp loads at three
// sites (two of them on one line, apart only in the column) whose
// stride, and so divergence, grows with k, and executions of three
// blocks, block k%3 by a partial warp.
func jsonKernel(k int) *trace.KernelTrace {
	tr := trace.NewKernelTrace("kern", k, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	for s, at := range []ir.Loc{{File: "k.mir", Line: 7, Col: 3}, {File: "k.mir", Line: 7, Col: 9}, {File: "j.mir", Line: 2, Col: 1}} {
		rec := trace.MemAccess{Mask: 0xFFFFFFFF, Kind: trace.Load, Space: ir.Global, Bits: 32,
			Loc: tr.Locs.Intern(at), Ctx: int32(10*k + s)}
		var addrs [trace.WarpSize]uint64
		for l := range addrs {
			addrs[l] = uint64(l * 4 * (1 + k*(s+1)))
		}
		addRec(tr, rec, addrs)
	}
	for b := int32(0); b < 3; b++ {
		be := trace.BlockExec{Block: b, Mask: 0xFFFFFFFF, InitMask: 0xFFFFFFFF,
			Loc: tr.Locs.Intern(ir.Loc{File: "k.mir", Line: int(b) + 1, Col: 1}), Ctx: int32(k)}
		if int(b) == k%3 {
			be.Mask = 0xFFFF
		}
		tr.Blocks = append(tr.Blocks, be)
	}
	return tr
}

var jsonTables = &instrument.Tables{Blocks: []instrument.BlockInfo{
	{Func: "kern", Block: "entry"},
	{Func: "kern", Block: "body"},
	{Func: "kern", Block: "exit"},
}}

// jsonResults merges four kernel instances, as the analysis bundle does.
func jsonResults() (*MemDivResult, *BranchDivResult) {
	md, bd := &MemDivResult{LineSize: 128}, &BranchDivResult{}
	for k := 0; k < 4; k++ {
		tr := jsonKernel(k)
		md.Merge(MemDivergence(tr, 128))
		bd.Merge(BranchDivergence(tr, jsonTables))
	}
	return md, bd
}

// sameExported fails unless got and want agree on every exported field.
func sameExported(t *testing.T, got, want any) {
	t.Helper()
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < w.NumField(); i++ {
		if f := w.Type().Field(i); f.IsExported() && !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Errorf("%s.%s = %v, want %v", w.Type().Name(), f.Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
}

// TestResultJSONRoundTrip: the canonical JSON form of the two results
// with unexported tables loses nothing — every exported field, every
// site and every block comes back — and equal results encode to equal
// bytes, whatever order their maps were filled and are walked in.
func TestResultJSONRoundTrip(t *testing.T) {
	md, bd := jsonResults()
	if len(md.Sites()) != 3 || len(bd.Blocks()) != 3 || bd.Divergent == 0 || md.Degree() <= 1 {
		t.Fatalf("fixture too thin: %d sites, %d blocks, %d divergent, degree %g",
			len(md.Sites()), len(bd.Blocks()), bd.Divergent, md.Degree())
	}
	mdRaw, err := json.Marshal(md)
	if err != nil {
		t.Fatal(err)
	}
	bdRaw, err := json.Marshal(bd)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		md2, bd2 := jsonResults()
		if again, _ := json.Marshal(md2); !bytes.Equal(again, mdRaw) {
			t.Fatalf("MemDivResult encoding is not stable:\n%s\n%s", again, mdRaw)
		}
		if again, _ := json.Marshal(bd2); !bytes.Equal(again, bdRaw) {
			t.Fatalf("BranchDivResult encoding is not stable:\n%s\n%s", again, bdRaw)
		}
	}

	var mdGot MemDivResult
	if err := json.Unmarshal(mdRaw, &mdGot); err != nil {
		t.Fatal(err)
	}
	sameExported(t, &mdGot, md)
	sites := func(r *MemDivResult) map[ir.Loc]SiteDivergence {
		out := map[ir.Loc]SiteDivergence{}
		for _, s := range r.Sites() {
			out[s.Loc] = *s
		}
		return out
	}
	if got, want := sites(&mdGot), sites(md); len(mdGot.Sites()) != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("decoded sites = %+v, want %+v", got, want)
	}

	var bdGot BranchDivResult
	if err := json.Unmarshal(bdRaw, &bdGot); err != nil {
		t.Fatal(err)
	}
	sameExported(t, &bdGot, bd)
	if got, want := bdGot.Blocks(), bd.Blocks(); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded blocks = %+v, want %+v", got, want)
	}

	// A decoded result is a live one: it merges like the original.
	mdGot.Merge(md)
	if mdGot.Total != 2*md.Total || len(mdGot.Sites()) != 3 {
		t.Errorf("decoded result merged to total %d over %d sites, want %d over 3", mdGot.Total, len(mdGot.Sites()), 2*md.Total)
	}
}

// TestMemDivJSONRejectsWrongLengthDist: a distribution that does not
// have one bin per possible line count is refused, not padded or cut.
func TestMemDivJSONRejectsWrongLengthDist(t *testing.T) {
	md, _ := jsonResults()
	raw, err := json.Marshal(md)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, len(md.Dist) - 1, len(md.Dist) + 1} {
		doc["Dist"], _ = json.Marshal(make([]int64, n))
		bad, _ := json.Marshal(doc)
		if err := json.Unmarshal(bad, new(MemDivResult)); err == nil {
			t.Errorf("a %d-bin distribution decoded without error", n)
		}
	}
	doc["Dist"], _ = json.Marshal(md.Dist[:])
	good, _ := json.Marshal(doc)
	if err := json.Unmarshal(good, new(MemDivResult)); err != nil {
		t.Errorf("the untouched document no longer decodes: %v", err)
	}
}
