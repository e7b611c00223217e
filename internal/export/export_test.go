package export

import (
	"bytes"
	"strings"
	"testing"

	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/profiler"
	"cudaadvisor/internal/trace"
)

// TestEscapeFrameRoundTrip: UnescapeFrame inverts EscapeFrame exactly,
// and escaped names never contain the folded format's reserved bytes.
func TestEscapeFrameRoundTrip(t *testing.T) {
	for _, name := range []string{
		"",
		"plain",
		"a;b",
		"a b c",
		"100% done",
		"%;% ;;",
		"λ→µ unicode",
		"tabs\tand\nnewlines\r",
		"[GPU]kernel<int, 4>",
		"%%25",
	} {
		esc := EscapeFrame(name)
		if strings.ContainsAny(esc, "; \n\r\t") {
			t.Errorf("EscapeFrame(%q) = %q still contains reserved bytes", name, esc)
		}
		got, err := UnescapeFrame(esc)
		if err != nil {
			t.Errorf("UnescapeFrame(EscapeFrame(%q)): %v", name, err)
		}
		if got != name {
			t.Errorf("round trip %q -> %q -> %q", name, esc, got)
		}
	}
}

func TestUnescapeFrameErrors(t *testing.T) {
	for _, s := range []string{"%", "a%2", "%zz", "ok%", "%4g"} {
		if got, err := UnescapeFrame(s); err == nil {
			t.Errorf("UnescapeFrame(%q) = %q, want error", s, got)
		}
	}
}

func TestParseFoldedLine(t *testing.T) {
	fs, err := ParseFoldedLine("main;[CPU->GPU];[GPU]Kernel 42")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"main", "[CPU->GPU]", "[GPU]Kernel"}
	if fs.Weight != 42 || len(fs.Frames) != len(want) {
		t.Fatalf("parsed %+v, want frames %v weight 42", fs, want)
	}
	for i := range want {
		if fs.Frames[i] != want[i] {
			t.Errorf("frame %d = %q, want %q", i, fs.Frames[i], want[i])
		}
	}

	// Escaped separators decode back into frame names.
	fs, err = ParseFoldedLine("a%3bb;c%20d 7")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Frames[0] != "a;b" || fs.Frames[1] != "c d" {
		t.Errorf("unescaped frames = %v", fs.Frames)
	}

	for _, line := range []string{"noweight", "a b", "a 12x", ""} {
		if _, err := ParseFoldedLine(line); err == nil {
			t.Errorf("ParseFoldedLine(%q) succeeded, want error", line)
		}
	}
}

func TestParseFoldedSkipsCommentsAndSums(t *testing.T) {
	doc := []byte("# [sampled] header line\n\nmain;k 3\nmain;k2 4\n")
	stacks, err := ParseFolded(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 {
		t.Fatalf("parsed %d stacks, want 2", len(stacks))
	}
	if total := stacks[0].Weight + stacks[1].Weight; total != 7 {
		t.Errorf("folded total = %d, want 7", total)
	}
}

// corruptProfile hand-builds a profile whose trace records carry
// out-of-range context and location ids — the shape a foreign or damaged
// trace would present — plus one well-formed record for contrast.
func corruptProfile(t *testing.T) *profiler.Profiler {
	t.Helper()
	p := profiler.New()
	hostMain := trace.Frame{Func: "main", Loc: ir.Loc{File: "host.c", Line: 10, Col: 1}}
	p.HostEnter(hostMain.Func, hostMain.Loc)
	host := p.CCT.Child(trace.Root, hostMain) // the node HostEnter pushed
	base := p.CCT.Child(host, trace.Frame{Func: "kern", Loc: ir.Loc{File: "k.mir", Line: 1, Col: 1}})
	tr := trace.NewKernelTrace("kern", 0, [3]int{1, 1, 1}, [3]int{32, 1, 1})
	goodLoc := tr.Locs.Intern(ir.Loc{File: "k.mir", Line: 5, Col: 3})

	good := trace.MemAccess{Mask: 0xF, Space: ir.Global, Bits: 32, Loc: goodLoc, Ctx: base}
	bad := trace.MemAccess{Mask: 0xF, Space: ir.Global, Bits: 32, Loc: 999, Ctx: 9999}
	addrs := [trace.WarpSize]uint64{0, 4, 8, 12}
	for _, rec := range []trace.MemAccess{good, bad} {
		tr.AddMem(rec, &addrs)
	}
	tr.Blocks = append(tr.Blocks,
		trace.BlockExec{Mask: 1, InitMask: 3, Loc: -5, Ctx: -2})
	p.Kernels = append(p.Kernels, &profiler.KernelProfile{Trace: tr, BaseCtx: base})
	return p
}

// TestWriteFoldedSentinels: corrupt context/location ids must surface as
// the tree's "??" sentinels, not panic and not vanish from the output.
func TestWriteFoldedSentinels(t *testing.T) {
	p := corruptProfile(t)

	var lines bytes.Buffer
	if err := WriteFolded(&lines, p, WeightLines, 128); err != nil {
		t.Fatalf("lines weight over corrupt ids: %v", err)
	}
	out := lines.String()
	if !strings.Contains(out, "??;[GPU]??:0:0 ") {
		t.Errorf("corrupt mem record did not render as sentinel frames:\n%s", out)
	}
	if !strings.Contains(out, "main;[CPU->GPU];[GPU]kern;[GPU]k.mir:5:3 ") {
		t.Errorf("well-formed mem record lost its stack:\n%s", out)
	}

	var div bytes.Buffer
	if err := WriteFolded(&div, p, WeightDivergence, 128); err != nil {
		t.Fatalf("divergence weight over negative ids: %v", err)
	}
	if !strings.Contains(div.String(), "??;[GPU]??:0:0 1") {
		t.Errorf("negative-id block record did not render as sentinels:\n%s", div.String())
	}

	// Everything re-parses and reconciles.
	stacks, err := ParseFolded(lines.Bytes())
	total := int64(0)
	for _, s := range stacks {
		total += s.Weight
	}
	if err != nil || total != 2 {
		t.Errorf("lines total = %d, %v; want 2 (one line each)", total, err)
	}
}

func TestWriteFoldedUnknownWeight(t *testing.T) {
	err := WriteFolded(&bytes.Buffer{}, profiler.New(), "bogus", 128)
	if err == nil || !strings.Contains(err.Error(), `unknown weight "bogus"`) {
		t.Fatalf("err = %v, want unknown-weight naming the valid set", err)
	}
	for _, w := range Weights {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("unknown-weight error does not list %q: %v", w, err)
		}
	}
}

func TestWriteChromeTraceRequiresSchedules(t *testing.T) {
	p := corruptProfile(t)
	err := WriteChromeTrace(&bytes.Buffer{}, p)
	if err == nil || !strings.Contains(err.Error(), "RecordSchedule") {
		t.Fatalf("err = %v, want no-schedules error", err)
	}
}

func TestValidWeight(t *testing.T) {
	for _, w := range Weights {
		if !ValidWeight(w) {
			t.Errorf("ValidWeight(%q) = false", w)
		}
	}
	if ValidWeight("cycle") || ValidWeight("") {
		t.Error("ValidWeight accepted an invalid weight")
	}
}

func TestValidateChrome(t *testing.T) {
	valid := `[
  {"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"SM 0"}},
  {"name":"Kernel","ph":"B","ts":0,"pid":0,"tid":0,"args":{"kernel":"Kernel"}},
  {"name":"cta","ph":"B","ts":1,"pid":0,"tid":1,"args":{"cta":"0"}},
  {"name":"cta","ph":"E","ts":5,"pid":0,"tid":1},
  {"name":"Kernel","ph":"E","ts":9,"pid":0,"tid":0}
]
`
	if err := ValidateChrome([]byte(valid)); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	cases := map[string]string{
		"empty array":   "[]\n",
		"unknown field": `[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0,"dur":5},{"name":"a","ph":"E","ts":1,"pid":0,"tid":0}]`,
		"trailing data": "[]\n[]\n",
		"unbalanced B":  `[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0}]`,
		"E without B":   `[{"name":"a","ph":"E","ts":0,"pid":0,"tid":0}]`,
		"mismatched E":  `[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0},{"name":"b","ph":"E","ts":1,"pid":0,"tid":0}]`,
		"ts regression": `[{"name":"a","ph":"B","ts":5,"pid":0,"tid":0},{"name":"a","ph":"E","ts":1,"pid":0,"tid":0}]`,
		"meta sans name": `[{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0},` +
			`{"name":"a","ph":"B","ts":0,"pid":0,"tid":0},{"name":"a","ph":"E","ts":1,"pid":0,"tid":0}]`,
		"not json": "folded;stack 42\n",
	}
	for name, doc := range cases {
		if err := ValidateChrome([]byte(doc)); err == nil {
			t.Errorf("%s: validator accepted invalid trace", name)
		}
	}

	// Tracks are independent: interleaved events on different tids with
	// locally-monotone timestamps pass.
	interleaved := `[
  {"name":"a","ph":"B","ts":0,"pid":0,"tid":0},
  {"name":"b","ph":"B","ts":0,"pid":1,"tid":0},
  {"name":"b","ph":"E","ts":3,"pid":1,"tid":0},
  {"name":"a","ph":"E","ts":9,"pid":0,"tid":0}
]`
	if err := ValidateChrome([]byte(interleaved)); err != nil {
		t.Fatalf("interleaved per-track trace rejected: %v", err)
	}
}
