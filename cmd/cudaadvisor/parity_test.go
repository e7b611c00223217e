package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/serve"
)

// TestCLIDaemonParity drives one table of requests through both
// transports of the command layer — run(args…) and the serve handler —
// and holds them to the same answer: a valid request prints the same
// bytes on stdout as the daemon sends in its body, an invalid one exits
// 1 where the daemon answers 400, with the same message. The valid rows
// are every combination class the benchmark drives; the invalid rows
// are every rule of experiments.NewRequest. What only the daemon
// refuses (scale above its admission bound, oversized uploads, ?inject=)
// is internal/serve's to test.
func TestCLIDaemonParity(t *testing.T) {
	garbage := filepath.Join(t.TempDir(), "garbage.mir")
	if err := os.WriteFile(garbage, []byte("this is not ir"), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		cli    string // the command line, split on spaces
		query  string // the same parameters as a URL query
		upload string // a .mir target: the CLI's last argument, the daemon's POST body
		reject string // non-empty: both sides must refuse, with a message containing this
	}{
		{cli: "profile nn", query: "app=nn"},
		{cli: "profile -mode rd nn", query: "app=nn&mode=rd&smem=0"},
		{cli: "profile -mode md -smem=false nn", query: "app=nn&mode=md&smem=false"},
		{cli: "profile -mode bd -arch pascal nn", query: "app=nn&mode=bd&arch=pascal"},
		{cli: "profile -mode all -scale 2 nn", query: "app=nn&mode=all&scale=2"},
		{cli: "profile -smem -mode rd nn", query: "app=nn&mode=rd&smem=1"},
		{cli: "profile -smem=t -mode md nn", query: "app=nn&mode=md&smem=true"},
		{cli: "profile -smem -mode bd nn", query: "app=nn&mode=bd&smem=t"},
		{cli: "profile -smem nn", query: "app=nn&smem=1&mode=all"},
		{cli: "advise nn", query: "app=nn"},
		{cli: "advise -format json -arch pascal nn", query: "app=nn&format=json&arch=pascal"},
		{cli: "export nn", query: "app=nn"},
		{cli: "export -format folded -weight cycles nn", query: "app=nn&format=folded&weight=cycles"},
		{cli: "export -weight lines nn", query: "app=nn&weight=lines"},
		{cli: "export -weight divergence nn", query: "app=nn&weight=divergence"},
		{cli: "export -weight reuse nn", query: "app=nn&weight=reuse"},
		{cli: "export -format chrome nn", query: "app=nn&format=chrome"},
		{cli: "lint bfs", query: "app=bfs"},
		{cli: "lint -format json -arch pascal bfs", query: "app=bfs&format=json&arch=pascal"},
		{cli: "lint", upload: "testdata/fixture.mir"},
		{cli: "lint -format json", query: "format=json", upload: "testdata/smem.mir"},
		{cli: "advise", upload: "testdata/fixture.mir"},
		{cli: "advise -format json", query: "format=json", upload: "testdata/smem.mir"},

		{cli: "profile", reject: "profile wants one application name"},
		{cli: "export", reject: "export wants one application name"},
		{cli: "lint", reject: "lint wants one application name or .mir module"},
		{cli: "advise", reject: "advise wants one application name or .mir module"},
		{cli: "profile nosuch", query: "app=nosuch", reject: `unknown application "nosuch"`},
		{cli: "lint nosuch", query: "app=nosuch", reject: `unknown application "nosuch"`},
		{cli: "profile -arch volta bfs", query: "app=bfs&arch=volta", reject: `unknown architecture "volta" (want kepler or pascal)`},
		{cli: "advise -arch=vega bfs", query: "app=bfs&arch=vega", reject: `unknown architecture "vega"`},
		{cli: "profile -mode xyzzy bfs", query: "app=bfs&mode=xyzzy", reject: `unknown profile mode "xyzzy" (want rd, md, bd, or all)`},
		{cli: "advise -format yaml bfs", query: "app=bfs&format=yaml", reject: `unknown advise format "yaml" (want text or json)`},
		{cli: "lint -format xml bfs", query: "app=bfs&format=xml", reject: `unknown lint format "xml"`},
		{cli: "export -format svg bfs", query: "app=bfs&format=svg", reject: `unknown export format "svg" (want folded or chrome)`},
		{cli: "export -weight bytes bfs", query: "app=bfs&weight=bytes", reject: `unknown export weight "bytes"`},
		{cli: "profile -scale 0 nn", query: "app=nn&scale=0", reject: `scale="0": want an integer ≥ 1`},
		{cli: "advise -scale -3 nn", query: "app=nn&scale=-3", reject: `scale="-3": want an integer ≥ 1`},
		{cli: "export -scale two nn", query: "app=nn&scale=two", reject: `scale="two": want an integer ≥ 1`},
		{cli: "profile -smem=yes nn", query: "app=nn&smem=yes", reject: `smem="yes": want a boolean`},
		{cli: "export", upload: "testdata/fixture.mir", reject: "no runnable host driver"},
		{cli: "profile", upload: "testdata/fixture.mir", reject: "no runnable host driver"},
		{cli: "lint", upload: garbage, reject: garbage},
	}
	srv := serve.New(serve.Config{Cache: profcache.New("")})
	for _, row := range rows {
		args := strings.Fields(row.cli)
		target := "/v1/" + args[0] + "?" + row.query
		req := httptest.NewRequest(http.MethodGet, target, nil)
		if row.upload != "" {
			src, err := os.ReadFile(row.upload)
			if err != nil {
				t.Fatal(err)
			}
			args = append(args, row.upload)
			req = httptest.NewRequest(http.MethodPost, target+"&name="+url.QueryEscape(row.upload), bytes.NewReader(src))
		}
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		if row.reject == "" {
			if code != 0 || rec.Code != http.StatusOK {
				t.Errorf("%v: exit %d (%s), status %d (%s); want 0 and 200", args, code, stderr.String(), rec.Code, rec.Body.String())
			} else if !bytes.Equal(stdout.Bytes(), rec.Body.Bytes()) {
				t.Errorf("%v: stdout (%d bytes) differs from the %s body (%d bytes)", args, stdout.Len(), target, rec.Body.Len())
			}
			continue
		}
		if code != 1 || rec.Code != http.StatusBadRequest {
			t.Errorf("%v: exit %d, status %d; want 1 and 400", args, code, rec.Code)
		}
		msg := strings.TrimPrefix(stderr.String(), "cudaadvisor: ")
		if msg != rec.Body.String() || !strings.Contains(msg, row.reject) {
			t.Errorf("%v: CLI says %q, daemon says %q; want one message containing %q", args, msg, rec.Body.String(), row.reject)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: refused request wrote %d bytes to stdout", args, stdout.Len())
		}
	}
}
