package serve_test

// The serve acceptance suite: byte-identity against the shared
// renderers (cold and warm, serial and -j 8), single-flight collapse
// under concurrent identical requests, deterministic load shedding,
// chaos (faultinject-through-serve) with the daemon healthy afterwards,
// partial-result keep-going responses, and request deadlines. These run
// under -race in CI — the handler path is the concurrency stress test.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/findings"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/report"
	"cudaadvisor/internal/runner"
	"cudaadvisor/internal/serve"
	"cudaadvisor/internal/staticadvisor"
)

func newServer(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(cfg))
	t.Cleanup(ts.Close)
	return ts
}

// get fetches path and returns status, headers, and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// statsz mirrors the /statsz wire format.
type statsz struct {
	Cache struct {
		Requests   int64 `json:"requests"`
		MemoHits   int64 `json:"memo_hits"`
		DiskHits   int64 `json:"disk_hits"`
		Misses     int64 `json:"misses"`
		BadEntries int64 `json:"bad_entries"`
		Evictions  int64 `json:"evictions"`
		Heals      int64 `json:"heals"`
		Runs       int64 `json:"runs"`
		RunShares  int64 `json:"run_shares"`
	} `json:"cache"`
	Gate struct {
		InFlight int   `json:"in_flight"`
		Waiting  int   `json:"waiting"`
		Admitted int64 `json:"admitted"`
		Shed     int64 `json:"shed"`
	} `json:"gate"`
}

func getStats(t *testing.T, ts *httptest.Server) statsz {
	t.Helper()
	status, _, body := get(t, ts, "/statsz")
	if status != http.StatusOK {
		t.Fatalf("/statsz = %d", status)
	}
	var s statsz
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("unparseable /statsz body %q: %v", body, err)
	}
	return s
}

// ref renders the uncached serial reference for one request through the
// command layer the CLI uses — the bytes every serve response must
// match.
func ref(t *testing.T, cmd string, params map[string]string, ir string) string {
	t.Helper()
	req, err := experiments.NewRequest(cmd, func(name string) string { return params[name] }, []byte(ir))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := req.Write(&b, experiments.Env{}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// refProfile is ref for a bfs profile in one mode.
func refProfile(t *testing.T, mode string) string {
	t.Helper()
	return ref(t, "profile", map[string]string{"app": "bfs", "mode": mode}, "")
}

// TestHealthz: the probe endpoint answers without touching the pipeline.
func TestHealthz(t *testing.T) {
	ts := newServer(t, serve.Config{})
	status, _, body := get(t, ts, "/healthz")
	if status != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", status, body)
	}
}

// TestProfileByteIdentityColdWarm: a serve response equals the CLI
// renderer's output byte for byte — cold cache, warm cache (same
// process and a fresh process on the same dir), serial and -j 8.
func TestProfileByteIdentityColdWarm(t *testing.T) {
	want := refProfile(t, "all")
	dir := t.TempDir()

	j8 := newServer(t, serve.Config{Pool: runner.New(8), Cache: profcache.New(dir)})
	status, _, cold := get(t, j8, "/v1/profile?app=bfs")
	if status != http.StatusOK {
		t.Fatalf("cold profile = %d: %s", status, cold)
	}
	if cold != want {
		t.Errorf("cold -j 8 response differs from the CLI renderer\n--- got\n%s--- want\n%s", cold, want)
	}
	if s := getStats(t, j8); s.Cache.Misses != 1 {
		t.Errorf("cold stats: misses = %d, want 1", s.Cache.Misses)
	}

	if _, _, warm := get(t, j8, "/v1/profile?app=bfs"); warm != want {
		t.Errorf("warm same-process response differs")
	}
	if s := getStats(t, j8); s.Cache.Misses != 1 || s.Cache.MemoHits != 1 {
		t.Errorf("warm stats: %+v, want the rerun served from the memoizer", s.Cache)
	}

	// A fresh serial daemon on the same directory: warm from disk.
	j1 := newServer(t, serve.Config{Cache: profcache.New(dir)})
	if _, _, warm := get(t, j1, "/v1/profile?app=bfs"); warm != want {
		t.Errorf("warm cross-process response differs")
	}
	if s := getStats(t, j1); s.Cache.Misses != 0 || s.Cache.DiskHits != 1 || s.Cache.BadEntries != 0 {
		t.Errorf("cross-process warm stats: %+v, want one clean disk hit", s.Cache)
	}
}

// TestStaticParity: lint and advise answers — app targets and .mir
// uploads — equal the command layer's rendering byte for byte.
func TestStaticParity(t *testing.T) {
	ts := newServer(t, serve.Config{Cache: profcache.New("")})

	wantLint := ref(t, "lint", map[string]string{"app": "bfs"}, "")
	if status, _, body := get(t, ts, "/v1/lint?app=bfs"); status != http.StatusOK || body != wantLint {
		t.Errorf("/v1/lint?app=bfs = %d, body parity %v", status, body == wantLint)
	}

	// Upload: lint the module source the app itself carries.
	src := apps.ByName("bfs").Source
	resp, err := http.Post(ts.URL+"/v1/lint?name=bfs.mir&format=json", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantUp := ref(t, "lint", map[string]string{"name": "bfs.mir", "format": "json"}, src)
	if resp.StatusCode != http.StatusOK || string(body) != wantUp {
		t.Errorf("uploaded lint = %d, body parity %v", resp.StatusCode, string(body) == wantUp)
	}

	// Advise over an app goes through the dynamic path and the cache.
	wantAdvise := ref(t, "advise", map[string]string{"app": "bfs", "format": "json"}, "")
	if status, _, body := get(t, ts, "/v1/advise?app=bfs&format=json"); status != http.StatusOK || body != wantAdvise {
		t.Errorf("/v1/advise?app=bfs = %d, body parity %v", status, body == wantAdvise)
	}
}

// freshLint renders `lint` of a built-in app from a module parsed and
// analysed for this call alone, never the daemon's shared analysis, so a
// change the daemon's rendering makes to that analysis shows as a diff.
func freshLint(t *testing.T, app *apps.App, format string, arch gpu.ArchConfig) string {
	t.Helper()
	m, err := app.Module()
	if err != nil {
		t.Fatal(err)
	}
	res, err := staticadvisor.AnalyzeLayout(m, staticadvisor.Layout{Block: app.BlockDims})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if format == "text" {
		report.StaticLint(&b, res)
		return b.String()
	}
	fs := findings.FromStatic(res, arch.L1LineSize)
	raw, err := findings.Encode(findings.NewReport(res.Module.Name, arch.Name, arch.L1LineSize, 0, fs))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestLintFreshParity: for every app, format and architecture the
// daemon's /v1/lint bytes equal a fresh analysis's rendering, before and
// after /v1/advise fills of the same app join dynamic evidence into
// findings built from the daemon's analysis.
func TestLintFreshParity(t *testing.T) {
	ts := newServer(t, serve.Config{Cache: profcache.New("")})
	archs := map[string]gpu.ArchConfig{"kepler": gpu.KeplerK40c(), "pascal": gpu.PascalP100()}
	for _, app := range apps.InTableOrder() {
		want := map[string]string{}
		for param, arch := range archs {
			for _, format := range []string{"text", "json"} {
				want["/v1/lint?app="+app.Name+"&format="+format+"&arch="+param] = freshLint(t, app, format, arch)
			}
		}
		check := func(when string) {
			for path, w := range want {
				if status, _, body := get(t, ts, path); status != http.StatusOK || body != w {
					t.Errorf("%s %s = %d, body parity %v", when, path, status, body == w)
				}
			}
		}
		check("before advise:")
		for param := range archs {
			path := "/v1/advise?app=" + app.Name + "&format=json&arch=" + param
			if status, _, body := get(t, ts, path); status != http.StatusOK {
				t.Fatalf("%s = %d: %.200s", path, status, body)
			}
		}
		check("after advise:")
	}
}

// TestLintConcurrentWithAdvise: lint and advise of one app, asked for
// together by many clients, answer the uncached renderer's bytes (run
// under -race, this is the check that the shared analysis is only read).
func TestLintConcurrentWithAdvise(t *testing.T) {
	ts := newServer(t, serve.Config{Pool: runner.New(4), Cache: profcache.New("")})
	queries := []map[string]string{
		{"cmd": "lint", "format": "text"},
		{"cmd": "lint", "format": "json"},
		{"cmd": "lint", "format": "json", "arch": "pascal"},
		{"cmd": "advise", "format": "json"},
		{"cmd": "advise", "format": "text", "arch": "pascal"},
	}
	paths, wants := make([]string, len(queries)), make([]string, len(queries))
	for i, q := range queries {
		q["app"] = "bicg"
		wants[i] = ref(t, q["cmd"], q, "")
		paths[i] = "/v1/" + q["cmd"] + "?app=bicg&format=" + q["format"] + "&arch=" + q["arch"]
	}
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		for i := range paths {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if status, _, body := get(t, ts, paths[i]); status != http.StatusOK || body != wants[i] {
					t.Errorf("%s = %d, body parity %v", paths[i], status, body == wants[i])
				}
			}(i)
		}
	}
	wg.Wait()
}

// TestSingleFlightCollapse: concurrent identical requests collapse to
// one fill; distinct requests fill separately. Asserted through
// /statsz, the way the CI smoke test does it.
func TestSingleFlightCollapse(t *testing.T) {
	ts := newServer(t, serve.Config{
		Pool:  runner.New(8),
		Cache: profcache.New(""),
		Gate:  runner.NewGate(16, 16),
	})
	want := refProfile(t, "rd")

	const dup = 8
	bodies := make([]string, dup)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, body := get(t, ts, "/v1/profile?app=bfs&mode=rd")
			if status != http.StatusOK {
				t.Errorf("request %d = %d", i, status)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if b != want {
			t.Errorf("concurrent response %d differs from the reference", i)
		}
	}
	s := getStats(t, ts)
	if s.Cache.Misses != 1 {
		t.Errorf("%d identical requests ran %d fills; single-flight must collapse them to 1", dup, s.Cache.Misses)
	}
	if s.Cache.MemoHits != dup-1 {
		t.Errorf("memo hits = %d, want %d", s.Cache.MemoHits, dup-1)
	}

	// A distinct request (different rendering) is its own key.
	if status, _, _ := get(t, ts, "/v1/profile?app=bfs&mode=bd"); status != http.StatusOK {
		t.Fatalf("distinct request = %d", status)
	}
	// Its key is its own; its run is the one the first fill simulated.
	if s := getStats(t, ts); s.Cache.Misses != 2 || s.Cache.Runs != 1 || s.Cache.RunShares != 1 {
		t.Errorf("distinct request: %+v, want its own fill (2 misses) from the shared run (1 run, 1 share)", s.Cache)
	}
	if s := getStats(t, ts); s.Gate.Admitted != int64(dup+1) || s.Gate.Shed != 0 {
		t.Errorf("gate counters: %+v", s.Gate)
	}
}

// TestOwnerDisconnectHandsOver: four identical requests, and the client
// of the first — the one running the fill — disconnects. The other three
// must not inherit its cancellation: one takes the fill over and all
// three answer 200 with the CLI's bytes. The test holds every worker of
// the server's pool, so the owner's fill stays parked at its first step,
// the wait for a worker, until its handler has given up.
func TestOwnerDisconnectHandsOver(t *testing.T) {
	gate, pool := runner.NewGate(16, 16), runner.New(2)
	ts := newServer(t, serve.Config{Pool: pool, Cache: profcache.New(""), Gate: gate})
	const path = "/v1/profile?app=syr2k&mode=rd"
	want := ref(t, "profile", map[string]string{"app": "syr2k", "mode": "rd"}, "")
	until := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s", what)
			}
		}
	}
	admitted := func(n int64) {
		t.Helper()
		until(fmt.Sprintf("%d requests are admitted", n), func() bool { return gate.Admitted() >= n })
	}

	held, free := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(free) })
	defer release() // before the server's cleanup waits for its handlers
	for i := 0; i < pool.Workers(); i++ {
		go runner.DoCtx(context.Background(), pool, func(context.Context) (any, error) {
			held <- struct{}{}
			<-free
			return nil, nil
		})
		<-held
	}

	ownerCtx, disconnect := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ownerCtx, http.MethodGet, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		ownerDone <- err
	}()
	admitted(1)
	// Admission is the last thing the daemon shows of a request before
	// it claims the cache entry; the pause lets the owner claim it first.
	// Were a waiter to get there first, the disconnected request would be
	// a waiter, and every assertion below would hold just the same.
	time.Sleep(50 * time.Millisecond)

	const waiters = 3
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if status, _, body := get(t, ts, path); status != http.StatusOK || body != want {
				t.Errorf("waiter %d = %d, body matches the reference: %v", i, status, body == want)
			}
		}(i)
	}
	admitted(1 + waiters)
	// Likewise the pause lets the waiters park on the owner's entry; one
	// that gets there after the owner gave up becomes the new owner
	// itself.
	time.Sleep(50 * time.Millisecond)
	disconnect()
	if err := <-ownerDone; err == nil {
		t.Fatal("the owner's request succeeded; its fill was parked and should have been abandoned")
	}
	// The owner's handler leaves the gate once its fill has given up.
	until("the owner's handler returns", func() bool { return gate.InFlight() == waiters })
	release()
	wg.Wait()
	if s := getStats(t, ts); s.Cache.Misses != 1 || s.Cache.MemoHits != waiters-1 {
		t.Errorf("cache stats %+v, want 1 miss (the takeover) and %d memo hits", s.Cache, waiters-1)
	}
}

// TestOverloadSheds: with the admitted set and queue full, a request is
// refused immediately with 429 + Retry-After — it never queues. The
// gate is held externally so the test is deterministic.
func TestOverloadSheds(t *testing.T) {
	gate := runner.NewGate(1, 0)
	ts := newServer(t, serve.Config{Cache: profcache.New(""), Gate: gate})

	release, err := gate.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	status, hdr, _ := get(t, ts, "/v1/profile?app=bfs&mode=rd")
	if status != http.StatusTooManyRequests {
		t.Fatalf("overloaded request = %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	if s := getStats(t, ts); s.Gate.Shed != 1 {
		t.Errorf("shed = %d, want 1", s.Gate.Shed)
	}

	release()
	if status, _, _ := get(t, ts, "/v1/profile?app=bfs&mode=rd"); status != http.StatusOK {
		t.Errorf("post-release request = %d, want 200 (shedding must not latch)", status)
	}
}

// TestChaosInjection: a seeded fault surfaces as a clean 5xx, the
// injected run bypasses the cache both ways, and the daemon keeps
// serving healthy requests afterwards. kill= is refused outright, as is
// any injection when the server does not allow it.
func TestChaosInjection(t *testing.T) {
	ts := newServer(t, serve.Config{Cache: profcache.New(""), AllowInject: true})

	status, _, body := get(t, ts, "/v1/profile?app=bfs&mode=rd&inject=seed=7,panic=profile")
	if status != http.StatusInternalServerError {
		t.Fatalf("injected request = %d, want 500 (body %q)", status, body)
	}
	if !strings.Contains(body, "injected panic") {
		t.Errorf("500 body %q does not name the injected fault", body)
	}
	if s := getStats(t, ts); s.Cache.Requests != 0 {
		t.Errorf("injected run touched the cache: %+v", s.Cache)
	}

	if status, _, _ := get(t, ts, "/v1/profile?app=bfs&mode=rd"); status != http.StatusOK {
		t.Errorf("healthy request after chaos = %d; the daemon must keep serving", status)
	}

	if status, _, body := get(t, ts, "/v1/profile?app=bfs&inject=kill=profile"); status != http.StatusBadRequest {
		t.Errorf("kill= spec = %d %q, want 400", status, body)
	}

	locked := newServer(t, serve.Config{Cache: profcache.New("")})
	if status, _, _ := get(t, locked, "/v1/profile?app=bfs&inject=seed=1"); status != http.StatusBadRequest {
		t.Errorf("injection without -allow-inject = %d, want 400", status)
	}
}

// lockedBuffer is a Config.Log the handler goroutines and the test share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPanicStackLogged: a request that fails on a recovered panic logs
// the panicking goroutine's stack after its status line, and its
// response body stays the one-line error.
func TestPanicStackLogged(t *testing.T) {
	var log lockedBuffer
	ts := newServer(t, serve.Config{Cache: profcache.New(""), AllowInject: true, Log: &log})
	status, _, body := get(t, ts, "/v1/profile?app=bfs&mode=rd&inject=seed=7,panic=profile")
	if status != http.StatusInternalServerError || strings.Contains(body, "goroutine") {
		t.Fatalf("injected request = %d %q, want 500 without a stack", status, body)
	}
	out := log.String()
	line := "serve: GET /v1/profile -> 500\n"
	i := strings.Index(out, line)
	if i < 0 {
		t.Fatalf("log %q has no 500 line", out)
	}
	if stack := out[i+len(line):]; !strings.HasPrefix(stack, "goroutine") || !strings.Contains(stack, "internal/faultinject.") {
		t.Errorf("log after the 500 line is not the panic's stack:\n%s", stack)
	}
}

// TestPartialKeepGoing: with KeepGoing the failing cell renders as its
// annotation line and the response is 200 with the partial header —
// the HTTP mapping of the CLI's render-everything-exit-1 contract.
func TestPartialKeepGoing(t *testing.T) {
	ts := newServer(t, serve.Config{Cache: profcache.New(""), AllowInject: true, KeepGoing: true})
	status, hdr, body := get(t, ts, "/v1/profile?app=bfs&mode=rd&inject=seed=7,panic=profile")
	if status != http.StatusOK {
		t.Fatalf("keep-going injected request = %d, want 200", status)
	}
	if hdr.Get("X-Cudaadvisor-Partial") != "true" {
		t.Errorf("partial response not flagged (headers %v)", hdr)
	}
	if !strings.Contains(body, "[cell failed:") {
		t.Errorf("partial body %q has no annotation line", body)
	}
}

// TestRequestDeadline: an expired per-request deadline surfaces as 504,
// not a hung connection — the context reaches the GPU step guard.
func TestRequestDeadline(t *testing.T) {
	ts := newServer(t, serve.Config{Cache: profcache.New(""), Timeout: time.Nanosecond})
	status, _, body := get(t, ts, "/v1/profile?app=bfs&mode=rd")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request = %d %q, want 504", status, body)
	}
}

// TestBadRequests: what the daemon refuses beyond the command layer's
// own validation (that, and its wording, is pinned against the CLI by
// cmd/cudaadvisor's parity table) answers 400, never 500: the scale
// admission bound and the upload size bound.
func TestBadRequests(t *testing.T) {
	ts := newServer(t, serve.Config{Cache: profcache.New("")})
	for _, path := range []string{
		"/v1/profile?app=bfs&scale=65",
		"/v1/advise?app=bfs&scale=1000000",
		"/v1/export?app=bfs&scale=1000000",
	} {
		if status, _, body := get(t, ts, path); status != http.StatusBadRequest || !strings.Contains(body, "at most 64") {
			t.Errorf("%s = %d %q, want 400 naming the bound", path, status, body)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/lint", "text/plain", strings.NewReader(strings.Repeat(";", 4<<20+1)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "upload exceeds") {
		t.Errorf("oversized upload = %d %q, want 400", resp.StatusCode, body)
	}
	// Modules that parse but do not verify: an f32 register stored
	// through st i32 beside an atomadd on shared memory, and a gep of
	// scale 0 beside a bar in a device function.
	for src, want := range map[string]string{
		"module ill\nkernel @k(%p: ptr, %x: f32) {\n  shared @s: i32[32]\nentry:\n  %t = sreg tid.x\n  %a = gep %p, %t, 4\n" +
			"  st i32 global [%a], %x\n  %sp = shptr @s\n  %o = atomadd i32 shared [%sp], %t\n  ret\n}\n": "operand 1 has type f32, want i32",
		"module ill\nfunc @d(%p: ptr) {\nentry:\n  %t = sreg tid.x\n  %a = gep %p, %t, 0\n  st i32 global [%a], %t\n" +
			"  bar\n  ret\n}\n": "gep scale 0",
	} {
		for _, path := range []string{"/v1/lint?name=ill.mir", "/v1/advise?name=ill.mir&format=json"} {
			resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "ill.mir: ") || !strings.Contains(string(body), want) {
				t.Errorf("%s of an ill-typed module = %d %q, want 400 saying %q", path, resp.StatusCode, body, want)
			}
		}
	}
}

// TestExportParity: /v1/export responses equal the command layer's
// rendering byte for byte in both formats, and a warm rerun of each is a
// pure cache read.
func TestExportParity(t *testing.T) {
	ts := newServer(t, serve.Config{Cache: profcache.New(t.TempDir())})
	refExport := func(format, weight string) string {
		return ref(t, "export", map[string]string{"app": "bfs", "format": format, "weight": weight}, "")
	}
	reqs := []struct {
		path, format, weight string
	}{
		{"/v1/export?app=bfs", "folded", "cycles"}, // folded/cycles defaults
		{"/v1/export?app=bfs&weight=divergence", "folded", "divergence"},
		{"/v1/export?app=bfs&format=chrome", "chrome", ""},
	}
	for _, r := range reqs {
		want := refExport(r.format, r.weight)
		status, _, body := get(t, ts, r.path)
		if status != http.StatusOK {
			t.Fatalf("%s = %d: %.200s", r.path, status, body)
		}
		if body != want {
			t.Errorf("%s differs from the CLI renderer (%d vs %d bytes)", r.path, len(body), len(want))
		}
	}
	before := getStats(t, ts)
	for _, r := range reqs {
		if _, _, body := get(t, ts, r.path); body != refExport(r.format, r.weight) {
			t.Errorf("warm %s differs", r.path)
		}
	}
	after := getStats(t, ts)
	if after.Cache.Misses != before.Cache.Misses {
		t.Errorf("warm export reruns missed: %d -> %d misses", before.Cache.Misses, after.Cache.Misses)
	}
}

// TestStatszEvictionCounters: /statsz reports evictions and heals
// separately from misses, so a warm hit-rate assertion stays meaningful
// under a size budget.
func TestStatszEvictionCounters(t *testing.T) {
	c := profcache.New(t.TempDir())
	c.SetBudget(1) // everything stored is immediately over budget
	ts := newServer(t, serve.Config{Cache: c})
	if status, _, _ := get(t, ts, "/v1/profile?app=bfs&mode=rd"); status != http.StatusOK {
		t.Fatal("profile request failed")
	}
	s := getStats(t, ts)
	if s.Cache.Evictions == 0 {
		t.Errorf("budget 1 byte evicted nothing: %+v", s.Cache)
	}
	if s.Cache.Misses != 1 || s.Cache.BadEntries != 0 {
		t.Errorf("eviction leaked into miss/bad accounting: %+v", s.Cache)
	}
}
