package experiments

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/runner"
)

// viewRequests decodes the fourteen cacheable requests of one app on one
// architecture: `profile` in four modes with and without -smem, the four
// folded weights, the timeline, and `advise`.
func viewRequests(t *testing.T, app, arch string) []*Request {
	t.Helper()
	var queries []map[string]string
	for _, mode := range []string{"rd", "md", "bd", "all"} {
		for _, smem := range []string{"0", "1"} {
			queries = append(queries, map[string]string{"cmd": "profile", "mode": mode, "smem": smem})
		}
	}
	for _, weight := range []string{"cycles", "lines", "divergence", "reuse"} {
		queries = append(queries, map[string]string{"cmd": "export", "weight": weight})
	}
	queries = append(queries,
		map[string]string{"cmd": "export", "format": "chrome"},
		map[string]string{"cmd": "advise", "format": "json"})
	reqs := make([]*Request, len(queries))
	for i, q := range queries {
		q["app"], q["arch"] = app, arch
		var err error
		if reqs[i], err = NewRequest(q["cmd"], func(name string) string { return q[name] }, nil); err != nil {
			t.Fatal(err)
		}
	}
	return reqs
}

// writeAll renders every request under env at once, one goroutine each,
// the way a daemon's clients arrive.
func writeAll(t *testing.T, env Env, reqs []*Request) [][]byte {
	t.Helper()
	out := make([]bytes.Buffer, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r *Request) {
			defer wg.Done()
			if err := r.Write(&out[i], env); err != nil {
				t.Errorf("%s %s %s: %v", r.Command, r.Mode, r.Format, err)
			}
		}(i, r)
	}
	wg.Wait()
	bodies := make([][]byte, len(reqs))
	for i := range out {
		bodies[i] = out[i].Bytes()
	}
	return bodies
}

// TestFourteenViewsTwoRuns: the fourteen views of one app, asked for at
// once on a cold cache, cost two simulations — one per instrumentation
// set — at -j 1 and at -j 8, every body is the uncached rendering's, and
// a second process on the same directory simulates nothing.
func TestFourteenViewsTwoRuns(t *testing.T) {
	reqs := viewRequests(t, "bfs", "kepler")
	var want [][]byte
	for _, r := range reqs {
		var b bytes.Buffer
		if err := r.Write(&b, Env{}); err != nil {
			t.Fatal(err)
		}
		want = append(want, b.Bytes())
	}
	check := func(label string, got [][]byte) {
		t.Helper()
		for i, r := range reqs {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: %s mode=%q smem=%v format=%q weight=%q differs from the uncached rendering",
					label, r.Command, r.Mode, r.Smem, r.Format, r.Weight)
			}
		}
	}
	for _, j := range []int{1, 8} {
		dir := t.TempDir()
		cold := Env{Pool: runner.New(j), Cache: profcache.New(dir)}
		check("cold", writeAll(t, cold, reqs))
		if s := cold.Cache.Stats(); s.Runs != 2 || s.RunShares != 12 || s.Misses != 14 || s.Stores != 14 || s.MemoHits+s.DiskHits != 0 {
			t.Errorf("-j %d cold: %+v; want 2 runs shared 12 times and 14 view misses, all stored", j, s)
		}
		if n := len(cellFiles(t, dir)); n != 14 {
			t.Errorf("-j %d: %d entry files, want the 14 views and nothing of the runs", j, n)
		}
		warm := Env{Pool: runner.New(j), Cache: profcache.New(dir)}
		check("warm", writeAll(t, warm, reqs))
		if s := warm.Cache.Stats(); s.Runs != 0 || s.RunShares != 0 || s.Misses != 0 || s.DiskHits != 14 {
			t.Errorf("-j %d warm: %+v; want 14 disk hits and no run", j, s)
		}
	}
}

// TestDetachedRunRendersEveryView: on all ten apps, both architectures
// and both instrumentation sets, every view rendered from the cache's
// run — fully derived, then detached — is byte-equal to the one rendered
// from a live run that derives lazily, the debug views included, and the
// cached run holds no trace record.
func TestDetachedRunRendersEveryView(t *testing.T) {
	ctx := context.Background()
	for _, arch := range []string{"kepler", "pascal"} {
		for _, name := range apps.TableOrder {
			reqs := viewRequests(t, name, arch)
			app, cfg := apps.ByName(name), reqs[0].Arch
			cached := Env{Scale: 1, Cache: profcache.New("")}
			for _, opts := range []instrument.Options{instrument.MemoryAndBlocks(), instrument.MemorySharedAndBlocks()} {
				live, err := Env{Scale: 1}.runCell(ctx, "live", app, cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				detached, err := cached.runCell(ctx, "detached", app, cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, kp := range detached.Kernels {
					if cap(kp.Trace.Mem) != 0 || cap(kp.Trace.Blocks) != 0 {
						t.Fatalf("%s/%s: instance %d of the cached run holds %d+%d records of capacity",
							arch, name, kp.Trace.Instance, cap(kp.Trace.Mem), cap(kp.Trace.Blocks))
					}
				}
				if again, _ := cached.runCell(ctx, "again", app, cfg, opts); again != detached {
					t.Errorf("%s/%s: the cache simulated the same run twice", arch, name)
				}
				rendered := 0
				for _, r := range reqs {
					ropts, view, render := r.view()
					if ropts != opts {
						continue
					}
					rendered++
					var fromLive, fromDetached bytes.Buffer
					if err := render(&fromLive, live); err != nil {
						t.Fatal(err)
					}
					if err := render(&fromDetached, detached); err != nil {
						t.Fatal(err)
					}
					if fromLive.Len() == 0 && r.Command != "export" || !bytes.Equal(fromLive.Bytes(), fromDetached.Bytes()) {
						t.Errorf("%s/%s: view %s from the detached run (%d bytes) differs from the live run's (%d bytes)",
							arch, name, view, fromDetached.Len(), fromLive.Len())
					}
				}
				if want := map[bool]int{false: 9, true: 5}[opts.SharedMemory]; rendered != want {
					t.Fatalf("%+v: rendered %d views, want %d", opts, rendered, want)
				}
				var fromLive, fromDetached bytes.Buffer
				renderDebugViews(&fromLive, live, cfg.L1LineSize)
				renderDebugViews(&fromDetached, detached, cfg.L1LineSize)
				if !bytes.Equal(fromLive.Bytes(), fromDetached.Bytes()) {
					t.Errorf("%s/%s: debug views from the detached run differ from the live run's", arch, name)
				}
			}
			if s := cached.Cache.Stats(); s.Runs != 2 || s.RunShares != 2 || s.Requests() != 0 {
				t.Errorf("%s/%s: %+v; want 2 runs, each looked up once more, and no entry request", arch, name, s)
			}
		}
	}
}

// FuzzNewRequest: the one decoder both transports share never panics on
// any command, parameter set or upload; what it accepts is a request
// Write can act on (a known architecture, a scale ≥ 1, a mode, format
// and weight from the command's table, a target); and decoding the same
// input twice gives the same request or the same refusal.
func FuzzNewRequest(f *testing.F) {
	// The rows of cmd/cudaadvisor's TestCLIDaemonParity: command, app,
	// arch, scale, mode, smem, format, weight, upload.
	const fixture = "module m\n\nkernel @k(%p: ptr) {\nentry:\n  %t = sreg tid.x\n  %a = gep %p, %t, 4\n  %v = ld i32 global [%a]\n  st i32 global [%a], %v\n  ret\n}\n"
	for _, row := range [][9]string{
		{"profile", "nn"}, {"profile", "nn", "", "", "rd", "0"}, {"profile", "nn", "pascal", "", "bd"},
		{"profile", "nn", "", "2", "all"}, {"profile", "nn", "", "", "md", "true"}, {"profile", "nn", "", "", "", "t"},
		{"advise", "nn"}, {"advise", "nn", "pascal", "", "", "", "json"}, {"export", "nn"},
		{"export", "nn", "", "", "", "", "folded", "cycles"}, {"export", "nn", "", "", "", "", "", "reuse"},
		{"export", "nn", "", "", "", "", "chrome"}, {"lint", "bfs"}, {"lint", "bfs", "pascal", "", "", "", "json"},
		{"lint", "", "", "", "", "", "", "", fixture}, {"advise", "", "", "", "", "", "json", "", fixture},
		{"profile"}, {"lint"}, {"profile", "nosuch"}, {"profile", "bfs", "volta"}, {"profile", "bfs", "", "", "xyzzy"},
		{"advise", "bfs", "", "", "", "", "yaml"}, {"export", "bfs", "", "", "", "", "svg"},
		{"export", "bfs", "", "", "", "", "", "bytes"}, {"profile", "nn", "", "0"}, {"export", "nn", "", "two"},
		{"profile", "nn", "", "", "", "yes"}, {"export", "", "", "", "", "", "", "", fixture},
		{"lint", "", "", "", "", "", "", "", "this is not ir"}, {"figure4", "nn"},
		// Modules that parse but do not verify.
		{"lint", "", "", "", "", "", "", "", "module m\nkernel @k(%p: ptr, %x: f32) {\n  shared @s: i32[32]\nentry:\n  %t = sreg tid.x\n" +
			"  %a = gep %p, %t, 4\n  st i32 global [%a], %x\n  %sp = shptr @s\n  %o = atomadd i32 shared [%sp], %t\n  ret\n}\n"},
		{"advise", "", "", "", "", "", "json", "", "module m\nfunc @d(%p: ptr) {\nentry:\n  %t = sreg tid.x\n" +
			"  %a = gep %p, %t, 0\n  st i32 global [%a], %t\n  bar\n  ret\n}\n"},
	} {
		f.Add(row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7], []byte(row[8]))
	}
	f.Fuzz(func(t *testing.T, cmd, app, arch, scale, mode, smem, format, weight string, ir []byte) {
		params := map[string]string{"app": app, "arch": arch, "scale": scale, "mode": mode, "smem": smem, "format": format, "weight": weight}
		get := func(name string) string { return params[name] }
		r, err := NewRequest(cmd, get, ir)
		again, errAgain := NewRequest(cmd, get, ir)
		if (err == nil) != (errAgain == nil) || err != nil && err.Error() != errAgain.Error() {
			t.Fatalf("two decodes of one input: %v, then %v", err, errAgain)
		}
		if err != nil {
			if r != nil {
				t.Fatalf("a refusal (%v) came with a request", err)
			}
			return
		}
		if *r != *again && r.module == nil { // an analyzed upload is a fresh pointer each time
			t.Fatalf("two decodes of one input: %+v, then %+v", *r, *again)
		}
		in := func(v string, set ...string) bool { return slices.Contains(set, v) }
		table := map[string]bool{}
		for _, p := range Params(cmd) {
			table[p.Name] = true
		}
		switch {
		case r.Command != cmd || len(table) == 0:
			t.Fatalf("command %q decoded as %q", cmd, r.Command)
		case r.Arch.Name != gpu.KeplerK40c().Name && r.Arch.Name != gpu.PascalP100().Name:
			t.Fatalf("architecture %q", r.Arch.Name)
		case table["scale"] != (r.Scale >= 1) || !table["scale"] && r.Scale != 0:
			t.Fatalf("%s: scale %d", cmd, r.Scale)
		case table["mode"] != in(r.Mode, "rd", "md", "bd", "all") || !table["mode"] && r.Mode != "":
			t.Fatalf("%s: mode %q", cmd, r.Mode)
		case cmd == "export" && !in(r.Format, "folded", "chrome") || cmd != "export" && table["format"] && !in(r.Format, "text", "json"):
			t.Fatalf("%s: format %q", cmd, r.Format)
		case r.Format == "folded" && !in(r.Weight, "cycles", "lines", "divergence", "reuse"):
			t.Fatalf("folded export with weight %q", r.Weight)
		case (r.App == nil) == (r.module == nil):
			t.Fatalf("%s: app %v, module %v: want exactly one target", cmd, r.App, r.module)
		case r.App == nil && !in(cmd, "lint", "advise"):
			t.Fatalf("%s accepted a module, which it cannot run", cmd)
		}
	})
}
