package profcache_test

// Multi-process cache contention coverage: the cross-process claim
// protocol (lock.go) promises exactly one fill per key fleet-wide, no
// corrupt entries ever served, byte-identical outputs in every process,
// and recovery from a writer killed mid-fill. These tests re-exec the
// test binary as child processes (TestMain's PROFCACHE_CHILD hook) so
// the claims, heartbeats, takeovers and heals cross real process
// boundaries on one shared -cache-dir.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"cudaadvisor/internal/apps"
	"cudaadvisor/internal/faultinject"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/profcache"
)

func TestMain(m *testing.M) {
	if os.Getenv("PROFCACHE_CHILD") == "" {
		os.Exit(m.Run())
	}
	childFill()
}

// contentionKey is the shared key namespace: every process derives the
// same keys from the same inputs (BuildVersion is the digest of this
// very test binary's build ID, so parent and children agree on it).
func contentionKey(scale int) profcache.Key {
	return profcache.ViewKey(apps.ByName("bfs"), gpu.KeplerK40c(), bothOpts, scale, 0, "contention-test")
}

func contentionBody(scale int) []byte {
	return []byte(fmt.Sprintf("contention view for scale %d: deterministic body\n", scale))
}

// childFill is the child-process body: request every key against the
// shared directory, holding each fill long enough that concurrent
// children really contend, then report per-process stats on stderr.
// Stdout carries only the results, so the parent can assert all
// children observed byte-identical outputs. A PROFCACHE_KILL injection
// spec turns the child into the dead-writer victim: faultinject's
// MaybeKill hard-exits mid-fill with the claim held.
func childFill() {
	dir := os.Getenv("PROFCACHE_DIR")
	keys, err := strconv.Atoi(os.Getenv("PROFCACHE_KEYS"))
	if err != nil || dir == "" {
		fmt.Fprintln(os.Stderr, "childFill: bad PROFCACHE_DIR/PROFCACHE_KEYS")
		os.Exit(1)
	}
	c := profcache.New(dir)
	if ttl, err := time.ParseDuration(os.Getenv("PROFCACHE_TTL")); err == nil && ttl > 0 {
		c.SetClaimTTL(ttl)
	}
	var inject *faultinject.Config
	if spec := os.Getenv("PROFCACHE_KILL"); spec != "" {
		if inject, err = faultinject.Parse(spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	out := bufio.NewWriter(os.Stdout)
	for scale := 1; scale <= keys; scale++ {
		cell := fmt.Sprintf("contention/bfs/%d", scale)
		body, err := c.Bytes(context.Background(), contentionKey(scale), func(context.Context) ([]byte, error) {
			inject.Cell(cell).MaybeKill()
			time.Sleep(40 * time.Millisecond) // hold the claim so children really contend
			return contentionBody(scale), nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out.Write(body)
	}
	out.Flush()
	s := c.Stats()
	fmt.Fprintf(os.Stderr, "CHILDSTATS misses=%d diskhits=%d bad=%d heals=%d takeovers=%d\n",
		s.Misses, s.DiskHits, s.BadEntries, s.Heals, s.Takeovers)
	os.Exit(0)
}

type childResult struct {
	stdout                              string
	misses, diskhits, bad, heals, grabs int
}

// runChild re-execs the test binary in child mode and parses its report.
func runChild(t *testing.T, dir string, keys int, extraEnv ...string) childResult {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"PROFCACHE_CHILD=fill",
		"PROFCACHE_DIR="+dir,
		"PROFCACHE_TTL=300ms",
		fmt.Sprintf("PROFCACHE_KEYS=%d", keys))
	cmd.Env = append(cmd.Env, extraEnv...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("child failed: %v\nstderr:\n%s", err, stderr.String())
	}
	var r childResult
	r.stdout = stdout.String()
	if _, err := fmt.Sscanf(lastLine(stderr.String()), "CHILDSTATS misses=%d diskhits=%d bad=%d heals=%d takeovers=%d",
		&r.misses, &r.diskhits, &r.bad, &r.heals, &r.grabs); err != nil {
		t.Fatalf("child stats unparseable (%v):\n%s", err, stderr.String())
	}
	return r
}

func lastLine(s string) string {
	lines := bytes.Split(bytes.TrimSpace([]byte(s)), []byte("\n"))
	return string(lines[len(lines)-1])
}

// TestMultiProcessContention: N processes hammer one cache directory on
// the same keys. Exactly one fill happens per key fleet-wide, every
// process sees byte-identical output, a pre-corrupted entry is healed
// (not served, not fatal), and the directory is left clean — no claims,
// no temp files, and a warm read of every entry verifies.
func TestMultiProcessContention(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()
	const procs, keys = 4, 3

	// Pre-corrupt one entry so the healing path runs under contention.
	corrupt := filepath.Join(dir, contentionKey(1).ID()+".cell")
	if err := os.WriteFile(corrupt, []byte("cudaadvisor-profcache deadbeef\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	results := make([]childResult, procs)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = runChild(t, dir, keys)
		}(i)
	}
	wg.Wait()

	var want bytes.Buffer
	for scale := 1; scale <= keys; scale++ {
		want.Write(contentionBody(scale))
	}
	var fills, bad, heals int
	for i, r := range results {
		if r.stdout != want.String() {
			t.Errorf("child %d output differs:\n--- got\n%s--- want\n%s", i, r.stdout, want.String())
		}
		fills += r.misses
		bad += r.bad
		heals += r.heals
		if r.misses+r.diskhits != keys {
			t.Errorf("child %d: %d misses + %d disk hits != %d keys", i, r.misses, r.diskhits, keys)
		}
	}
	if fills != keys {
		t.Errorf("fleet ran %d fills for %d keys; the claim protocol must make this exactly one per key", fills, keys)
	}
	if bad < 1 || heals < 1 {
		t.Errorf("corrupted entry was never detected/healed (bad=%d heals=%d)", bad, heals)
	}

	// The directory must be clean: published entries only.
	for _, pat := range []string{"*.claim", ".tmp-*"} {
		if left, _ := filepath.Glob(filepath.Join(dir, pat)); len(left) != 0 {
			t.Errorf("children left %v behind", left)
		}
	}

	// And every entry must verify: a warm process reads all keys with
	// zero fills and zero bad entries.
	warm := profcache.New(dir)
	for scale := 1; scale <= keys; scale++ {
		body, err := warm.Bytes(context.Background(), contentionKey(scale), func(context.Context) ([]byte, error) {
			return nil, fmt.Errorf("warm read must not fill")
		})
		if err != nil || !bytes.Equal(body, contentionBody(scale)) {
			t.Errorf("warm read of key %d: %q, %v", scale, body, err)
		}
	}
	if s := warm.Stats(); s.DiskHits != keys || s.BadEntries != 0 {
		t.Errorf("warm stats = %+v, want %d clean disk hits", s, keys)
	}
}

// TestDeadWriterRecovery: a child killed mid-fill (via the faultinject
// kill target, which skips all deferred cleanup exactly like kill -9)
// leaves only a reclaimable claim — never a truncated entry — and the
// next reader takes the stale claim over, fills, and heals the store.
func TestDeadWriterRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()

	// Victim: claims key 1, then dies inside the fill.
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"PROFCACHE_CHILD=fill",
		"PROFCACHE_DIR="+dir,
		"PROFCACHE_TTL=300ms",
		"PROFCACHE_KEYS=1",
		"PROFCACHE_KILL=kill=contention")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("victim exit = %v, want injected-kill exit code 3\nstderr:\n%s", err, stderr.String())
	}
	if claims, _ := filepath.Glob(filepath.Join(dir, "*.claim")); len(claims) != 1 {
		t.Fatalf("dead writer left %d claims, want exactly its one reclaimable claim", len(claims))
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.cell")); len(entries) != 0 {
		t.Fatalf("dead writer published %v; a kill mid-fill must never leave an entry", entries)
	}

	// Survivor: must wait out the stale claim's TTL, take it over, and
	// complete the fill the victim abandoned.
	r := runChild(t, dir, 1)
	if r.stdout != string(contentionBody(1)) {
		t.Errorf("survivor output = %q, want the deterministic body", r.stdout)
	}
	if r.misses != 1 || r.grabs < 1 {
		t.Errorf("survivor stats misses=%d takeovers=%d, want 1 fill via stale-claim takeover", r.misses, r.grabs)
	}
	if claims, _ := filepath.Glob(filepath.Join(dir, "*.claim")); len(claims) != 0 {
		t.Errorf("survivor left claims behind: %v", claims)
	}
}
