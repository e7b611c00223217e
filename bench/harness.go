package main

// The end-to-end harness drives the built cudaadvisor binary from
// outside — subprocesses and HTTP only. Nothing in this file, or in
// workloads.go and serve.go, may import cudaadvisor/internal/...: the
// end-to-end numbers have to survive any refactor of the packages they
// measure (TestEndToEndDriverImportsNoInternals pins it).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// harness is one benchmark process's view of the checkout.
type harness struct {
	root  string // checkout root: the directory holding cmd/cudaadvisor
	work  string // this process's scratch directory, removed on exit
	bin   string // the cudaadvisor binary under test
	nproc int
	// setupS holds one value per set-up round: build, scratch
	// directories and (serve_phases only) daemon boot to first /healthz.
	setupS []float64
	golden map[string][]byte // command name -> expected stdout
}

// findRoot walks up from the working directory to the checkout root.
// `go run -C bench .` starts the program in bench/, `go run ./bench`
// style invocations start it at the root; both work.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cudaadvisor", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no cmd/cudaadvisor above the working directory; run from inside a checkout")
		}
		dir = parent
	}
}

// setupRounds is how often set-up repeats so setup_s can be a median. A
// round before them is not counted: the first one of a process finds the
// toolchain cold, and the first one of a checkout compiles.
const setupRounds = 5

func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, nproc: runtime.NumCPU()}
	h.work = filepath.Join(root, "bench", ".work", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(h.work, 0o755); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.work) }

// tempDir makes a fresh directory under the scratch directory.
func (h *harness) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(h.work, pattern)
}

// build compiles the binary under test from the checkout's sources. The
// go build cache lives inside the checkout so a run touches nothing
// outside it; the first build of a checkout pays for the standard
// library once.
func (h *harness) build(out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/cudaadvisor")
	cmd.Dir = h.root
	cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(h.root, "bench", ".work", "gocache"))
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/cudaadvisor: %v\n%s", err, msg)
	}
	return nil
}

// setup runs the set-up rounds. extra is the workload's own share of
// set-up (serve_phases boots a daemon to its first /healthz).
func (h *harness) setup(extra func(*harness) error) error {
	for i := 0; i <= setupRounds; i++ {
		start := time.Now()
		dir, err := h.tempDir("setup-")
		if err != nil {
			return err
		}
		bin := filepath.Join(dir, "cudaadvisor")
		if err := h.build(bin); err != nil {
			return err
		}
		h.bin = bin
		if extra != nil {
			if err := extra(h); err != nil {
				return err
			}
		}
		if i > 0 {
			h.setupS = append(h.setupS, time.Since(start).Seconds())
		}
	}
	return h.loadGolden()
}

// loadGolden splits cmd/cudaadvisor/testdata/all.golden into the stdout
// each figure command must reproduce. It is read at run time so a change
// that legitimately moves a simulated statistic updates that one golden
// file, not the benchmark.
func (h *harness) loadGolden() error {
	data, err := os.ReadFile(filepath.Join(h.root, "cmd", "cudaadvisor", "testdata", "all.golden"))
	if err != nil {
		return err
	}
	h.golden = splitGolden(data)
	for _, cmd := range []string{"figure4", "figure5", "table3", "figure7", "debugviews"} {
		if len(h.golden[cmd]) == 0 {
			return fmt.Errorf("bench: all.golden has no section for %s", cmd)
		}
	}
	return nil
}

// goldenOwner maps a "=== <title>" header prefix to the command that
// prints the section.
var goldenOwner = []struct{ prefix, cmd string }{
	{"=== Figure 4", "figure4"},
	{"=== Figure 5", "figure5"},
	{"=== Table 3", "table3"},
	{"=== Figure 6", "figure6"},
	{"=== Figure 7", "figure7"},
	{"=== Figure 8", "debugviews"},
	{"=== Figure 9", "debugviews"},
}

func splitGolden(data []byte) map[string][]byte {
	out := map[string][]byte{}
	owner := ""
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("=== ")) {
			owner = ""
			for _, g := range goldenOwner {
				if bytes.HasPrefix(line, []byte(g.prefix)) {
					owner = g.cmd
				}
			}
		}
		if owner != "" {
			out[owner] = append(out[owner], line...)
		}
	}
	return out
}

// child is one finished subprocess.
type child struct {
	stdout, stderr []byte
	wall           time.Duration
	cpu            time.Duration // user + system
	rssMB          float64       // ru_maxrss
	err            error         // start failure or non-zero exit
}

func usage(ps *os.ProcessState) (cpu time.Duration, rssMB float64) {
	if ps == nil {
		return 0, 0
	}
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, rssMB
}

// run executes the binary under test with args and waits for it.
func (h *harness) run(args ...string) child {
	cmd := exec.Command(h.bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	c := child{stdout: stdout.Bytes(), stderr: stderr.Bytes(), wall: time.Since(start), err: err}
	c.cpu, c.rssMB = usage(cmd.ProcessState)
	if err != nil {
		c.err = fmt.Errorf("cudaadvisor %s: %v: %s", strings.Join(args, " "), err, firstLine(stderr.Bytes()))
	}
	return c
}

// check runs a validating subcommand (checkreport, checkexport) over
// body, which it needs as a file.
func (h *harness) check(sub string, body []byte) error {
	f, err := os.CreateTemp(h.work, sub+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if _, err := f.Write(body); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return h.run(sub, f.Name()).err
}

func firstLine(b []byte) string {
	line, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	return line
}

// digest folds named outputs into one sha256, in the order given. Two
// commits whose workloads print the same digest produced byte-identical
// outputs: their simulated statistics are the same.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(name string, body []byte) {
	fmt.Fprintf(d.h, "%s %d\n", name, len(body))
	d.h.Write(body)
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil)) }
