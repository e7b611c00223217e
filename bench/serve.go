package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// hotRequests is the size of the memo-hit phase. It is the first
	// thing to lower if the run-time cap tightens; the key set is not.
	hotRequests = 20000
	// uncachedChecks is how many seeded keys per rep are also compared
	// with a CLI run that has no cache at all.
	uncachedChecks = 8
)

// request is one key of the serve_phases key set: the URL the daemon is
// asked and the CLI invocation that must print the same bytes.
type request struct {
	url string
	cli []string
}

// serveRequests is the fixed key set: for every app on Kepler, the eight
// profile views, the advise report, the four flamegraphs, the timeline
// and the lint report. (One architecture, not two: a cold fill of both
// does not fit the benchmark's run-time cap. README.md has the sizing.)
func serveRequests() []request {
	const arch = "kepler"
	var reqs []request
	for _, app := range appNames {
		q := "app=" + app + "&arch=" + arch
		for _, mode := range []string{"rd", "md", "bd", "all"} {
			reqs = append(reqs,
				request{"/v1/profile?" + q + "&mode=" + mode + "&smem=0", []string{"profile", "-arch", arch, "-mode", mode, app}},
				request{"/v1/profile?" + q + "&mode=" + mode + "&smem=1", []string{"profile", "-arch", arch, "-mode", mode, "-smem", app}})
		}
		reqs = append(reqs, request{"/v1/advise?" + q + "&format=json", []string{"advise", "-arch", arch, "-format", "json", app}})
		for _, weight := range []string{"cycles", "lines", "divergence", "reuse"} {
			reqs = append(reqs, request{"/v1/export?" + q + "&format=folded&weight=" + weight,
				[]string{"export", "-arch", arch, "-format", "folded", "-weight", weight, app}})
		}
		reqs = append(reqs,
			request{"/v1/export?" + q + "&format=chrome", []string{"export", "-arch", arch, "-format", "chrome", app}},
			request{"/v1/lint?" + q, []string{"lint", "-arch", arch, app}})
	}
	return reqs
}

// hotSequence samples the hot phase uniformly from n keys.
func hotSequence(rng *rand.Rand, n, count int) []int {
	seq := make([]int, count)
	for i := range seq {
		seq[i] = rng.Intn(n)
	}
	return seq
}

// daemon is one running `cudaadvisor serve` child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stdout bytes.Buffer
	read   chan struct{} // closed once stdout has been drained
}

// startDaemon boots the daemon on cacheDir with default -width/-depth
// and returns once /healthz answers.
func (h *harness) startDaemon(cacheDir string) (*daemon, error) {
	d := &daemon{read: make(chan struct{})}
	d.cmd = exec.Command(h.bin, "-cache-dir", cacheDir, "serve", "-addr", "127.0.0.1:0")
	pipe, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	br := bufio.NewReader(pipe)
	line, err := br.ReadString('\n')
	go func() {
		defer close(d.read)
		io.Copy(&d.stdout, br)
	}()
	if i := strings.Index(line, "http://"); err == nil && i >= 0 {
		d.base = strings.TrimSpace(line[i:])
	} else {
		d.kill()
		return nil, fmt.Errorf("serve: no listen address on stdout: %q (%v)", line, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("serve: /healthz not answering: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.read
	d.cmd.Wait()
}

// stop asks for a graceful drain and waits for the child. A clean stop
// exits 0 after printing "drained".
func (d *daemon) stop() (child, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return child{}, err
	}
	// The daemon's own drain budget is 10 s; one that overstays it is
	// killed, which Wait then reports as the failure it is.
	overdue := time.AfterFunc(15*time.Second, func() { d.cmd.Process.Kill() })
	defer overdue.Stop()
	<-d.read
	err := d.cmd.Wait()
	var c child
	c.cpu, c.rssMB = usage(d.cmd.ProcessState)
	if err != nil {
		return c, fmt.Errorf("serve: exit after SIGTERM: %v", err)
	}
	if !strings.Contains(d.stdout.String(), "cudaadvisor serve: drained") {
		return c, fmt.Errorf("serve: exited without reporting a clean drain")
	}
	return c, nil
}

// statsz is the part of /statsz the benchmark reads.
type statsz struct {
	Cache struct {
		Requests int `json:"requests"`
		MemoHits int `json:"memo_hits"`
		DiskHits int `json:"disk_hits"`
		Misses   int `json:"misses"`
	} `json:"cache"`
	Gate struct {
		Shed int `json:"shed"`
	} `json:"gate"`
}

func (d *daemon) statsz(client *http.Client) (statsz, error) {
	var s statsz
	resp, err := client.Get(d.base + "/statsz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// bootProbe is serve_phases' share of a set-up round: boot a daemon to
// its first /healthz on an empty directory and stop it again.
func bootProbe(h *harness) error {
	dir, err := h.tempDir("probe-")
	if err != nil {
		return err
	}
	d, err := h.startDaemon(dir)
	if err != nil {
		return err
	}
	_, err = d.stop()
	return err
}

type bodySum = [sha256.Size]byte

// phase sends seq (indices into reqs) through nproc closed-loop clients:
// each takes the next request only when its previous one has answered.
// sums[i] is the body every answer for key i must have; a zero entry is
// filled by the first answer. It returns per-request latencies and
// errors in seq order, and the phase's wall-clock.
func phase(client *http.Client, base string, clients int, reqs []request, seq []int, sums []bodySum) (latMs []float64, errs []error, wallS float64) {
	latMs = make([]float64, len(seq))
	errs = make([]error, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(seq) {
					return
				}
				i := seq[k]
				t := time.Now()
				sum, err := fetch(client, base+reqs[i].url)
				latMs[k] = time.Since(t).Seconds() * 1e3
				switch {
				case err != nil:
					errs[k] = err
				case sums[i] == bodySum{}:
					// Only the cold phase gets here, and it asks each key once.
					sums[i] = sum
				case sums[i] != sum:
					errs[k] = fmt.Errorf("body differs from the first answer for this key")
				}
			}
		}()
	}
	wg.Wait()
	return latMs, errs, time.Since(start).Seconds()
}

func fetch(client *http.Client, url string) (bodySum, error) {
	resp, err := client.Get(url)
	if err != nil {
		return bodySum{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return bodySum{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return bodySum{}, fmt.Errorf("status %d: %s", resp.StatusCode, firstLine(body))
	}
	return sha256.Sum256(body), nil
}

func runServePhases(h *harness, rng *rand.Rand) rep {
	r := rep{extra: map[string]float64{}}
	reqs := serveRequests()
	sums := make([]bodySum, len(reqs))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: h.nproc}}
	defer client.CloseIdleConnections()

	cacheDir, err := h.tempDir("serve-")
	if err != nil {
		r.op("tempdir", err)
		return r
	}
	record := func(name string, seq []int, errs []error) {
		for k, i := range seq {
			r.op(name+" "+reqs[i].url, errs[k])
		}
	}
	var total statsz
	stopDaemon := func(d *daemon) statsz {
		s, err := d.statsz(client)
		r.op("statsz", err)
		total.Cache.Requests += s.Cache.Requests
		total.Cache.MemoHits += s.Cache.MemoHits + s.Cache.DiskHits
		total.Gate.Shed += s.Gate.Shed
		client.CloseIdleConnections()
		c, err := d.stop()
		r.child(c)
		r.op("drain", err)
		return s
	}

	start := time.Now()
	d, err := h.startDaemon(cacheDir)
	if err != nil {
		r.op("boot", err)
		return r
	}
	coldSeq := rng.Perm(len(reqs))
	coldMs, errs, coldS := phase(client, d.base, h.nproc, reqs, coldSeq, sums)
	record("cold", coldSeq, errs)
	// The op sample is the cold phase alone: a fill is simulator work, which
	// repeats from run to run. A memo or disk hit is a fifth of a millisecond
	// of loopback and scheduler wake-ups, and its median moved by a third
	// between runs of the same code; those phases keep their own metrics.
	r.opMs = coldMs

	hotSeq := hotSequence(rng, len(reqs), hotRequests)
	hotMs, errs, hotS := phase(client, d.base, h.nproc, reqs, hotSeq, sums)
	record("hot", hotSeq, errs)
	stopDaemon(d)

	d, err = h.startDaemon(cacheDir)
	if err != nil {
		r.op("restart", err)
		return r
	}
	diskSeq := rng.Perm(len(reqs))
	diskMs, errs, diskS := phase(client, d.base, h.nproc, reqs, diskSeq, sums)
	record("disk", diskSeq, errs)
	r.wallS = time.Since(start).Seconds()
	second := stopDaemon(d)

	// Every key's body must be what the CLI prints for the same request:
	// all keys against a CLI on the same cache directory (transport and
	// key mapping), a seeded few against a CLI with no cache (what the
	// cache holds is what a fresh run computes).
	cli := func(name string, i int, args []string) {
		c := h.run(args...)
		err := c.err
		if err == nil && sha256.Sum256(c.stdout) != sums[i] {
			err = fmt.Errorf("CLI stdout differs from the daemon's body")
		}
		r.op(name+" "+reqs[i].url, err)
	}
	for i, rq := range reqs {
		cli("cli-cached", i, append([]string{"-cache-dir", cacheDir}, rq.cli...))
	}
	for _, i := range rng.Perm(len(reqs))[:uncachedChecks] {
		cli("cli-uncached", i, reqs[i].cli)
	}

	r.extra["serve_cold_p50_ms"] = median(coldMs)
	r.extra["serve_cold_p90_ms"] = percentile(coldMs, 90)
	r.extra["serve_cold_rps"] = float64(len(coldSeq)) / coldS
	r.extra["serve_hot_p50_ms"] = median(hotMs)
	r.extra["serve_hot_rps"] = float64(len(hotSeq)) / hotS
	r.extra["serve_disk_p50_ms"] = median(diskMs)
	r.extra["serve_disk_p90_ms"] = percentile(diskMs, 90)
	r.observed = map[string]layerMetric{
		"profcache.hit_ratio": {Value: ratio(total.Cache.MemoHits, total.Cache.Requests), Unit: "ratio"},
		// Misses of the restarted daemon on a directory that holds every
		// key: each is a result the disk layer stored and then refused.
		"profcache.warm_misses": {Value: float64(second.Cache.Misses), Unit: "count", Exact: true},
		"serve.hot_p99_ms":      {Value: percentile(hotMs, 99), Unit: "ms"},
		"serve.disk_phase_s":    {Value: diskS, Unit: "s"},
		"serve.shed":            {Value: float64(total.Gate.Shed), Unit: "count", Exact: true},
	}
	dg := newDigest()
	for i, rq := range reqs {
		dg.add(rq.url, sums[i][:])
	}
	r.digest = dg.String()
	return r
}
