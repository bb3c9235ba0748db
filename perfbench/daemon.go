package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Daemon settings, identical for every workload and on both sides of a
// comparison. Journal appends always fsync (repairctl has no flag to turn
// that off).
const (
	serveWorkers = 2           // probe slots: one per core of the 2-core host
	countWorkers = 1           // goroutines inside one count
	cacheEntries = 512         // the daemon's default probe-cache bound
	servePoll    = "1ms"       // ops-file poll: well under one apply+journal
	compactBytes = 4096        // journal bytes that trigger a compaction
	fprasEps     = 0.25        // FPRAS rung accuracy
	fprasDelta   = 0.05        // FPRAS rung failure probability
	fprasSeed    = 1           // FPRAS rung seed: degraded answers repeat exactly
	probeTimeout = time.Minute // client-side ceiling; the daemon's 30s deadline fires first
)

// files are the generated inputs the daemon receives.
type files struct {
	text, snap, ops, probs string
}

func (f files) serveArgs() []string {
	return []string{
		"serve", "-db", f.snap, "-ops", f.ops, "-probs", f.probs,
		"-addr", "127.0.0.1:0",
		"-serve-workers", strconv.Itoa(serveWorkers),
		"-workers", strconv.Itoa(countWorkers),
		"-cache-entries", strconv.Itoa(cacheEntries),
		"-exact-budget", strconv.Itoa(exactBudget),
		"-poll", servePoll,
		"-compact-bytes", strconv.Itoa(compactBytes),
		"-eps", strconv.FormatFloat(fprasEps, 'g', -1, 64),
		"-delta", strconv.FormatFloat(fprasDelta, 'g', -1, 64),
		"-seed", strconv.Itoa(fprasSeed),
	}
}

// daemon is one running `repairctl serve` process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client
	done chan error
}

// newClient returns an HTTP client holding at most n keep-alive
// connections to the daemon.
func newClient(n int) *http.Client {
	return &http.Client{
		Timeout: probeTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// startDaemon launches the daemon and waits for its listen line.
func startDaemon(repairctl string, f files) (*daemon, error) {
	cmd := exec.Command(repairctl, f.serveArgs()...)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive a harness that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting repairctl serve: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1), hc: newClient(serveWorkers)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
		close(addr)
		io.Copy(io.Discard, out)
		d.done <- cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			err := <-d.done
			return nil, fmt.Errorf("repairctl serve exited before listening: %v", err)
		}
		d.base = a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("repairctl serve did not listen within 30s")
	}
	return d, nil
}

// stop sends SIGTERM, waits for the process, and kills it if it lingers.
func (d *daemon) stop() {
	d.hc.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// get fetches path and returns the status and body.
func (d *daemon) get(hc *http.Client, path string) (int, []byte, error) {
	resp, err := hc.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _, err := d.get(d.hc, "/healthz")
		if err == nil && st == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/healthz not ready: status %d, %v", st, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stats is the subset of /v1/stats the benchmark reads.
type stats struct {
	Epoch          int64  `json:"epoch"`
	Version        int64  `json:"version"`
	AppliedOps     int64  `json:"applied_ops"`
	Degraded       string `json:"degraded"`
	ApproxProbes   int64  `json:"approx_probes"`
	RejectedProbes int64  `json:"rejected_probes"`
	Overloaded     int64  `json:"overloaded"`
	Deadline       int64  `json:"deadline_expired"`
	CacheHits      int64  `json:"cache_hits"`
	CacheMisses    int64  `json:"cache_misses"`
	CacheEvictions int64  `json:"cache_evictions"`
	CacheFPMerges  int64  `json:"cache_fp_merges"`
}

func (d *daemon) stats(hc *http.Client) (stats, error) {
	var s stats
	st, body, err := d.get(hc, "/v1/stats")
	if err != nil {
		return s, err
	}
	if st != http.StatusOK {
		return s, fmt.Errorf("/v1/stats: status %d", st)
	}
	return s, json.Unmarshal(body, &s)
}

// cpuTicks returns the daemon's user+system CPU time in clock ticks
// (fields 14 and 15 of /proc/<pid>/stat).
func (d *daemon) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	rest := string(data[strings.LastIndexByte(string(data), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return ut + st, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

func urlQuery(q string) string { return url.QueryEscape(q) }
