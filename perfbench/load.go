package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repaircount/internal/workload"
)

// drainLimit bounds how long update-mix probes on after its timed phase.
const drainLimit = 5 * time.Second

// clients is the closed-loop client count of a workload, each client
// sending its next probe when the previous answer arrives. probe-cold and
// update-mix keep one connection per core of the 2-core host busy, so
// engine work and writes run beside reads. probe-hot's cache hits cost the
// daemon tens of µs, so two clients plus the daemon oversubscribe the two
// cores and the figures follow the scheduler: over 9 interleaved seed pairs,
// two clients spread 31–36% (IQR/median) on p50, p99, probes_per_s and
// cpu/op, one client 21–26%.
func clients(workload string) int {
	if workload == probeHot {
		return 1
	}
	return 2
}

// pinned reports whether a workload runs its load generator and daemon on
// one CPU at a time, rotating over the allowed CPUs (see rotate). probe-hot's
// one client and the daemon take turns, so one CPU serves both. Unpinned,
// each probe and each answer wakes a sleeping CPU; on a virtual machine that
// wake-up goes through the host, and its cost follows the host's load. It
// was over half of what probe-hot measured: over 8 interleaved seed pairs
// the daemon's CPU per probe was 0.12 ms unpinned and 0.054 ms rotated,
// p50 0.17 against 0.088 ms, so a change to the serve path moves the pinned
// figures twice as far. Pinned to one fixed CPU, the figures followed that
// CPU's own speed, which moved by 1.6× within seconds independently of the
// other CPU (10-run spread of CPU per probe 25%); rotating every 250 ms
// averages the two.
func pinned(workload string) bool {
	return workload == probeHot
}

// reply is the union of the probe response bodies the benchmark reads.
type reply struct {
	Mode     string   `json:"mode"`
	Count    string   `json:"count"`
	Estimate string   `json:"estimate"`
	Eps      float64  `json:"eps"`
	Entailed *bool    `json:"entailed"`
	ProbLo   *float64 `json:"prob_lo"`
	ProbHi   *float64 `json:"prob_hi"`
	Total    string   `json:"total"`
	Version  *int64   `json:"version"`
	Epoch    *int64   `json:"epoch"`
}

func (r reply) String() string {
	b, _ := json.Marshal(r)
	return string(b)
}

// sample is one completed request of a timed phase.
type sample struct {
	idx     int // stream index (-1 outside the timed stream)
	p       *probe
	lat     time.Duration
	recv    time.Duration // since the phase start
	status  int
	err     error
	rep     reply
	prefix  int  // ops covered by the answer (-1 when unknown)
	drain   bool // sent after the timed phase, to see the last ops land
	verdict string
}

// epochBases maps a snapshot epoch to the number of ops applied before it
// began: a response at (epoch, version) covers base[epoch]+version ops,
// because every generated op changes the instance and compaction restarts
// the version at 0. Bases are read from /v1/stats the first time an epoch
// shows up.
type epochBases struct {
	mu sync.Mutex
	m  map[int64]int64
}

func newEpochBases() *epochBases { return &epochBases{m: map[int64]int64{0: 0}} }

func (b *epochBases) learn(d *daemon, hc *http.Client, epoch int64) {
	b.mu.Lock()
	_, ok := b.m[epoch]
	b.mu.Unlock()
	if ok {
		return
	}
	st, err := d.stats(hc)
	if err != nil || st.Epoch != epoch {
		return
	}
	b.mu.Lock()
	b.m[epoch] = st.AppliedOps - st.Version
	b.mu.Unlock()
}

func (b *epochBases) prefix(rep reply) int {
	if rep.Epoch == nil || rep.Version == nil {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	base, ok := b.m[*rep.Epoch]
	if !ok {
		return -1
	}
	return int(base + *rep.Version)
}

// do sends one probe and decodes its answer.
func do(d *daemon, hc *http.Client, p *probe, bases *epochBases, t0 time.Time) sample {
	start := time.Now()
	st, body, err := d.get(hc, p.path())
	end := time.Now()
	s := sample{idx: -1, p: p, lat: end.Sub(start), recv: end.Sub(t0), status: st, err: err, prefix: -1}
	if err == nil && st == http.StatusOK {
		if jerr := json.Unmarshal(body, &s.rep); jerr != nil {
			s.err = fmt.Errorf("decoding %s: %w", p.ep, jerr)
		} else if s.rep.Epoch != nil && bases != nil {
			bases.learn(d, hc, *s.rep.Epoch)
		}
	}
	return s
}

// phase is the outcome of one timed phase.
type phase struct {
	samples []sample
	wall    time.Duration
	ops     []opRecord
	bases   *epochBases
	exhaust bool
	windows []window
}

// window is one whole second of the timed phase: how many probes
// completed and ops were appended in it, and the daemon CPU it used.
// Throughput and CPU per op are medians over windows, so a burst of
// outside load in one second moves them less than a whole-run mean.
type window struct {
	probes, ops, cpuTicks int64
	secs                  float64
}

// opRecord is one update op of the open-loop schedule.
type opRecord struct {
	due, done time.Duration // since the phase start
}

// runClosed drives the closed loop: clients goroutines take the next
// stream index from a shared counter until the phase ends; in-flight
// probes complete, so the answered probes are exactly a stream prefix.
// appendOps, when non-empty, runs the open-loop writer alongside over the
// whole phase; the clients then keep probing (for at most drainLimit)
// until an answer covers the last op. Those drain probes feed the
// visibility metrics and the oracle only. With cpus, the load generator
// and the daemon rotate over them together for the phase (see rotate).
func runClosed(d *daemon, clients int, cpus []int, next func(i int) *probe, limit int, seconds float64, opsPath string, appendOps []workload.Update) (*phase, error) {
	ph := &phase{bases: newEpochBases()}
	var counter, done, appended, covered atomic.Int64
	var exhausted atomic.Bool
	stop := make(chan struct{})
	rotated := make(chan error, 1)
	if len(cpus) > 1 {
		go func() { rotated <- rotate(d.cmd.Process.Pid, cpus, stop) }()
	} else {
		rotated <- nil
	}
	monitored := make(chan []window)
	t0 := time.Now()
	go func() { monitored <- monitor(d, t0, seconds, &done, &appended, stop) }()
	end := t0.Add(time.Duration(seconds * float64(time.Second)))
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := d.hc
			for {
				now := time.Now()
				drain := !now.Before(end)
				if drain && (covered.Load() >= int64(len(appendOps)) || now.After(end.Add(drainLimit))) {
					return
				}
				i := int(counter.Add(1) - 1)
				if i >= limit {
					exhausted.Store(true)
					return
				}
				s := do(d, hc, next(i), ph.bases, t0)
				s.idx, s.drain = i, drain
				per[c] = append(per[c], s)
				done.Add(1)
				if p := int64(ph.bases.prefix(s.rep)); p > covered.Load() {
					covered.Store(p)
				}
			}
		}(c)
	}
	var werr error
	if len(appendOps) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.ops, werr = appendSchedule(opsPath, appendOps, t0, seconds, &appended)
		}()
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	close(stop)
	ph.windows = <-monitored
	ph.exhaust = exhausted.Load()
	for _, s := range per {
		ph.samples = append(ph.samples, s...)
	}
	if err := <-rotated; err != nil && werr == nil {
		werr = err
	}
	return ph, werr
}

// appendSchedule appends op i at t0 + i·span/n, open loop: a late write is
// sent at once and its delay recorded, never skipped.
func appendSchedule(path string, ops []workload.Update, t0 time.Time, span float64, appended *atomic.Int64) ([]opRecord, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec := make([]opRecord, len(ops))
	step := time.Duration(span / float64(len(ops)) * float64(time.Second))
	for i, op := range ops {
		due := time.Duration(i) * step
		if wait := time.Until(t0.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		if _, err := f.WriteString(opLine(op)); err != nil {
			return rec, err
		}
		rec[i] = opRecord{due: due, done: time.Since(t0)}
		appended.Add(1)
	}
	return rec, nil
}

// monitor samples the probe and op counters and the daemon's CPU at every
// whole second of the phase until stop closes.
func monitor(d *daemon, t0 time.Time, seconds float64, done, appended *atomic.Int64, stop chan struct{}) []window {
	var out []window
	prevT, prevP, prevO := 0.0, int64(0), int64(0)
	prevC, err := d.cpuTicks()
	if err != nil {
		return nil
	}
	for k := 1; float64(k) <= seconds; k++ {
		select {
		case <-stop:
			return out
		case <-time.After(time.Until(t0.Add(time.Duration(k) * time.Second))):
		}
		now := time.Since(t0).Seconds()
		p, o := done.Load(), appended.Load()
		c, err := d.cpuTicks()
		if err != nil {
			return out
		}
		out = append(out, window{probes: p - prevP, ops: o - prevO, cpuTicks: c - prevC, secs: now - prevT})
		prevT, prevP, prevO, prevC = now, p, o, c
	}
	<-stop
	return out
}

func opLine(op workload.Update) string {
	sign := "+"
	if op.Del {
		sign = "-"
	}
	return sign + " " + op.Fact.Canonical() + "\n"
}

// visibility returns, per op, the time from its append returning to the
// first answer received that covers it (NaN when none did).
func visibility(ph *phase) []float64 {
	byRecv := make([]*sample, len(ph.samples))
	for i := range ph.samples {
		byRecv[i] = &ph.samples[i]
	}
	sort.Slice(byRecv, func(i, j int) bool { return byRecv[i].recv < byRecv[j].recv })
	vis := make([]float64, len(ph.ops))
	for i, op := range ph.ops {
		vis[i] = math.NaN()
		j := sort.Search(len(byRecv), func(j int) bool { return byRecv[j].recv >= op.done })
		for ; j < len(byRecv); j++ {
			if byRecv[j].prefix > i {
				vis[i] = float64(byRecv[j].recv-op.done) / float64(time.Millisecond)
				break
			}
		}
	}
	return vis
}

// probeVisibility measures update visibility after a read-only phase:
// append one op, then poll /v1/total until an answer covers it; the next
// op is due visibilityGap after the previous one, so the ops sample a few
// seconds of disk and CPU weather rather than one burst. It returns the
// per-op latencies and the answers seen, for the oracle.
func probeVisibility(d *daemon, opsPath string, ops []workload.Update, already int, bases *epochBases) ([]float64, []sample, error) {
	f, err := os.OpenFile(opsPath, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	total := &probe{ep: "total", kind: "total"}
	var vis []float64
	var seen []sample
	t0 := time.Now()
	for i, op := range ops {
		if wait := time.Until(t0.Add(time.Duration(i) * visibilityGap)); wait > 0 {
			time.Sleep(wait)
		}
		if _, err := f.WriteString(opLine(op)); err != nil {
			return nil, nil, err
		}
		appended := time.Now()
		for {
			s := do(d, d.hc, total, bases, t0)
			if s.err != nil || s.status != http.StatusOK {
				return nil, nil, fmt.Errorf("visibility probe: status %d, %v", s.status, s.err)
			}
			s.prefix = bases.prefix(s.rep)
			seen = append(seen, s)
			if s.prefix >= already+i+1 {
				vis = append(vis, float64(time.Since(appended))/float64(time.Millisecond))
				break
			}
			if time.Since(appended) > 10*time.Second {
				return nil, nil, fmt.Errorf("op %d never became visible", i)
			}
		}
	}
	return vis, seen, nil
}
