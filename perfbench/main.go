// Command perfbench is the repository's end-to-end serving benchmark. It
// generates a seeded instance and probe streams, builds the snapshot with
// `repairctl build`, runs `repairctl serve` as a separate process, drives
// it from this one process over at most two connections, checks every
// answer, and prints one JSON result line:
//
//	perfbench -repairctl BIN -work DIR -workload probe-hot -seed 1 -seconds 10 -trace 0
//
// With -trace 1 the same run is followed by an in-process layer ladder
// (trace.go) and the result carries the per-layer metrics instead of the
// end-to-end ones. run.py builds both binaries from source and calls this;
// see README.md for the workloads and the daemon flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"repaircount/internal/relational"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// Workload names.
const (
	probeHot  = "probe-hot"
	probeCold = "probe-cold"
	updateMix = "update-mix"
)

const (
	setups = 9 // set-ups per run; setup_s is their median

	// plannedCompactions is how many compactions every update-mix run
	// triggers: the stream is cut halfway between the 4th and 5th planned
	// compaction, so batching jitter cannot move the count.
	plannedCompactions = 4
	// minUpdateSeconds is the shortest update-mix phase: its ~400 ops
	// then arrive at most 40 per second, far apart enough that each is
	// applied in a batch of its own, as the compaction plan assumes.
	// Faster, the tailer merges ops into fewer journal blocks and the
	// run compacts fewer times than planned.
	minUpdateSeconds = 10
	// visibilityOps ops, one every visibilityGap, are probed for
	// visibility after a read-only phase.
	visibilityOps = 240
	visibilityGap = 33 * time.Millisecond
	// coldRate and hotRate bound the pre-generated streams (probes per
	// second, several times the measured rates); a run that drains its
	// stream fails rather than reusing it.
	coldRate = 2000
	hotRate  = 40000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		repairctl = flag.String("repairctl", "", "path to the repairctl binary under test")
		work      = flag.String("work", "", "scratch directory for the generated files (created, then removed)")
		name      = flag.String("workload", "", "probe-hot, probe-cold or update-mix")
		seed      = flag.Uint64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 10, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1 reports the per-layer metrics of the traced run")
	)
	flag.Parse()
	// The load generator keeps every sample; collecting less often keeps
	// its GC from competing with the daemon for the two cores.
	debug.SetGCPercent(400)
	if *repairctl == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -repairctl and -work are required")
		os.Exit(2)
	}
	switch *name {
	case probeHot, probeCold:
	case updateMix:
		if *seconds < minUpdateSeconds {
			fmt.Fprintf(os.Stderr, "perfbench: update-mix needs -seconds >= %d\n", minUpdateSeconds)
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var cpus []int
	if pinned(*name) {
		var err error
		if cpus, err = pinSelf(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	res, layers, err := run(os.Stdout, *repairctl, *work, *name, *seed, *seconds, *trace == 1, cpus)
	os.RemoveAll(*work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *trace == 1 {
		res.Metrics = layers
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench holds one run's generated inputs.
type bench struct {
	name      string
	seed      uint64
	seconds   float64
	repairctl string
	f         files
	pristine  string
	in        *instance
	hot       []*probe
	zipf      []int32
	cold      []*probe
	warm      []*probe
	ops       []workload.Update // update-mix phase ops, or the visibility ops
	anns      map[string]float64
	cpus      []int // the CPUs a pinned phase rotates over (nil: not pinned)
}

// run performs one benchmark run. The result carries the end-to-end
// metrics; with trace, the layer ladder's metrics are returned as well.
func run(out io.Writer, repairctl, work, name string, seed uint64, seconds float64, trace bool, cpus []int) (*result, map[string]metric, error) {
	t0 := time.Now()
	b, err := prepare(repairctl, work, name, seed, seconds)
	if err != nil {
		return nil, nil, err
	}
	b.cpus = cpus
	b.describe(out)
	fmt.Fprintf(out, "# inputs generated in %.3fs\n", time.Since(t0).Seconds())

	var setupTimes []float64
	var d *daemon
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		var dur time.Duration
		if d, dur, err = b.setup(); err != nil {
			return nil, nil, err
		}
		setupTimes = append(setupTimes, dur.Seconds())
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	if err := copyFile(b.f.snap, b.pristine); err != nil {
		return nil, nil, err
	}

	m, err := b.measure(d)
	if err != nil {
		return nil, nil, err
	}
	d.stop()
	d = nil
	m.setup = median(setupTimes)

	o := &oracle{in: b.in, snapPath: b.pristine, anns: b.anns, ops: b.ops}
	if err := o.selfCheck(append(append([]*probe{}, b.hot...), b.cold[:min(len(b.cold), 80)]...)); err != nil {
		return nil, nil, err
	}
	all := make([]*sample, 0, len(m.ph.samples)+len(m.visSeen))
	for i := range m.ph.samples {
		all = append(all, &m.ph.samples[i])
	}
	for i := range m.visSeen {
		all = append(all, &m.visSeen[i])
	}
	if err := o.judge(all); err != nil {
		return nil, nil, err
	}
	res := b.report(out, m)
	if !trace {
		return res, nil, nil
	}
	layers, err := b.ladder(out, m)
	if err != nil {
		return nil, nil, err
	}
	return res, layers, nil
}

func prepare(repairctl, work, name string, seed uint64, seconds float64) (*bench, error) {
	abs, err := filepath.Abs(repairctl)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	b := &bench{name: name, seed: seed, seconds: seconds, repairctl: abs, in: newInstance(seed)}
	b.f = files{
		text:  filepath.Join(work, "instance.db"),
		snap:  filepath.Join(work, "instance.cqs"),
		ops:   filepath.Join(work, "stream.ops"),
		probs: filepath.Join(work, "weights.probs"),
	}
	b.pristine = filepath.Join(work, "oracle.cqs")
	db, ks := b.in.database()
	if err := writeWith(b.f.text, func(w io.Writer) error { return relational.WriteInstance(w, db, ks) }); err != nil {
		return nil, err
	}
	cdb, cks := b.in.componentDB()
	anns := workload.ProbStream(rand.New(rand.NewPCG(seed, 0x9b0b)), cdb)
	if err := writeWith(b.f.probs, func(w io.Writer) error { return workload.FormatProbAnnotations(w, anns) }); err != nil {
		return nil, err
	}
	b.anns = workload.AnnotationMap(anns)

	b.hot = hotSet(b.in, seed)
	switch name {
	case probeCold:
		blocks := int(seconds*coldRate)/coldBlockLen + 1
		b.cold = coldStream(b.in, seed, blocks)
		b.warm = warmProbes(b.in, seed)
	default:
		b.zipf = zipfStream(seed, len(b.hot), int(seconds*hotRate)+1024)
		b.warm = b.hot
	}
	stream := workload.UpdateStream(rand.New(rand.NewPCG(seed, 0x0b5)), cdb, cks, 2000, 0.5)
	if name == updateMix {
		n, err := cutForCompactions(stream, plannedCompactions)
		if err != nil {
			return nil, err
		}
		b.ops = stream[:n]
	} else {
		b.ops = stream[:visibilityOps]
	}
	return b, nil
}

// cutForCompactions returns the op count that lands halfway between the
// k-th and (k+1)-th compaction, simulating the daemon's trigger (journal
// bytes since the last compaction ≥ compactBytes, checked after each
// applied batch) with one op per batch.
func cutForCompactions(ops []workload.Update, k int) (int, error) {
	var at []int
	journal := 0
	for i, op := range ops {
		blk, err := store.EncodeJournal([]store.JournalOp{{Del: op.Del, Fact: op.Fact}})
		if err != nil {
			return 0, err
		}
		journal += len(blk)
		if journal >= compactBytes {
			at = append(at, i+1)
			journal = 0
			if len(at) == k+1 {
				return (at[k-1] + at[k]) / 2, nil
			}
		}
	}
	return 0, fmt.Errorf("update stream too short for %d compactions", k+1)
}

func writeWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// setup builds the snapshot, starts the daemon, waits for /healthz and
// warms the working set, returning the running daemon and the time taken.
func (b *bench) setup() (*daemon, time.Duration, error) {
	for _, p := range []string{b.f.snap, b.f.ops, b.f.ops + ".offset"} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return nil, 0, err
		}
	}
	if err := os.WriteFile(b.f.ops, nil, 0o644); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	build := exec.Command(b.repairctl, "build", "-db", b.f.text, "-o", b.f.snap)
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("repairctl build: %v: %s", err, msg)
	}
	d, err := startDaemon(b.repairctl, b.f)
	if err != nil {
		return nil, 0, err
	}
	if err := d.waitHealthy(); err != nil {
		d.stop()
		return nil, 0, err
	}
	for _, p := range b.warm {
		st, body, err := d.get(d.hc, p.path())
		if err != nil || (st != 200 && !(st == 429 && p.expect == "reject")) {
			d.stop()
			return nil, 0, fmt.Errorf("warming %s %q: status %d, %v: %s", p.ep, p.q, st, err, body)
		}
	}
	return d, time.Since(t0), nil
}

// measured is one run's raw measurements.
type measured struct {
	ph       *phase
	before   stats
	after    stats
	cpuTicks int64
	rssMiB   float64
	vis      []float64
	visSeen  []sample
	setup    float64
}

func (b *bench) measure(d *daemon) (*measured, error) {
	m := &measured{}
	var err error
	if m.before, err = d.stats(d.hc); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	var next func(i int) *probe
	limit := len(b.zipf)
	if b.name == probeCold {
		next = func(i int) *probe { return b.cold[i] }
		limit = len(b.cold)
	} else {
		next = func(i int) *probe { return b.hot[b.zipf[i]] }
	}
	var phaseOps []workload.Update
	if b.name == updateMix {
		phaseOps = b.ops
	}
	if m.ph, err = runClosed(d, clients(b.name), b.cpus, next, limit, b.seconds, b.f.ops, phaseOps); err != nil {
		return nil, err
	}
	if m.ph.exhaust {
		return nil, fmt.Errorf("the %s stream ran out after %d probes; raise coldRate or hotRate", b.name, limit)
	}
	if b.name == updateMix {
		// Every op must be applied before the counters are read.
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, err := d.stats(d.hc)
			if err != nil {
				return nil, err
			}
			if st.AppliedOps-m.before.AppliedOps >= int64(len(b.ops)) || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	cpu1, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	m.cpuTicks = cpu1 - cpu0
	if m.after, err = d.stats(d.hc); err != nil {
		return nil, err
	}
	if m.rssMiB, err = d.peakRSSMiB(); err != nil {
		return nil, err
	}
	for i := range m.ph.samples {
		m.ph.samples[i].prefix = m.ph.bases.prefix(m.ph.samples[i].rep)
	}
	if b.name == updateMix {
		m.vis = visibility(m.ph)
	} else {
		bases := newEpochBases()
		if m.vis, m.visSeen, err = probeVisibility(d, b.f.ops, b.ops, 0, bases); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}
