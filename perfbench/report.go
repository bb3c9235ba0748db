package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Premise thresholds.
const (
	// coldMissShare: on probe-cold at least this share of probes must miss
	// the result cache (every probe is a fresh text).
	coldMissShare = 0.99
	// coldMergeShare: on probe-cold at most this share of probes may be
	// served through a count-fingerprint alias of another query.
	coldMergeShare = 0.02
)

// describe prints the run header: what was generated and how the daemon
// is configured, so every result line is self-describing.
func (b *bench) describe(out io.Writer) {
	nc, np, ns, nb := 0, 0, 0, 0
	for _, c := range b.in.comps {
		switch {
		case c.big:
			nb++
		case c.fam == famC:
			nc++
		case c.fam == famP:
			np++
		default:
			ns++
		}
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g clients=%d setups=%d\n",
		b.name, b.seed, b.seconds, clients(b.name), setups)
	fmt.Fprintf(out, "# instance: %d component facts + %d filler facts; components C=%d P=%d S=%d bigS=%d; |rep| has %d digits\n",
		len(b.in.facts()), b.in.filler, nc, np, ns, nb, len(b.in.total.String()))
	switch b.name {
	case probeCold:
		fmt.Fprintf(out, "# stream: %d fresh probes pre-generated, blocks of %d (24 exact counts, 1 FPRAS, 1 non-EP refusal, 7 decide, 7 prob)\n",
			len(b.cold), coldBlockLen)
	case updateMix:
		fmt.Fprintf(out, "# stream: Zipf(1.1) over %d hot probes + %d ops open-loop over %gs (%d planned compactions)\n",
			len(b.hot), len(b.ops), b.seconds, plannedCompactions)
	default:
		fmt.Fprintf(out, "# stream: Zipf(1.1) over %d hot probes (cache-entries %d)\n", len(b.hot), cacheEntries)
	}
	fmt.Fprintf(out, "# serve flags: %v\n", b.f.serveArgs()[1:])
	if len(b.cpus) > 1 {
		fmt.Fprintf(out, "# pinned: load generator and daemon on one CPU at a time, rotating over CPUs %v every %v\n", b.cpus, rotatePeriod)
	}
}

// report turns the measurements into the end-to-end metrics, checking the
// workload's premise from the /v1/stats deltas.
func (b *bench) report(out io.Writer, m *measured) *result {
	ph := m.ph
	probes := len(ph.samples)
	attempted := probes
	if b.name == updateMix {
		attempted += len(b.ops)
	}
	failed := 0
	byVerdict := map[string]int{}
	var lat []float64 // in completion order
	exact, approx := 0, 0
	wholeBlocks := probes / coldBlockLen * coldBlockLen
	sort.SliceStable(ph.samples, func(i, j int) bool { return ph.samples[i].recv < ph.samples[j].recv })
	for _, s := range ph.samples {
		byVerdict[s.verdict]++
		if failedVerdict(s.verdict) {
			failed++
		}
		if s.drain {
			continue
		}
		lat = append(lat, float64(s.lat)/float64(time.Millisecond))
		if s.p.ep == "count" && s.status == 200 && (b.name != probeCold || s.idx < wholeBlocks) {
			switch s.rep.Mode {
			case "exact":
				exact++
			case "approx":
				approx++
			}
		}
	}
	for _, s := range m.visSeen {
		if failedVerdict(s.verdict) {
			byVerdict["post-phase "+s.verdict]++
			failed++
		}
	}
	unseen := 0
	for _, v := range m.vis {
		if math.IsNaN(v) {
			unseen++
		}
	}
	if b.name == updateMix {
		failed += unseen // an op no answer ever showed
	}

	premise := b.premise(m, probes)
	for _, p := range premise {
		fmt.Fprintf(out, "# PREMISE BROKEN: %s\n", p)
	}
	fmt.Fprintf(out, "# answers: %v; ops never visible: %d\n", byVerdict, unseen)
	shown := map[string]int{}
	for _, s := range append(append([]sample{}, ph.samples...), m.visSeen...) {
		if failedVerdict(s.verdict) && shown[s.p.ep] < 3 {
			shown[s.p.ep]++
			fmt.Fprintf(out, "# %s %s %q at prefix %d: status %d %v reply %s\n", s.verdict, s.p.ep, s.p.q, s.prefix, s.status, s.err, s.rep)
		}
	}
	if b.name == updateMix {
		late := make([]float64, len(ph.ops))
		for i, o := range ph.ops {
			late[i] = float64(o.done-o.due) / float64(time.Millisecond)
		}
		fmt.Fprintf(out, "# open-loop writer lateness: p50 %.3fms p90 %.3fms max %.3fms\n",
			quantile(late, 0.5), quantile(late, 0.9), quantile(late, 1))
	}

	byKind := map[string][]float64{}
	for _, s := range ph.samples {
		if s.drain {
			continue
		}
		k := s.p.ep + "/" + s.p.kind
		byKind[k] = append(byKind[k], float64(s.lat)/float64(time.Millisecond))
	}
	for _, k := range sortedKeys(byKind) {
		fmt.Fprintf(out, "# latency %-20s n=%-7d p50 %.3fms p99 %.3fms\n", k, len(byKind[k]), quantile(byKind[k], 0.5), quantile(byKind[k], 0.99))
	}

	vis := make([]float64, 0, len(m.vis))
	for _, v := range m.vis {
		if !math.IsNaN(v) {
			vis = append(vis, v)
		}
	}
	var rates, cpuPerOp []float64
	for _, w := range ph.windows {
		rates = append(rates, float64(w.probes)/w.secs)
		cpuPerOp = append(cpuPerOp, float64(w.cpuTicks)*1000/clockTicks/float64(max(w.probes+w.ops, 1)))
	}
	cpuMs := float64(m.cpuTicks) * 1000 / clockTicks
	ops := probes + int(m.after.AppliedOps-m.before.AppliedOps)
	fmt.Fprintf(out, "# whole phase: %.1f probes/s, %.4f cpu ms/op; per-second probes/s %.0f\n",
		float64(probes)/ph.wall.Seconds(), cpuMs/float64(max(ops, 1)), rates)
	fmt.Fprintf(out, "# per-second cpu ms/op %.4f\n", cpuPerOp)
	if len(premise) > 0 {
		// A run that breaks its premise is not a measurement: every
		// attempt counts as failed.
		failed = attempted
	}
	metrics := map[string]metric{
		"setup_s":               {m.setup, "s"},
		"probe_p50_ms":          {chunked(lat, 0.5), "ms"},
		"probe_p99_ms":          {chunked(lat, 0.99), "ms"},
		"probes_per_s":          {median(rates), "1/s"},
		"server_cpu_ms_per_op":  {median(cpuPerOp), "ms"},
		"rss_peak_mb":           {m.rssMiB, "MiB"},
		"ok_share":              {1 - float64(failed)/float64(max(attempted, 1)), "ratio"},
		"exact_share":           {float64(exact) / float64(max(exact+approx, 1)), "ratio"},
		"update_visible_p50_ms": {quantile(vis, 0.5), "ms"},
		"update_visible_p90_ms": {quantile(vis, 0.9), "ms"},
	}
	fmt.Fprintf(out, "# samples: %d probes (p99 has %d beyond), %d visibility ops (p90 has %d beyond), cpu %d ticks\n",
		len(lat), len(lat)-int(math.Ceil(0.99*float64(len(lat)))), len(vis), len(vis)-int(math.Ceil(0.9*float64(len(vis)))), m.cpuTicks)
	for _, k := range sortedKeys(metrics) {
		fmt.Fprintf(out, "# %-24s %14.6f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// premise checks what the workload claims to exercise, from the stats
// deltas over the timed phase; it returns every broken premise.
func (b *bench) premise(m *measured, probes int) []string {
	d := func(get func(stats) int64) int64 { return get(m.after) - get(m.before) }
	var broken []string
	if n := d(func(s stats) int64 { return s.Overloaded }); n != 0 {
		broken = append(broken, fmt.Sprintf("%d probes answered 503 overloaded", n))
	}
	if n := d(func(s stats) int64 { return s.Deadline }); n != 0 {
		broken = append(broken, fmt.Sprintf("%d probes hit the deadline", n))
	}
	switch b.name {
	case probeHot:
		if n := d(func(s stats) int64 { return s.CacheMisses }); n != 0 {
			broken = append(broken, fmt.Sprintf("probe-hot missed the cache %d times", n))
		}
	case probeCold:
		misses := d(func(s stats) int64 { return s.CacheMisses })
		merges := d(func(s stats) int64 { return s.CacheFPMerges })
		if float64(misses) < coldMissShare*float64(probes) {
			broken = append(broken, fmt.Sprintf("probe-cold missed the cache %d times over %d probes", misses, probes))
		}
		if float64(merges) > coldMergeShare*float64(probes) {
			broken = append(broken, fmt.Sprintf("probe-cold had %d fingerprint merges over %d probes", merges, probes))
		}
	case updateMix:
		if n := d(func(s stats) int64 { return s.AppliedOps }); n != int64(len(b.ops)) {
			broken = append(broken, fmt.Sprintf("applied %d ops, sent %d", n, len(b.ops)))
		}
		if n := d(func(s stats) int64 { return s.Epoch }); n != plannedCompactions {
			broken = append(broken, fmt.Sprintf("%d compactions, planned %d", n, plannedCompactions))
		}
		if m.after.Degraded != "" {
			broken = append(broken, "daemon degraded: "+m.after.Degraded)
		}
	}
	return broken
}

// chunkLen is the probe count of one latency chunk: its p99 keeps 100
// samples beyond it, and a probe-cold run is a single chunk.
const chunkLen = 10000

// chunked is the median over consecutive chunkLen-probe chunks (in
// completion order) of each chunk's q-quantile, so a burst of outside load
// moves one chunk rather than the whole figure. A short run is one chunk.
func chunked(lat []float64, q float64) float64 {
	if len(lat) < 2*chunkLen {
		return quantile(lat, q)
	}
	var per []float64
	for i := 0; i+chunkLen <= len(lat); i += chunkLen {
		per = append(per, quantile(lat[i:i+chunkLen], q))
	}
	return median(per)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
