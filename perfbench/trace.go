package main

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repaircount"
	"repaircount/internal/core"
	"repaircount/internal/server"
)

// The traced run attributes time to layers by calling each module's public
// functions in-process on the run's seeded inputs, after the daemon has
// stopped: the hot working set (serve-path layers), the first blocks of
// the probe-cold stream (parse, plan, engines), and the first ops of the
// update stream (apply, journal, compaction, recount). Every workload's
// traced run reports the whole ladder; the /v1/stats counters are the
// workload's own timed-phase deltas.

const (
	ladderColdBlocks = 10  // probe-cold blocks walked by the engine layers
	ladderOps        = 100 // update ops walked by the write-path layers
	ladderRepeats    = 5   // repetitions of the whole-file store layers
	ladderHotProbes  = 20000
	ladderRTTs       = 3000
	ladderFPRAS      = 6
)

// timer collects per-layer samples in microseconds.
type timer map[string][]float64

func (t timer) add(name string, d time.Duration) {
	t[name] = append(t[name], float64(d)/float64(time.Microsecond))
}

func (t timer) time(name string, fn func()) {
	t0 := time.Now()
	fn()
	t.add(name, time.Since(t0))
}

func (t timer) med(name string) float64 { return median(t[name]) }

func (b *bench) ladder(out io.Writer, m *measured) (map[string]metric, error) {
	dir := filepath.Join(filepath.Dir(b.f.snap), "ladder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := timer{}
	if err := b.serveLayers(t, dir); err != nil {
		return nil, err
	}
	if err := b.engineLayers(t); err != nil {
		return nil, err
	}
	if err := b.storeLayers(t, dir); err != nil {
		return nil, err
	}

	us := func(v float64) metric { return metric{v, "us"} }
	ms := func(v float64) metric { return metric{v / 1000, "ms"} }
	res := map[string]metric{
		"server.http_rtt_us":               us(t.med("rtt")),
		"server.handler_us":                us(t.med("handler")),
		"server.probe_query_us":            us(t.med("probe_query")),
		"server.pool_us":                   us(t.med("pool")),
		"server.deadline_ctx_us":           us(t.med("deadline_ctx")),
		"server.cache_acquire_us":          us(t.med("cache_acquire")),
		"server.encode_us":                 us(t.med("encode")),
		"query.parse_us":                   us(t.med("parse")),
		"repairs.counter_build_us":         us(t.med("counter_build")),
		"repairs.fingerprint_us":           us(t.med("fingerprint")),
		"server.admission_us":              us(t.med("admission")),
		"repairs.plan_us":                  us(t.med("plan")),
		"repairs.count_after_admission_us": us(t.med("count_after_admission")),
		"repairs.prob_us":                  us(t.med("prob")),
		"repairs.decide_us":                us(t.med("decide")),
		"core.fpras_ms":                    ms(t.med("fpras")),
		"server.render_us":                 us(t.med("render")),
		"repairs.apply_us":                 us(t.med("apply")),
		"repairs.recount_after_delta_us":   us(t.med("recount")),
		"store.journal_append_ms":          ms(t.med("journal_append")),
		"store.compact_ms":                 ms(t.med("compact")),
		"store.snapshot_write_s":           {t.med("snapshot_write") / 1e6, "s"},
		"store.open_s":                     {t.med("open") / 1e6, "s"},
		"store.journal_bytes_per_op":       {median(t["journal_bytes"]), "B/op"},
	}
	for _, e := range []string{"safeplan", "lambda1", "factorized", "compile", "compie", "ie", "enum"} {
		res["repairs.count_us."+e] = us(t.med("count." + e))
	}
	for _, e := range []string{"gray", "compie", "compile"} {
		res["repairs.ns_per_cost_unit."+e] = metric{median(t["nspc."+e]), "ns"}
	}

	// Layer-sum reconciliation of the hot serve path.
	parts := []string{"probe_query", "pool", "deadline_ctx", "cache_acquire", "encode"}
	sum := 0.0
	for _, p := range parts {
		sum += t.med(p)
	}
	handler := t.med("handler")
	coverage := sum / handler
	res["server.hot_layer_coverage"] = metric{coverage, "ratio"}
	res["server.hot_residual_us"] = us(handler - sum)
	p50 := quantile(latencies(m.ph.samples), 0.5) * 1000
	res["server.p50_gap_us"] = us(p50 - handler - t.med("rtt"))
	flag := ""
	if coverage < 0.9 {
		flag = "  [below 90%: the residual is mux routing, the read lock and response-map building inside the handler]"
	}
	fmt.Fprintf(out, "# hot handler %.2fus = probe_query %.2f + pool %.2f + deadline_ctx %.2f + cache_acquire %.2f + encode %.2f (%.0f%%) + residual %.2fus%s\n",
		handler, t.med("probe_query"), t.med("pool"), t.med("deadline_ctx"), t.med("cache_acquire"), t.med("encode"), 100*coverage, handler-sum, flag)
	fmt.Fprintf(out, "# this run's probe p50 %.2fus = handler %.2f + loopback rtt %.2f + gap %.2fus (client, contention)\n",
		p50, handler, t.med("rtt"), p50-handler-t.med("rtt"))

	// Counters: the workload's own /v1/stats deltas over the timed phase.
	d := func(get func(stats) int64) float64 { return float64(get(m.after) - get(m.before)) }
	probes := float64(max(len(m.ph.samples), 1))
	hits, misses := d(func(s stats) int64 { return s.CacheHits }), d(func(s stats) int64 { return s.CacheMisses })
	res["server.cache_hit_ratio"] = metric{hits / max(hits+misses, 1), "ratio"}
	res["server.cache_fp_merge_ratio"] = metric{d(func(s stats) int64 { return s.CacheFPMerges }) / probes, "ratio"}
	res["server.cache_evictions_per_op"] = metric{d(func(s stats) int64 { return s.CacheEvictions }) / probes, "count"}
	res["server.compactions"] = metric{d(func(s stats) int64 { return s.Epoch }), "count"}
	res["server.approx_probes"] = metric{d(func(s stats) int64 { return s.ApproxProbes }), "count"}
	res["server.rejected_probes"] = metric{d(func(s stats) int64 { return s.RejectedProbes }), "count"}
	res["server.overloaded"] = metric{d(func(s stats) int64 { return s.Overloaded }), "count"}
	for _, k := range sortedKeys(res) {
		fmt.Fprintf(out, "# %-36s %14.4f %s\n", k, res[k].Value, res[k].Unit)
	}
	for _, k := range sortedKeys(t) {
		if len(t[k]) == 0 {
			return nil, fmt.Errorf("ladder: layer %s has no samples", k)
		}
	}
	return res, nil
}

func latencies(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.drain {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	return out
}

// serveCfg is the daemon configuration of serveArgs as a server.Config.
func (b *bench) serveCfg(snap string) server.Config {
	return server.Config{
		SnapshotPath: snap, Workers: serveWorkers, CountWorkers: countWorkers,
		CacheEntries: cacheEntries, ExactBudget: exactBudget, CompactBytes: -1,
		Eps: fprasEps, Delta: fprasDelta, Seed: fprasSeed, ProbsPath: b.f.probs,
	}
}

// serveLayers times the hot serve path: the whole handler on a recorder,
// its pieces one by one, and a loopback round trip.
func (b *bench) serveLayers(t timer, dir string) error {
	path := filepath.Join(dir, "serve.cqs")
	if err := copyFile(b.pristine, path); err != nil {
		return err
	}
	srv, err := server.New(b.serveCfg(path))
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	reqs := make([]*http.Request, len(b.hot))
	for i, p := range b.hot {
		reqs[i] = httptest.NewRequest(http.MethodGet, p.path(), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, reqs[i])
		if rec.Code != http.StatusOK {
			return fmt.Errorf("ladder: warming %s: status %d", p.path(), rec.Code)
		}
	}
	zipf := zipfStream(b.seed, len(b.hot), ladderHotProbes)
	for _, i := range zipf {
		rec := httptest.NewRecorder()
		t.time("handler", func() { h.ServeHTTP(rec, reqs[i]) })
	}
	for _, i := range zipf[:ladderRTTs] {
		r := reqs[i]
		t.time("probe_query", func() { server.ProbeQuery(r) })
	}
	pool := server.NewPool(serveWorkers, 4*serveWorkers)
	ctx := context.Background()
	for range ladderRTTs {
		t.time("pool", func() {
			sl, _ := pool.Acquire(ctx)
			pool.Release(sl)
		})
		t.time("deadline_ctx", func() {
			_, cancel := context.WithTimeout(ctx, 30*time.Second)
			cancel()
		})
	}

	// Cache acquire + result lookup on a hit, over the hot count probes.
	snap, err := repaircount.OpenSnapshot(b.pristine)
	if err != nil {
		return err
	}
	defer snap.Close()
	build := func(qs string) (*repaircount.Counter, error) {
		q, err := repaircount.ParseQuery(qs)
		if err != nil {
			return nil, err
		}
		return snap.Counter(q)
	}
	pc := server.NewProbeCache(cacheEntries)
	var counts []*probe
	for _, p := range b.hot {
		if p.ep == "count" {
			ent, err := pc.Acquire(ctx, 0, p.q, build)
			if err != nil {
				return err
			}
			ent.StoreResult(server.ResultCount, 0, snap.Version(), server.CachedResult{N: p.want, Str: p.want.String()})
			pc.Release(ent)
			counts = append(counts, p)
		}
	}
	version := snap.Version()
	for _, i := range zipf[:ladderRTTs] {
		p := counts[int(i)%len(counts)]
		var ok bool
		t.time("cache_acquire", func() {
			ent, _ := pc.Acquire(ctx, 0, p.q, build)
			_, ok = ent.Result(server.ResultCount, 0, version)
			pc.Release(ent)
		})
		if !ok {
			return fmt.Errorf("ladder: cache miss on a stored hot probe")
		}
		str := p.want.String()
		r := reqs[0]
		rec := httptest.NewRecorder()
		t.time("encode", func() {
			server.WriteResult(rec, r, str, map[string]any{
				"mode": "exact", "count": str, "engine": "factorized", "version": version, "epoch": uint64(0),
			})
		})
	}

	// Loopback round trip of /healthz through a real listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	defer hs.Close()
	d := &daemon{base: "http://" + ln.Addr().String(), hc: newClient(1)}
	defer d.hc.CloseIdleConnections()
	for range ladderRTTs {
		t0 := time.Now()
		st, _, err := d.get(d.hc, "/healthz")
		if err != nil || st != http.StatusOK {
			return fmt.Errorf("ladder: loopback /healthz: %d %v", st, err)
		}
		t.add("rtt", time.Since(t0))
	}
	return nil
}

// engineLayers walks the probe-cold stream prefix through the probe
// pipeline stage by stage (parse, counter build, fingerprint, admission,
// count, render) on one counter per probe, and times the one-shot plan,
// every forced engine, probabilities, decisions and the FPRAS on fresh
// counters.
func (b *bench) engineLayers(t timer) error {
	snap, err := repaircount.OpenSnapshot(b.pristine)
	if err != nil {
		return err
	}
	defer snap.Close()
	ladder := server.Ladder{ExactBudget: exactBudget, MaxSamples: core.MaxApxSamples, Eps: fprasEps, Delta: fprasDelta}
	fresh := func(qs string) (*repaircount.Counter, error) {
		q, err := repaircount.ParseQuery(qs)
		if err != nil {
			return nil, err
		}
		return snap.Counter(q)
	}
	ctx := context.Background()
	fpras := 0
	for _, p := range coldStream(b.in, b.seed, ladderColdBlocks) {
		switch {
		case p.ep == "count" && p.expect == "exact":
			var q repaircount.Formula
			t.time("parse", func() { q, err = repaircount.ParseQuery(p.q) })
			if err != nil {
				return err
			}
			var c *repaircount.Counter
			t.time("counter_build", func() { c, err = snap.Counter(q) })
			if err != nil {
				return err
			}
			t.time("fingerprint", func() { c.CountFingerprint() })
			var adm server.Admission
			t.time("admission", func() { adm = ladder.Price(c) })
			if adm.Mode != server.AdmitExact {
				return fmt.Errorf("ladder: %q priced %s", p.q, adm.Mode)
			}
			var n *big.Int
			t.time("count_after_admission", func() { n, _, err = c.CountCtx(ctx, countWorkers) })
			if err != nil {
				return err
			}
			if n.Cmp(p.want) != 0 {
				return fmt.Errorf("ladder: %q counted %s, want %s", p.q, n, p.want)
			}
			t.time("render", func() { _ = n.String() })

			// One-shot plan and count, each on a fresh counter.
			c2, err := fresh(p.q)
			if err != nil {
				return err
			}
			var plan *repaircount.Plan
			t.time("plan", func() { plan, err = c2.ExplainPlan(repaircount.EngineAuto) })
			if err != nil {
				return err
			}
			c3, err := fresh(p.q)
			if err != nil {
				return err
			}
			t0 := time.Now()
			_, engine, err := c3.CountCtx(ctx, countWorkers)
			countDur := time.Since(t0)
			if err != nil {
				return err
			}
			t.add("count."+engineLabel(engine), countDur)
			if e := planEngine(plan); e != "" && plan.Budget > 0 {
				t["nspc."+e] = append(t["nspc."+e], float64(countDur.Nanoseconds())/float64(plan.Budget))
			}
			if p.kind == "factorized" {
				if err := b.forced(t, fresh, p); err != nil {
					return err
				}
			}
		case p.ep == "count" && p.expect == "approx" && fpras < ladderFPRAS:
			c, err := fresh(p.q)
			if err != nil {
				return err
			}
			fpras++
			t.time("fpras", func() { _, err = c.ApproximateParallelCtx(ctx, fprasEps, fprasDelta, countWorkers, fprasSeed) })
			if err != nil {
				return err
			}
		case p.ep == "prob":
			c, err := fresh(p.q)
			if err != nil {
				return err
			}
			w := c.FactWeights(b.anns)
			t.time("prob", func() { _, err = c.ProbabilityOf(w) })
			if err != nil {
				return err
			}
		case p.ep == "decide":
			c, err := fresh(p.q)
			if err != nil {
				return err
			}
			var ent bool
			t.time("decide", func() { ent = c.Decide() })
			if ent != (p.want.Sign() > 0) {
				return fmt.Errorf("ladder: decide %q = %v", p.q, ent)
			}
		}
	}
	// Component IE and whole-instance IE run on the P components, whose
	// few boxes keep them cheap; enumeration on the C components, whose
	// choice spaces are small.
	for _, c := range b.in.comps {
		p := &probe{q: union([]*component{&c}), want: b.in.countUnion([]*component{&c})}
		var engines []repaircount.EngineKind
		switch {
		case c.big:
			continue
		case c.fam == famP:
			engines = []repaircount.EngineKind{repaircount.EngineCompIE, repaircount.EngineIE}
		case c.fam == famC:
			engines = []repaircount.EngineKind{repaircount.EngineEnum}
		}
		for _, e := range engines {
			if err := b.timeForced(t, fresh, p, e); err != nil {
				return err
			}
		}
	}
	return nil
}

// forced times the compile engine on a fresh counter and records its
// cost calibration against the compile-forced plan.
func (b *bench) forced(t timer, fresh func(string) (*repaircount.Counter, error), p *probe) error {
	c, err := fresh(p.q)
	if err != nil {
		return err
	}
	plan, err := c.ExplainPlan(repaircount.EngineCompile)
	if err != nil {
		return err
	}
	c, err = fresh(p.q)
	if err != nil {
		return err
	}
	t0 := time.Now()
	n, err := c.CountWith(repaircount.EngineCompile)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if n.Cmp(p.want) != 0 {
		return fmt.Errorf("ladder: compile counted %q as %s, want %s", p.q, n, p.want)
	}
	t.add("count.compile", d)
	if plan.Budget > 0 {
		t["nspc.compile"] = append(t["nspc.compile"], float64(d.Nanoseconds())/float64(plan.Budget))
	}
	return nil
}

func (b *bench) timeForced(t timer, fresh func(string) (*repaircount.Counter, error), p *probe, e repaircount.EngineKind) error {
	c, err := fresh(p.q)
	if err != nil {
		return err
	}
	t0 := time.Now()
	n, err := c.CountWith(e)
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("ladder: %s on %q: %w", e, p.q, err)
	}
	if n.Cmp(p.want) != 0 {
		return fmt.Errorf("ladder: %s counted %q as %s, want %s", e, p.q, n, p.want)
	}
	t.add("count."+engineLabel(e), d)
	return nil
}

// engineLabel names an engine as the per-layer metrics do.
func engineLabel(e repaircount.EngineKind) string {
	switch e {
	case repaircount.EngineSafePlan:
		return "safeplan"
	case repaircount.EngineLambda1:
		return "lambda1"
	case repaircount.EngineCompIE:
		return "compie"
	case repaircount.EngineCompile:
		return "compile"
	case repaircount.EngineIE:
		return "ie"
	case repaircount.EngineEnum:
		return "enum"
	}
	return "factorized"
}

// planEngine is the single per-component engine of a factorized plan
// ("gray" or "compie"), or "" for a mixed or closed-form plan.
func planEngine(p *repaircount.Plan) string {
	if p.Engine != repaircount.EngineFactorized || len(p.Components) == 0 {
		return ""
	}
	e := p.Components[0].Engine
	for _, c := range p.Components {
		if c.Engine != e {
			return ""
		}
	}
	switch e {
	case repaircount.EngineGray:
		return "gray"
	case repaircount.EngineCompIE:
		return "compie"
	}
	return ""
}

// storeLayers times the write path on the update stream: in-memory apply
// plus a warm recount of every hot count probe after each op, the fsync'd
// journal append, compaction, and whole-snapshot write and open.
func (b *bench) storeLayers(t timer, dir string) error {
	ops := b.ops[:min(len(b.ops), ladderOps)]
	snap, err := repaircount.OpenSnapshot(b.pristine)
	if err != nil {
		return err
	}
	defer snap.Close()
	ctx := context.Background()
	var counters []*repaircount.Counter
	for _, p := range b.hot {
		if p.ep != "count" {
			continue
		}
		q, err := repaircount.ParseQuery(p.q)
		if err != nil {
			return err
		}
		c, err := snap.Counter(q)
		if err != nil {
			return err
		}
		if _, _, err := c.CountCtx(ctx, countWorkers); err != nil {
			return err
		}
		counters = append(counters, c)
	}
	journal := filepath.Join(dir, "journal.cqs")
	if err := copyFile(b.pristine, journal); err != nil {
		return err
	}
	st0, err := os.Stat(journal)
	if err != nil {
		return err
	}
	for _, op := range ops {
		d := repaircount.Insert(op.Fact)
		if op.Del {
			d = repaircount.Delete(op.Fact)
		}
		t.time("apply", func() { _, err = snap.Apply(d) })
		if err != nil {
			return err
		}
		for _, c := range counters {
			t.time("recount", func() { _, _, err = c.CountCtx(ctx, countWorkers) })
			if err != nil {
				return err
			}
		}
		t.time("journal_append", func() { err = repaircount.AppendJournal(journal, d) })
		if err != nil {
			return err
		}
	}
	st1, err := os.Stat(journal)
	if err != nil {
		return err
	}
	t["journal_bytes"] = []float64{float64(st1.Size()-st0.Size()) / float64(len(ops))}

	db, ks := b.in.database()
	for i := range ladderRepeats {
		c := filepath.Join(dir, fmt.Sprintf("compact%d.cqs", i))
		if err := copyFile(journal, c); err != nil {
			return err
		}
		t.time("compact", func() {
			if err = repaircount.CompactSnapshot(c, c); err == nil {
				var s *repaircount.Snapshot
				if s, err = repaircount.OpenSnapshot(c); err == nil {
					err = s.Close()
				}
			}
		})
		if err != nil {
			return err
		}
		w := filepath.Join(dir, fmt.Sprintf("write%d.cqs", i))
		t.time("snapshot_write", func() {
			err = writeWith(w, func(f io.Writer) error { return repaircount.WriteSnapshot(f, db, ks) })
		})
		if err != nil {
			return err
		}
		t.time("open", func() {
			if _, err = repaircount.RecoverSnapshot(w); err == nil {
				var s *repaircount.Snapshot
				if s, err = repaircount.OpenSnapshot(w); err == nil {
					err = s.Close()
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
