// Package server wraps a repair-counting snapshot as a long-lived
// HTTP/JSON daemon (`repairctl serve`): one mmapped .cqs snapshot, a
// bounded pool of probe workers with per-worker counter/matcher reuse
// over the shared live substrate, an admission ladder that prices every
// count probe before running it (exact → FPRAS with reported (ε, δ) →
// typed budget refusal), cooperative cancellation threaded into every
// enumeration kernel, and a crash-safe write path: an append-only ops
// file is tailed, applied through the live instance, journaled with
// fsync'd appends and compacted atomically, with torn-tail recovery at
// startup and the consumed ops offset persisted in a sidecar so
// restarts resume the tail instead of replaying from zero.
//
// The hot serve path runs through a shared, bounded probe cache
// (ProbeCache): compiled counters, priced admissions and completed
// exact/total/decide results are memoized per query and keyed by the
// substrate epoch and instance version, with per-entry locks collapsing
// a thundering herd of identical probes into one count. See the
// "Serve-path performance" section of the root package docs.
//
// There is one probe pipeline. The shard-fleet coordinator of
// internal/cluster is a Server built by NewFleet with a Fleet hook: the
// hook claims the partition query's counts and fans them out, hears of
// every applied batch and every compaction, and adds its counters to
// /v1/stats. Every other probe, and every claimed count the fleet
// declines, runs through the handlers below exactly as on the daemon,
// which has no hook. The probe gate (Gate), write-path health (Health)
// and batch apply (ApplyJournal) are exported for the shard workers.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repaircount"
	"repaircount/internal/core"
	"repaircount/internal/repairs"
	"repaircount/internal/workload"
)

// Config parameterizes a Server. Zero values select the documented
// defaults.
type Config struct {
	// SnapshotPath is the .cqs file to serve (required). The file is
	// recovered (torn journal tails truncated) before it is mapped.
	SnapshotPath string
	// OpsPath, when set, is an append-only update-stream file ("+ Fact" /
	// "- Fact" lines) the daemon tails: new complete lines are applied to
	// the live instance and journaled to the snapshot. The consumed byte
	// offset persists in the OpsPath + ".offset" sidecar.
	OpsPath string
	// Workers bounds concurrently running probes (default GOMAXPROCS).
	Workers int
	// CountWorkers is the goroutine count inside one exact count or
	// sampling loop (default 1: probe-level parallelism comes first).
	CountWorkers int
	// QueueDepth bounds probes waiting for a worker slot; beyond it the
	// daemon answers 503 overloaded immediately (default 4×Workers).
	QueueDepth int
	// Deadline is the per-probe wall-clock budget (default 30s). An
	// expired deadline cancels the probe cooperatively and answers 504.
	Deadline time.Duration
	// ExactBudget is the admission ceiling on the planner's priced exact
	// work Σ_c min(2^{n_c}, IE_c); costlier plans degrade to the FPRAS
	// (default repairs.DefaultEnumBudget).
	ExactBudget int64
	// MaxSamples is the admission ceiling on the Theorem 6.2 sample bound;
	// probes needing more get a budget_exceeded error (default and
	// maximum core.MaxApxSamples: the sampler refuses larger bounds, so a
	// larger value is clamped rather than admitting probes it would fail).
	MaxSamples int64
	// Eps and Delta are the accuracy served on the FPRAS rung (defaults
	// 0.1 and 0.05); responses report them.
	Eps, Delta float64
	// Seed makes degraded probes reproducible (default 1).
	Seed uint64
	// Poll is the ops-file tail interval (default 200ms).
	Poll time.Duration
	// CompactBytes triggers an atomic in-place compaction when the
	// snapshot's journal region exceeds it (default 1 MiB; < 0 disables).
	CompactBytes int64
	// CacheEntries bounds the shared probe cache holding compiled
	// counters, priced admissions and completed exact/total/decide
	// results keyed by (query, epoch, version). 0 selects
	// DefaultCacheEntries; < 0 disables the shared cache (probe slots
	// keep their private per-slot counter caches either way).
	CacheEntries int
	// ProbsPath, when set, is a per-fact probability-annotation file in
	// the workload prob-stream format ("weight<TAB>Fact" lines); /v1/prob
	// probes evaluate query probabilities under these weights through the
	// compiled-circuit weighted counters. Absent, /v1/prob serves the
	// uniform distribution (every repair equally likely — the relative
	// frequency). Annotations naming facts not in the instance are kept
	// and simply never used, so one file outlives the ops stream.
	ProbsPath string
}

func (cfg *Config) fill() {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CountWorkers <= 0 {
		cfg.CountWorkers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	if cfg.ExactBudget <= 0 {
		cfg.ExactBudget = int64(repairs.DefaultEnumBudget)
	}
	if cfg.MaxSamples <= 0 || cfg.MaxSamples > core.MaxApxSamples {
		cfg.MaxSamples = core.MaxApxSamples
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 0.1
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 0.05
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.CompactBytes == 0 {
		cfg.CompactBytes = 1 << 20
	}
}

// Ladder returns the admission policy the config describes.
func (cfg Config) Ladder() Ladder {
	return Ladder{ExactBudget: cfg.ExactBudget, MaxSamples: cfg.MaxSamples, Eps: cfg.Eps, Delta: cfg.Delta}
}

// Fleet is the hook through which a distributed topology joins the
// probe pipeline. Changed and Reshard run under the substrate's write
// lock, every other method under its read lock, so the fleet always sees
// the instance version and epoch the probe or batch sees.
type Fleet interface {
	// Claims reports whether count probes for qs are the fleet's to try.
	Claims(qs string) bool
	// Count tries a claimed count on the fleet at the given instance
	// version. It returns the rendered exact count with the fleet's
	// fields of the response body; or a Fallback when the probe is to be
	// counted by the local pipeline instead; or the failure to answer
	// (the probe's context error, or an *APIError such as a 502 for a
	// partial that must not be merged).
	Count(ctx context.Context, ent *CacheEntry, l Ladder, version uint64) (string, map[string]any, error)
	// Explain adds the fleet's view of a claimed probe to an explain body
	// and returns the admission its count gets on the fleet, or false
	// when the count would fall back.
	Explain(l Ladder, version uint64, body map[string]any) (Admission, bool)
	// Changed receives the applied ops that changed the instance.
	Changed(ops []workload.Update)
	// Reshard starts a new epoch over snap: once at startup and after
	// every compaction.
	Reshard(snap *repaircount.Snapshot, epoch uint64) error
	// Stats adds the fleet's counters to a /v1/stats body.
	Stats(body map[string]any)
}

// Fallback is a fleet's reason for declining a claimed count: the probe
// is counted by the local pipeline, still exactly, and the response
// reports the reason.
type Fallback string

func (f Fallback) Error() string { return string(f) }

// Server is one serving daemon instance. Probes take the read side of mu;
// the ops applier and compactor take the write side, so counts always see
// a consistent instance version.
type Server struct {
	cfg    Config
	ladder Ladder
	gate   *Gate
	health Health
	fleet  Fleet // nil on the single-node daemon

	mu      sync.RWMutex
	snap    *repaircount.Snapshot
	epoch   uint64 // bumped when the snapshot file is re-mapped (compaction)
	baseLen int64  // sealed-base bytes of the served file

	cache *ProbeCache        // nil when CacheEntries < 0
	probs map[string]float64 // per-fact weights for /v1/prob (nil = uniform)

	// weights is the ordinal-indexed rendering of probs at (epoch,
	// version), shared read-only by every /v1/prob probe of that state.
	weights struct {
		sync.Mutex
		epoch, version uint64
		w              []float64
	}

	appliedOps atomic.Int64
	journaled  atomic.Int64
	recovered  int64 // torn bytes dropped at startup

	stats struct {
		exact, approx, prob, rejected atomic.Int64
	}

	tailer   *Tailer
	stop     chan struct{}
	stopOnce sync.Once
	tailDone chan struct{}
}

// New recovers, maps and starts serving the snapshot in cfg. The returned
// server's Handler routes the probe API; Close stops the tailer and
// releases the mapping.
func New(cfg Config) (*Server, error) { return NewFleet(cfg, nil) }

// NewFleet is New with a fleet hook. Before the ops tail starts, a
// journaled snapshot is compacted and the fleet cuts epoch 1, so the
// server's epoch is the fleet's shard-set epoch throughout.
func NewFleet(cfg Config, fleet Fleet) (*Server, error) {
	cfg.fill()
	if cfg.SnapshotPath == "" {
		return nil, fmt.Errorf("server: SnapshotPath is required")
	}
	recovered, err := repaircount.RecoverSnapshot(cfg.SnapshotPath)
	if err != nil {
		return nil, fmt.Errorf("server: recovering %s: %w", cfg.SnapshotPath, err)
	}
	snap, err := repaircount.OpenSnapshot(cfg.SnapshotPath)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(cfg.SnapshotPath)
	if err != nil {
		snap.Close()
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		ladder:    cfg.Ladder(),
		gate:      NewGate(cfg.Workers, cfg.QueueDepth, cfg.Deadline),
		fleet:     fleet,
		snap:      snap,
		baseLen:   st.Size() - snap.JournalBytes(),
		recovered: recovered,
		stop:      make(chan struct{}),
		tailDone:  make(chan struct{}),
	}
	if cfg.CacheEntries >= 0 {
		s.cache = NewProbeCache(cfg.CacheEntries)
	}
	if cfg.ProbsPath != "" {
		if s.probs, err = loadProbs(cfg.ProbsPath); err != nil {
			snap.Close()
			return nil, err
		}
	}
	if fleet != nil {
		s.mu.Lock()
		if snap.JournalBytes() > 0 {
			err = s.compactLocked()
		} else {
			err = s.newEpochLocked()
		}
		s.mu.Unlock()
		if err != nil {
			s.snap.Close()
			return nil, err
		}
	}
	if cfg.OpsPath != "" {
		s.tailer = &Tailer{
			OpsPath:    cfg.OpsPath,
			OffsetPath: cfg.OpsPath + ".offset",
			Poll:       cfg.Poll,
			Apply:      s.applyBatch,
		}
		go s.tailLoop()
	} else {
		close(s.tailDone)
	}
	return s, nil
}

// loadProbs reads a per-fact probability annotation file.
func loadProbs(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: opening probs %s: %w", path, err)
	}
	defer f.Close()
	anns, err := workload.ParseProbAnnotations(f)
	if err != nil {
		return nil, fmt.Errorf("server: parsing probs %s: %w", path, err)
	}
	return workload.AnnotationMap(anns), nil
}

// Config returns the server's configuration with defaults filled in.
func (s *Server) Config() Config { return s.cfg }

// Recovered returns the torn journal bytes dropped at startup.
func (s *Server) Recovered() int64 { return s.recovered }

// Close stops the ops tailer and unmaps the snapshot. In-flight probes
// must have drained (close the HTTP server first). Safe to call twice.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.tailDone
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap.Close()
}

// buildCounter parses and compiles one query against the current
// snapshot. Caller holds s.mu.RLock.
func (s *Server) buildCounter(qs string) (*repaircount.Counter, error) {
	q, err := repaircount.ParseQuery(qs)
	if err != nil {
		return nil, err
	}
	return s.snap.Counter(q)
}

// counter returns the probe's compiled counter: through the locked
// shared cache entry, which the caller must Release when non-nil, or
// from the slot's private counters when the shared cache is off. On
// failure it writes the transport answer and returns a nil counter.
// Caller holds s.mu.RLock.
func (s *Server) counter(w http.ResponseWriter, ctx context.Context, sl *Slot, qs string) (*CacheEntry, *repaircount.Counter) {
	if s.cache == nil {
		c, err := sl.Counter(s.epoch, qs, s.buildCounter)
		if err != nil {
			badQuery(w, err)
		}
		return nil, c
	}
	ent, err := s.cache.Acquire(ctx, s.epoch, qs, s.buildCounter)
	if err != nil {
		if ctx.Err() != nil {
			s.gate.WriteCtxErr(w, ctx)
		} else {
			badQuery(w, err)
		}
		return nil, nil
	}
	return ent, ent.Counter()
}

// price returns the probe's admission, memoized per (epoch, version)
// when a cache entry is present — and, across version bumps that did not
// move the plan fingerprint, a memoized exact admission is reused without
// re-running the ladder (Ladder.PriceEntry). A later ErrBudget re-price
// is never stored: the memo keeps the plan-level admission, exactly
// mirroring what the uncached ladder would decide on every probe.
func (s *Server) price(ent *CacheEntry, c *repaircount.Counter, version uint64) Admission {
	if ent == nil {
		return s.ladder.Price(c)
	}
	return s.ladder.PriceEntry(ent, c, s.epoch, version)
}

// writeFail answers a probe that failed: with the probe context's own
// answer when it ended, an *APIError as itself, anything else as a 500.
func (s *Server) writeFail(w http.ResponseWriter, ctx context.Context, err error) {
	var ae *APIError
	switch {
	case ctx.Err() != nil:
		s.gate.WriteCtxErr(w, ctx)
	case errors.As(err, &ae):
		WriteErr(w, ae.Status, *ae)
	default:
		WriteErr(w, http.StatusInternalServerError, APIError{Code: "internal", Message: err.Error()})
	}
}

// Handler routes the probe API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/count", s.handleCount)
	mux.HandleFunc("/v1/prob", s.handleProb)
	mux.HandleFunc("/v1/decide", s.handleDecide)
	mux.HandleFunc("/v1/explain", s.handleExplain)
	mux.HandleFunc("/v1/rank", s.handleRank)
	mux.HandleFunc("/v1/total", s.handleTotal)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.Handle("/healthz", &s.health)
	return mux
}

// writeCount renders an exact count. A fallback reason marks a claimed
// probe the fleet declined: its engine reads "local" and the reason is
// reported.
func (s *Server) writeCount(w http.ResponseWriter, r *http.Request, str string, engine repaircount.EngineKind, version uint64, fallback string) {
	body := map[string]any{
		"mode": "exact", "count": str,
		"engine": engine.String(), "version": version, "epoch": s.epoch,
	}
	if fallback != "" {
		body["engine"], body["fallback_reason"] = "local", fallback
	}
	WriteResult(w, r, str, body)
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	qs, err := ProbeQuery(r)
	if err != nil {
		badQuery(w, err)
		return
	}
	s.gate.Run(w, r, &s.mu, func(ctx context.Context, sl *Slot) {
		version := s.snap.Version()
		ent, c := s.counter(w, ctx, sl, qs)
		if c == nil {
			return
		}
		if ent != nil {
			defer s.cache.Release(ent)
		}
		var fallback string
		if s.fleet != nil && s.fleet.Claims(qs) {
			str, body, err := s.fleet.Count(ctx, ent, s.ladder, version)
			var fb Fallback
			switch {
			case err == nil:
				s.stats.exact.Add(1)
				body["mode"], body["count"], body["version"], body["epoch"] = "exact", str, version, s.epoch
				WriteResult(w, r, str, body)
				return
			case !errors.As(err, &fb):
				s.writeFail(w, ctx, err)
				return
			}
			fallback = string(fb)
		}
		if ent != nil {
			if res, ok := ent.Result(ResultCount, s.epoch, version); ok {
				s.stats.exact.Add(1)
				s.writeCount(w, r, res.Str, res.Engine, version, fallback)
				return
			}
			// The per-text memo missed; a structurally identical query may
			// already have computed this count. Equal count fingerprints
			// imply equal counts, so the aliased result is served as-is
			// (and copied into this text's memo for the fast path).
			if fp, ok := c.CountFingerprint(); ok {
				if res, ok := s.cache.ResultByFP(ResultCount, fp, s.epoch, version); ok {
					s.stats.exact.Add(1)
					ent.StoreResult(ResultCount, s.epoch, version, res)
					s.writeCount(w, r, res.Str, res.Engine, version, fallback)
					return
				}
			}
		}
		adm := s.price(ent, c, version)
		if adm.Mode == AdmitExact {
			n, engine, err := c.CountCtx(ctx, s.cfg.CountWorkers)
			switch {
			case err == nil:
				s.stats.exact.Add(1)
				str := n.String()
				if ent != nil {
					res := CachedResult{N: n, Str: str, Engine: engine}
					ent.StoreResult(ResultCount, s.epoch, version, res)
					if fp, ok := c.CountFingerprint(); ok {
						s.cache.StoreResultByFP(ResultCount, fp, s.epoch, version, res)
					}
				}
				s.writeCount(w, r, str, engine, version, fallback)
				return
			case ctx.Err() == nil && errors.Is(err, repaircount.ErrBudget):
				// The runtime fallback chain ran out of budget despite the
				// plan's price: degrade to the FPRAS rung below.
				adm = s.ladder.PriceApprox(c, adm)
			default:
				s.writeFail(w, ctx, err)
				return
			}
		}
		if adm.Mode == AdmitApprox {
			est, err := c.ApproximateParallelCtx(ctx, s.cfg.Eps, s.cfg.Delta, s.cfg.CountWorkers, s.cfg.Seed)
			if err != nil {
				s.writeFail(w, ctx, err)
				return
			}
			s.stats.approx.Add(1)
			WriteResult(w, r, est.Value.Text('f', 2), map[string]any{
				"mode": "approx", "estimate": est.Value.Text('f', 2),
				"eps": s.cfg.Eps, "delta": s.cfg.Delta,
				"samples": est.Samples, "hits": est.Hits,
				"version": version, "epoch": s.epoch,
			})
			return
		}
		s.stats.rejected.Add(1)
		WriteErr(w, http.StatusTooManyRequests, s.ladder.BudgetError(adm))
	})
}

// probResponse renders a served probability interval.
func probResponse(res CachedResult, version, epoch uint64) (string, map[string]any) {
	return res.Str, map[string]any{
		"prob_lo": res.Lo, "prob_hi": res.Hi, "prob": res.Str,
		"version": version, "epoch": epoch,
	}
}

// reject answers a refused probe with a structured 429.
func (s *Server) reject(w http.ResponseWriter, e APIError) {
	s.stats.rejected.Add(1)
	e.Code, e.ExactBudget = "budget_exceeded", s.cfg.ExactBudget
	WriteErr(w, http.StatusTooManyRequests, e)
}

// handleProb answers /v1/prob: the probability that a random repair
// entails the query under the daemon's per-fact weight annotations
// (-probs; uniform without one), evaluated through the compiled-circuit
// weighted counters as an outward-rounded interval bracketing the exact
// value. The probe is admission-priced by circuit size — the budget of
// the forced-compile plan, i.e. cached circuits at their node count and
// cold compiles at their capped bound — and there is no approximate rung:
// a plan beyond the exact budget (or a query the circuit engine cannot
// serve: non-∃FO⁺, masked factorization) is refused with a structured
// budget error, never silently estimated.
func (s *Server) handleProb(w http.ResponseWriter, r *http.Request) {
	qs, err := ProbeQuery(r)
	if err != nil {
		badQuery(w, err)
		return
	}
	s.gate.Run(w, r, &s.mu, func(ctx context.Context, sl *Slot) {
		version := s.snap.Version()
		ent, c := s.counter(w, ctx, sl, qs)
		if c == nil {
			return
		}
		if ent != nil {
			defer s.cache.Release(ent)
			if res, ok := ent.Result(ResultProb, s.epoch, version); ok {
				s.stats.prob.Add(1)
				str, resp := probResponse(res, version, s.epoch)
				WriteResult(w, r, str, resp)
				return
			}
		}
		plan, err := c.ExplainPlan(repaircount.EngineCompile)
		switch {
		case err != nil:
			s.reject(w, APIError{Message: fmt.Sprintf("probability probe needs the circuit engine: %v", err)})
			return
		case plan.Engine == repaircount.EngineEnumFO:
			s.reject(w, APIError{Message: "no circuit (and no weighted counter) exists outside existential positive FO"})
			return
		case !plan.AlwaysTrue && plan.Budget > s.cfg.ExactBudget:
			s.reject(w, APIError{
				Message:     fmt.Sprintf("planned circuit work %d exceeds the exact budget (no approximate rung for weighted counting)", plan.Budget),
				PlannedCost: fmt.Sprint(plan.Budget)})
			return
		}
		iv, err := c.ProbabilityOf(s.factWeights(c, version))
		if err != nil {
			if errors.Is(err, repaircount.ErrBudget) {
				s.reject(w, APIError{Message: err.Error()})
				return
			}
			WriteErr(w, http.StatusBadRequest, APIError{Code: "prob_unavailable", Message: err.Error()})
			return
		}
		s.stats.prob.Add(1)
		res := CachedResult{Lo: iv.Lo, Hi: iv.Hi, Str: iv.String()}
		if ent != nil {
			ent.StoreResult(ResultProb, s.epoch, version, res)
		}
		str, resp := probResponse(res, version, s.epoch)
		WriteResult(w, r, str, resp)
	})
}

// factWeights returns the /v1/prob weight vector of the current (epoch,
// version). The vector depends only on the substrate, not on the query,
// so it is rendered once per state — one canonical string per fact — and
// shared read-only by every probability probe. Caller holds s.mu.RLock.
func (s *Server) factWeights(c *repaircount.Counter, version uint64) []float64 {
	s.weights.Lock()
	defer s.weights.Unlock()
	if s.weights.w == nil || s.weights.epoch != s.epoch || s.weights.version != version {
		s.weights.w = c.FactWeights(s.probs)
		s.weights.epoch, s.weights.version = s.epoch, version
	}
	return s.weights.w
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	qs, err := ProbeQuery(r)
	if err != nil {
		badQuery(w, err)
		return
	}
	s.gate.Run(w, r, &s.mu, func(ctx context.Context, sl *Slot) {
		version := s.snap.Version()
		ent, c := s.counter(w, ctx, sl, qs)
		if c == nil {
			return
		}
		var entailed bool
		if ent != nil {
			defer s.cache.Release(ent)
			res, ok := ent.Result(ResultDecide, s.epoch, version)
			if !ok {
				res = CachedResult{Entailed: c.Decide()}
				res.Str = fmt.Sprintf("%v", res.Entailed)
				ent.StoreResult(ResultDecide, s.epoch, version, res)
			}
			entailed = res.Entailed
		} else {
			entailed = c.Decide()
		}
		WriteResult(w, r, fmt.Sprintf("%v", entailed), map[string]any{
			"entailed": entailed, "version": version, "epoch": s.epoch,
		})
	})
}

// handleExplain prices a probe without running it. For a probe the fleet
// claims, the fleet adds its view and prices the exact rung on its
// critical path when it would serve the count.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	qs, err := ProbeQuery(r)
	if err != nil {
		badQuery(w, err)
		return
	}
	s.gate.Run(w, r, &s.mu, func(ctx context.Context, sl *Slot) {
		version := s.snap.Version()
		ent, c := s.counter(w, ctx, sl, qs)
		if c == nil {
			return
		}
		if ent != nil {
			defer s.cache.Release(ent)
		}
		resp := map[string]any{"version": version, "epoch": s.epoch}
		adm, fanned := Admission{}, false
		if s.fleet != nil && s.fleet.Claims(qs) {
			adm, fanned = s.fleet.Explain(s.ladder, version, resp)
		}
		if !fanned {
			adm = s.price(ent, c, version)
		}
		resp["admission"], resp["engine"] = adm.Mode, adm.Engine.String()
		if adm.PlannedCost != nil {
			resp["planned_cost"] = adm.PlannedCost.String()
		}
		if adm.Mode == AdmitApprox || adm.SampleBound != nil {
			if adm.SampleBound != nil {
				resp["sample_bound"] = adm.SampleBound.String()
			}
			resp["eps"], resp["delta"] = s.cfg.Eps, s.cfg.Delta
		}
		if adm.Mode == AdmitReject {
			resp["reason"] = adm.Reason
		}
		WriteJSON(w, http.StatusOK, resp)
	})
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	qs, err := ProbeQuery(r)
	if err != nil {
		badQuery(w, err)
		return
	}
	s.gate.Run(w, r, &s.mu, func(ctx context.Context, sl *Slot) {
		q, err := repaircount.ParseQuery(qs)
		if err != nil {
			badQuery(w, err)
			return
		}
		ranked, err := s.snap.RankAnswers(q)
		if err != nil {
			if errors.Is(err, repaircount.ErrBudget) {
				s.stats.rejected.Add(1)
				WriteErr(w, http.StatusTooManyRequests, APIError{Code: "budget_exceeded", Message: err.Error()})
				return
			}
			badQuery(w, err)
			return
		}
		type answer struct {
			Tuple     []string `json:"tuple"`
			Count     string   `json:"count"`
			Frequency string   `json:"frequency"`
		}
		out := make([]answer, len(ranked))
		for i, a := range ranked {
			tuple := make([]string, len(a.Tuple))
			for j, c := range a.Tuple {
				tuple[j] = string(c)
			}
			out[i] = answer{Tuple: tuple, Count: a.Count.String(), Frequency: a.Frequency.RatString()}
		}
		WriteResult(w, r, "", map[string]any{
			"answers": out, "version": s.snap.Version(), "epoch": s.epoch,
		})
	})
}

func (s *Server) handleTotal(w http.ResponseWriter, r *http.Request) {
	s.gate.Run(w, r, &s.mu, func(ctx context.Context, sl *Slot) {
		version := s.snap.Version()
		var str string
		if s.cache != nil {
			_, str = s.cache.Total(s.epoch, version, s.snap.TotalRepairs)
		} else {
			str = s.snap.TotalRepairs().String()
		}
		WriteResult(w, r, str, map[string]any{
			"total": str, "version": version, "epoch": s.epoch,
		})
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	journalBytes := int64(0)
	if st, err := os.Stat(s.cfg.SnapshotPath); err == nil {
		journalBytes = st.Size() - s.baseLen
	}
	opsOffset := int64(0)
	if s.tailer != nil {
		opsOffset = s.tailer.Offset()
	}
	resp := map[string]any{
		"epoch":           s.epoch,
		"version":         s.snap.Version(),
		"journal_bytes":   journalBytes,
		"applied_ops":     s.appliedOps.Load(),
		"journaled_ops":   s.journaled.Load(),
		"ops_offset":      opsOffset,
		"recovered_bytes": s.recovered,
		"degraded":        s.health.Reason(),
		"exact_probes":    s.stats.exact.Load(),
		"approx_probes":   s.stats.approx.Load(),
		"prob_probes":     s.stats.prob.Load(),
		"rejected_probes": s.stats.rejected.Load(),
	}
	s.gate.Stats(resp)
	var cs CacheStats
	if s.cache != nil {
		cs = s.cache.Stats()
	}
	resp["cache_hits"] = cs.Hits
	resp["cache_misses"] = cs.Misses
	resp["cache_evictions"] = cs.Evictions
	resp["cache_entries"] = cs.Entries
	resp["cache_fp_merges"] = cs.FPMerges
	if s.fleet != nil {
		s.fleet.Stats(resp)
	}
	s.mu.RUnlock()
	WriteJSON(w, http.StatusOK, resp)
}
