// Package repairs implements the paper's central problem #CQA(Q,Σ):
// counting the repairs of a database D w.r.t. a set Σ of primary keys that
// entail a Boolean query Q. It provides:
//
//   - a planned exact-counting stack: a typed planner (plan.go) that
//     assigns each connected component of the query-interaction graph the
//     cheaper of Gray-code enumeration and component-local
//     inclusion–exclusion, over two independent ground-truth counters
//     (block enumeration with irrelevant-block factoring, and
//     inclusion–exclusion over the global certificate boxes), plus a
//     full-FO enumeration counter;
//   - the logspace decision procedure for #CQA>0(∃FO⁺) via Lemma 3.5;
//   - Algorithm 2: the k-compactor M(Q,Σ) placing #CQA(Q,Σ) in Λ[kw(Q,Σ)]
//     (Theorem 5.1 membership), which also plugs into the Section 6 FPRAS;
//   - a safe-plan polynomial-time counter for the tractable side of the
//     Maslowski–Wijsen dichotomy on self-join-free conjunctive queries;
//   - relative frequency (the motivation of §1.1).
package repairs

import (
	"fmt"
	"iter"
	"math/big"

	"repaircount/internal/core"
	"repaircount/internal/eval"
	"repaircount/internal/query"
	"repaircount/internal/relational"
)

// Instance bundles one #CQA(Q,Σ) input: the fixed query and keys plus the
// input database, with derived structures (blocks, index) computed once.
//
// Instances are versioned and mutable: Apply threads single-fact inserts
// and deletes through the shared live substrate (database, maintained
// block sequence, evaluation index), and every counting entry point
// refreshes itself against the substrate version first — memoized and
// compiled structures (matchers, domains, the factorization layout) are
// flushed when stale, while the per-component enumeration memo survives
// deltas and is keyed structurally, so a recount after a delta
// re-enumerates only the connected components whose blocks changed.
// Several instances (e.g. counters for different queries over one loaded
// snapshot) may share one live substrate; a delta applied through any of
// them is visible to all on their next count.
type Instance struct {
	DB     *relational.Database
	Keys   *relational.KeySet
	Q      query.Formula
	Blocks []relational.Block
	Idx    *eval.Index

	// UCQ is the rewriting of Q when Q ∈ ∃FO⁺ (nil disjuncts slice is a
	// valid UCQ: false); IsEP records whether the rewriting applies.
	UCQ  query.UCQ
	IsEP bool

	// live is the shared mutable substrate; memoVer is the substrate
	// version the memos below were built against.
	live    *eval.LiveInstance
	memoVer uint64

	domsMemo     []core.Domain
	decisionMemo *eval.UCQMatcher
	relSplitMemo *relevantSplit
	factMemo     *factorization
	deltaMemo    *deltaScratch

	// compMemo caches per-component non-entailment counts of the box-path
	// engines across deltas, keyed by a structural fingerprint of the
	// component (chosen engine, sizes and box requirements): #¬Q_c is a
	// pure function of that structure, so untouched components of a
	// re-derived factorization hit the memo and skip their work entirely,
	// while forced-engine runs never serve each other's entries.
	compMemo map[compFP]*big.Int

	// circMemo caches compiled d-DNNF circuits (compile.go) across deltas,
	// keyed by circuitFingerprint — the box tables WITHOUT block sizes — so
	// a component whose blocks merely grew or shrank re-counts its cached
	// circuit in O(|circuit|) instead of re-enumerating. memoReuse counts
	// component results served from either structural memo: the planner's
	// observed-reuse signal for pricing cold compiles.
	circMemo  map[compFP]*circuit
	memoReuse int64
}

// NewInstance prepares an instance. Boolean queries only; substitute the
// tuple t̄ into a non-Boolean query first (the paper reduces to the Boolean
// case the same way).
func NewInstance(db *relational.Database, ks *relational.KeySet, q query.Formula) (*Instance, error) {
	return NewPreparedInstance(db, ks, q, nil, nil)
}

// NewPreparedInstance is NewInstance for callers that already hold the
// derived structures — the snapshot loader reconstructs the canonical
// block sequence and the evaluation index from mapped arenas, so
// recomputing them here would forfeit the zero-parse load. A nil blocks or
// idx is computed from db as usual; when given, blocks must be the
// canonical sequence ≺(D,Σ) of (db, ks) and idx must index exactly the
// facts of db.
func NewPreparedInstance(db *relational.Database, ks *relational.KeySet, q query.Formula, blocks []relational.Block, idx *eval.Index) (*Instance, error) {
	if blocks == nil {
		blocks = relational.Blocks(db, ks)
	}
	if idx == nil {
		idx = eval.IndexDatabase(db)
	}
	return NewLiveInstance(eval.NewLiveInstance(db, ks, relational.NewBlockSeq(blocks), idx), q)
}

// NewLiveInstance prepares an instance over an existing live substrate —
// the path counters over one loaded snapshot share: every counter built on
// the same LiveInstance sees deltas applied through any of them.
func NewLiveInstance(live *eval.LiveInstance, q query.Formula) (*Instance, error) {
	if fv := query.FreeVars(q); len(fv) > 0 {
		return nil, fmt.Errorf("repairs: query has free variables %v; substitute a tuple first", fv)
	}
	if err := live.Keys.Validate(live.DB.Schema()); err != nil {
		return nil, err
	}
	inst := &Instance{
		DB:      live.DB,
		Keys:    live.Keys,
		Q:       q,
		Blocks:  live.Blocks.Seq(),
		Idx:     live.Idx,
		live:    live,
		memoVer: live.Version(),
	}
	if query.IsExistentialPositive(q) {
		u, err := query.ToUCQ(q)
		if err != nil {
			return nil, err
		}
		// Minimization drops subsumed disjuncts, shrinking the certificate
		// space of Algorithm 2 without changing any count.
		inst.UCQ = eval.MinimizeUCQ(u)
		inst.IsEP = true
	}
	return inst, nil
}

// MustInstance is NewInstance that panics on error.
func MustInstance(db *relational.Database, ks *relational.KeySet, q query.Formula) *Instance {
	inst, err := NewInstance(db, ks, q)
	if err != nil {
		panic(err)
	}
	return inst
}

// TotalRepairs returns |rep(D,Σ)| = ∏|B_i| (computable in FP, §1.1),
// read off the live block sequence's maintained aggregate. The result is
// the caller's to keep.
func (in *Instance) TotalRepairs() *big.Int {
	in.refresh()
	return new(big.Int).Set(in.live.Blocks.Total())
}

// Keywidth returns kw(Q,Σ) for the instance's query (over the UCQ rewriting
// when it exists, else over the formula).
func (in *Instance) Keywidth() int {
	if in.IsEP {
		return query.KeywidthUCQ(in.UCQ, in.Keys)
	}
	return query.Keywidth(in.Q, in.Keys)
}

// CountExact computes #CQA(Q,Σ)(D) with the best available exact
// algorithm and reports which engine decided it. It consumes a planner
// report (plan.go): the safe plan and the Λ[1] closed form when they apply,
// else the planned factorized engine — per-component selection between the
// Gray-delta walk and component-local inclusion–exclusion, with the budget
// Σ_c min(2^{n_c}, IE_c) — falling back to whole-instance
// inclusion–exclusion and plain enumeration only when the planned budget is
// exceeded. Non-∃FO⁺ queries take full FO enumeration. ExplainPlan exposes
// the same report without counting.
func (in *Instance) CountExact() (*big.Int, EngineKind, error) {
	return in.CountExactWorkers(0)
}

// CountExactWorkers is CountExact with the worker count threaded through
// every engine that parallelizes — the planned factorized executor and the
// enumeration fallback. workers ≤ 0 selects GOMAXPROCS; the count is
// identical for every worker count.
func (in *Instance) CountExactWorkers(workers int) (*big.Int, EngineKind, error) {
	return in.CountExactStop(workers, nil)
}

// CountExactStop is CountExactWorkers with a cooperative stop flag
// threaded through every engine that enumerates — the Gray/masked
// walkers, the component-local and whole-instance IE passes and the
// enumeration fallback poll it at a coarse stride. When the flag fires
// mid-count the run fails with core.ErrStopped within a bounded number of
// states, freeing its workers; a nil stop never fires and the behavior is
// exactly CountExactWorkers. The serving layer uses this to enforce
// deadlines and client disconnects.
func (in *Instance) CountExactStop(workers int, stop *core.Stop) (*big.Int, EngineKind, error) {
	in.refresh()
	if !in.IsEP {
		n, err := in.CountEnumFO(0)
		return n, EngineEnumFO, err
	}
	if plan, n := in.prePlan(); plan != nil {
		return n, plan.Engine, nil
	}
	// The planned factorized engine derives the per-component assignment
	// and its Σ_c min(2^{n_c}, IE_c) budget internally — the same report
	// ExplainPlan exposes — so the costing pass runs once per count.
	n, err := in.countFactorized(0, workers, 0, EngineAuto, stop)
	if err == nil {
		return n, EngineFactorized, nil
	}
	if err == core.ErrStopped {
		return nil, EngineFactorized, err
	}
	// The planned budget was exceeded: whole-instance inclusion–exclusion
	// over the certificate boxes, then plain enumeration as the last
	// resort.
	if n, err := in.countIE(0, stop); err == nil {
		return n, EngineIE, nil
	} else if err == core.ErrStopped {
		return nil, EngineIE, err
	}
	n2, err := in.countEnumUCQParallel(0, workers, stop)
	return n2, EngineEnum, err
}

// EntailingRepairs iterates the repairs that entail Q, in the canonical
// block order, as fact slices (one fact per block, reused across
// iterations — copy to retain). It enumerates the full repair space and is
// meant for inspection of small instances; counting uses the dedicated
// algorithms.
func (in *Instance) EntailingRepairs() iter.Seq[[]relational.Fact] {
	return func(yield func([]relational.Fact) bool) {
		in.refresh()
		for facts := range relational.Repairs(in.Blocks) {
			idx := eval.NewIndex(facts)
			var holds bool
			if in.IsEP {
				holds = eval.EvalUCQ(in.UCQ, idx)
			} else {
				holds = eval.EvalBoolean(in.Q, idx)
			}
			if holds && !yield(facts) {
				return
			}
		}
	}
}

// RelativeFrequency returns #CQA / |rep| as an exact rational (the measure
// motivating the counting problem, §1.1). The boolean is false when the
// database has no repairs (impossible: every database has ≥ 1 repair).
func (in *Instance) RelativeFrequency() (*big.Rat, error) {
	n, _, err := in.CountExact()
	if err != nil {
		return nil, err
	}
	total := in.TotalRepairs()
	if total.Sign() == 0 {
		return nil, fmt.Errorf("repairs: database has no repairs")
	}
	return new(big.Rat).SetFrac(n, total), nil
}
