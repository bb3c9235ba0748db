// Package repaircount counts database repairs under primary keys: a
// complete, executable implementation of Calautti, Console & Pieris,
// "Counting Database Repairs under Primary Keys Revisited" (PODS 2019).
//
// Given a database D, a set Σ of primary keys and a Boolean query Q, the
// package computes:
//
//   - the total number of repairs |rep(D,Σ)| (polynomial time);
//   - #CQA(Q,Σ)(D): the number of repairs entailing Q — exactly (safe
//     plans for tractable self-join-free CQs; otherwise a planner that
//     picks, per connected component of the query-interaction graph, the
//     cheaper of Gray-code enumeration and inclusion–exclusion) or
//     approximately (the paper's Theorem 6.2 FPRAS);
//   - the decision #CQA>0 (logspace-style certificate search for ∃FO⁺,
//     Lemma 3.5);
//   - the relative frequency #CQA / |rep| motivating the whole problem.
//
// Quickstart:
//
//	db, keys, _ := repaircount.ParseInstanceString(`
//	    key Employee 1
//	    Employee(1, Bob, HR)
//	    Employee(1, Bob, IT)
//	    Employee(2, Alice, IT)
//	    Employee(2, Tim, IT)`)
//	q, _ := repaircount.ParseQuery(
//	    "exists x, y, z . (Employee(1, x, y) & Employee(2, z, y))")
//	c, _ := repaircount.NewCounter(db, keys, q)
//	total := c.Total()                  // 4
//	count, algo, _ := c.Count()         // 2, via certificate machinery
//	freq, _ := c.RelativeFrequency()    // 1/2
//
// The deeper machinery — the Λ-hierarchy compactors of Definition 4.1,
// the Algorithm 1 transducer, the Theorem 5.1 reduction, the Λ[k]-complete
// problems of Section 7 — lives in the internal packages and is exercised
// by the examples, the test suite and the benchmark harness.
//
// # Architecture: the interned-ID substrate
//
// Every hot kernel runs on dense integer IDs rather than strings. The
// relational layer interns each constant and predicate into a symbol table
// (internal/relational.Interner, Const ↔ uint32), stores the interned
// encoding of every fact alongside the fact itself, and resolves
// membership, de-duplication, consistency checks and conflict-block
// decomposition through integer-keyed hash probes that verify
// structurally — a canonical string is never built on these paths, and
// block decomposition performs a constant number of allocations however
// large the database. The evaluation layer (internal/eval.Index) numbers
// the indexed facts with stable ordinals in canonical order and maintains
// posting lists keyed by (predicate, argument position, constant ID).
// Homomorphism search — the engine behind Lemma 3.5 decisions, UCQ
// evaluation, and certificate enumeration — compiles each conjunctive
// query against the symbol table once, then backtracks with flat int32
// environments, choosing at every depth the pending atom with the fewest
// candidate facts under the current partial binding (bound-variable
// selectivity) and probing the posting lists instead of scanning every
// fact of a predicate. The FPRAS membership test reuses the same engine
// through a compiled matcher restricted to the facts a sampled tuple
// chose, so one Algorithm 3 sample costs one small indexed join and zero
// allocations rather than building a fresh index per repair.
//
// That matcher reads only blocks of the query's predicates, so a sample
// draws a choice for those blocks alone (the compactor's read set) and
// leaves every other block at a fixed choice. Entailment does not depend
// on the skipped blocks and the drawn choices stay independent and
// uniform, so each trial's hit has exactly the probability it had when
// every block was drawn: the estimator |rep|·hits/t, the sample bound
// t = (2+ε)·m^k/ε²·ln(2/δ) (m still the largest block of the whole
// database) and the (ε,δ) guarantee are unchanged. A sample's cost follows
// the blocks the query can read, not the size of the database. The
// Karp–Luby sampler likewise draws only coordinates some certificate box
// pins.
//
// # Factorized exact counting
//
// The exact counters no longer enumerate the full product space of
// conflict blocks. CountFactorized partitions the relevant blocks into
// connected components of the query-interaction graph — two blocks
// interact when they can co-occur in the image of one Σ-consistent
// homomorphism of some disjunct, computed from the interned index's
// posting lists. Every homomorphic image lives inside one component, so
// the non-entailment predicate factorizes and
//
//	#Q = Π_i |B_i| − Π_c #¬Q_c,
//
// dropping the enumeration cost from Π_c 2^{n_c} to Σ_c 2^{n_c}. Each
// component's choices are walked in mixed-radix Gray-code order —
// consecutive repairs differ by exactly one fact swap — against the single
// shared index, with match state maintained incrementally: each
// homomorphic image is a box of (block, choice) requirements whose
// violation count is updated only for the boxes pinning the swapped facts,
// so one repair costs a handful of counter bumps and the inner loop
// allocates nothing. When the homomorphism space is too large to
// materialize as boxes, the engine falls back to predicate-level
// components and probes the compiled matcher through a mutable
// allowed-ordinal bitmask (two bit flips per repair) — still never
// building a per-repair index. Component odometer spaces are split into
// prefix shards served to workers from an atomic work-stealing queue, with
// per-worker machine-word accumulators that spill to big.Int only on
// overflow and at the final merge; the exact count is identical for every
// worker count.
//
// # The exact-counting planner
//
// The factorized engine is itself a strategy layer. Per component, two
// independent exact strategies compute #¬Q_c: the Gray-delta walk above
// (cost 2^{n_c} states, independent of the number of boxes) and
// component-local inclusion–exclusion over the component's boxes (cost
// bounded by 2^{#boxes} − 1 subset nodes, independent of the choice
// space), and the tractable one varies per component, not per instance. A
// typed planner (internal/repairs/plan.go) therefore costs every component
// under both engines and assigns the cheaper — so a 40-block component
// with 3 boxes is a 7-term IE sum instead of an infeasible 2^40-state
// walk, the effective enumeration budget becomes Σ_c min(2^{n_c}, IE_c),
// and components whose choice space overflows a machine word entirely stay
// exactly countable (IE counts the complement against the big-int space).
// The heterogeneous per-component jobs — Gray prefix shards, masked
// shards, one IE pass per IE component — drain from the same work-stealing
// queue. CountExact consumes the plan report: safe plan and Λ[1] closed
// form when they apply, then the planned factorized engine, with
// whole-instance certificate inclusion–exclusion and plain enumeration as
// fallbacks; Count reports the deciding engine as a typed EngineKind, and
// Counter.ExplainPlan (repairctl count -explain) exposes every
// component's block and box counts, both engine costs and the chosen
// engine without counting. The per-component structural count memo is
// keyed by (engine, structure), so incremental recounts after Apply replan
// only the touched components and forced-engine comparisons (repairctl
// count -exact=gray, the PlannedIE benchmark gate) never serve each
// other's memo entries.
//
// # Persistent snapshots: the .cqs instance store
//
// The interned encoding doubles as an on-disk format. internal/store
// serializes an instance (D, Σ) as a versioned, checksummed, little-endian
// columnar snapshot: a 32-byte header (magic "CQS1", version, flags, file
// size), a section table of (id, offset, length) entries at 8-byte-aligned
// offsets, the sections themselves — symbol byte arenas with offset
// columns, per-fact predicate/argument-ID columns in canonical fact order,
// key metadata, plus optional precomputed sections holding the canonical
// conflict-block boundaries and the (predicate, position, constant)
// posting lists — and a trailing CRC-32C of the whole file. Loading
// mmaps the file (with a portable read-into-aligned-buffer fallback),
// validates every section exhaustively, and reconstructs the Database, the
// block sequence and the evaluation index by aliasing the mapped arenas:
// no text is parsed, no sort or hash build is repeated, and the load
// performs a constant number of allocations regardless of instance size
// (symbol→ID maps and membership buckets are materialized lazily on the
// first probe that needs them). OpenSnapshot / (*Counter).Snapshot expose
// the store here; repairctl build converts text instances, and
// repairctl count/decide accept either format transparently.
//
// # Incremental maintenance: versioned mutable instances
//
// Instances are not build-once-then-read: Counter.Apply and
// Snapshot.Apply thread single-fact inserts and deletes (Delta values)
// through every layer incrementally, with a monotonically increasing
// instance version. The relational layer keeps its columns append-only —
// an insert appends a fresh fact ordinal, a delete tombstones one — so
// structures keyed by ordinals stay valid across deltas and snapshot-
// backed instances never write through their read-only mapping. The
// maintained block sequence (relational.BlockSeq) updates only the touched
// conflict block, splicing blocks in and out of their canonical ≺(D,Σ)
// position, so the sequence always equals a from-scratch decomposition.
// The evaluation index maintains its membership buckets, posting lists,
// per-predicate candidate lists, refcounted active domain and key
// partitions per delta instead of rebuilding. Counting remains valid
// between deltas: every entry point refreshes against the substrate
// version, recompiling the (cheap) matchers and domains while the
// factorized engine's per-component counts survive in a structural memo —
// a recount after a delta re-enumerates only the connected components
// whose blocks changed, which is what makes recount-after-delta an order
// of magnitude faster than rebuild-from-scratch, bit-identically.
//
// On disk, a sealed .cqs snapshot absorbs mutations without being
// rewritten: AppendJournal appends self-contained, checksummed journal
// blocks of ops after the sealed base (repairctl apply from the command
// line), the loader replays them through the same delta machinery, and
// CompactSnapshot (repairctl compact) reseals a clean snapshot with
// identical counts. AppendJournal first validates the ops against a
// fresh load of the file; the serving daemon, which has just applied the
// same ops to the live instance it loaded from that file, appends the
// block without the reload, so its append costs the batch, not the
// snapshot.
//
// # Cold probes cost what the query reads
//
// The paper's counts split the repairs in two: blocks of predicates the
// query never names contribute the factor Π|B_i| and nothing else. The
// live substrate therefore answers the whole-database aggregates without
// a walk — the maintained block sequence keeps a block-size histogram
// under every delta, giving |rep| = Π|B_i| and m = max|B_i| once per
// version — and the canonical order sorts blocks by predicate first, so
// the query's relevant blocks are one contiguous range per predicate,
// found by binary search. The relevant split walks only those ranges and
// gets the irrelevant factor as |rep| divided by the relevant one; the
// factorization and the FPRAS compactor map fact ordinals to block
// choices through tables over the relevant facts alone; the Λ[1] closed
// form multiplies over the pinned blocks only; and the structures every
// counter would derive identically from the whole database — the
// rendered block domains the compactor and the certificate boxes use,
// the key-value block index, the /v1/prob weight vector — are built once
// per version and shared by all counters over the substrate instead of
// once per counter. A cold probe's parse, plan, count and FPRAS set-up
// thus cost time and memory in the blocks its query reads; padding a
// database with blocks of other predicates leaves every count, estimate,
// fingerprint and admission bit-identical.
//
// # Sharded counting
//
// The factorization #Q = Π|B_i| − Π_c #¬Q_c makes connected components
// independent by construction, so the exact count distributes with zero
// coordination. Counter.PlanShards bin-packs the components into K groups
// by planned engine cost (greedy LPT: the heaviest component lands on the
// lightest shard, so one expensive component occupies one shard instead of
// serializing the fleet), and the partition runs two ways. In process,
// Counter.CountSharded materializes one sub-instance per shard — its
// exclusive conflicting blocks plus every shared single-fact relevant
// block, which any homomorphic image may use — and worker goroutines drain
// shards from a work-stealing queue, each running an independent planned
// counter; the merge (Π_s Inner_s − Π_s NonEnt_s) × Outer is exact big-int
// arithmetic and bit-identical to the single-driver planner for every K.
// Across processes, Snapshot.Shard slices a sealed snapshot into K
// self-contained, CRC-valid shard snapshots plus a CQSM manifest recording
// the partition, the per-shard digests and the global factor split
// (repairctl shard); each shard is counted anywhere by `repairctl count
// -shard`, which verifies the shard's digest and query against the
// manifest and emits a CQSP partial file; and MergePartialFiles (repairctl
// merge) recombines a complete partial set, verifying every digest — a
// stale, mixed, duplicated or missing shard errors instead of miscounting.
// Blocks no homomorphic image touches (irrelevant blocks and box-free
// conflicting blocks) are excluded from every shard and their Π|B_i|
// factor is restored at merge time. An always-true instance needs no
// special case: every shard sees the witnessing homomorphism among its
// shared facts and reports a zero non-entailment partial.
//
// # Parallel sampling and reproducibility
//
// The Theorem 6.2 FPRAS and the Karp–Luby estimator offer sharded
// parallel sampling loops (Counter.ApproximateParallel, and ApxParallel /
// KarpLubyParallel on the internal instance). A sample budget t is split
// across a fixed number of shards (64, independent of the worker count);
// shard s draws its samples from its own PCG stream seeded as
// (userSeed, golden-ratio-constant + s), and workers drain shards from a
// queue. Because both the shard → stream and shard → sample-count
// assignments are fixed, the total hit count — and hence the estimate —
// is bit-for-bit identical for every worker count and scheduling, while
// still scaling across cores. The stream a run consumes depends on the
// blocks the query reads, so padding a database with blocks of other
// predicates leaves a fixed-seed run's hits unchanged and scales its
// estimate by their Π|B_i|.
//
// # Serving: the repairctl daemon
//
// internal/server wraps the whole stack as a long-lived HTTP/JSON daemon
// (`repairctl serve`): one mmapped snapshot, a bounded worker pool
// answering /v1/count, /v1/decide, /v1/explain, /v1/rank, /v1/prob and
// /v1/total probes, with per-worker matcher and counter reuse over the
// shared live substrate. It is the only probe pipeline and the only
// write path: the coordinator below is the same server with a fleet
// hook. Three robustness layers make it safe to leave running:
//
//   - Admission ladder. Every count probe is priced before it runs, using
//     the same planner report ExplainPlan exposes. Plans within the exact
//     budget run the exact engines; plans beyond it degrade to the FPRAS
//     with the response reporting the (ε, δ) actually served — but only
//     when the Theorem 6.2 sample bound itself fits the sample budget;
//     anything costlier (including non-∃FO⁺ queries, which have no FPRAS
//     unless RP = NP) is refused with a structured budget_exceeded error
//     rather than wedging a worker. The ladder is exact → approximate →
//     typed refusal, never silence.
//   - Cooperative cancellation. Deadlines and client disconnects thread a
//     stop flag (core.Stop) through every enumeration kernel — the
//     Gray/masked walkers, the IE subset DFS, the enumeration fallback and
//     the sampling loops poll it at a coarse stride — so an abandoned
//     probe frees its workers within a bounded number of states.
//     CountCtx / ApproximateParallelCtx / CountShardedCtx / CountPartialCtx
//     expose the same plumbing here.
//   - Crash safety. The daemon tails an append-only ops file, applies
//     deltas through the live substrate, journals them with an fsync'd
//     append of one block, and compacts by atomic temp-file-plus-rename
//     (WriteSnapshot's file path does the same). On startup,
//     RecoverSnapshot truncates a torn journal tail back to the last
//     committed block — a kill -9 at any byte of the write path leaves a
//     file that recovers to a committed state bit-identically or fails
//     loudly, never one that miscounts (internal/faultfs sweeps every
//     crash point in the tests).
//
// # Distributed serving: the shard-fleet coordinator
//
// internal/cluster scales the daemon out across the shard pipeline.
// A worker (repairctl worker) maps exactly one shard .cqs and answers
// /v1/partial with a digest-stamped CQSP-equivalent partial; a
// coordinator (repairctl coordinate) is the daemon — same endpoints,
// handlers, cache, admission ladder and ops tail — plus a fleet hook
// (server.NewFleet) that owns the CQSM manifest. The hook claims counts
// of the partition query, prices their exact rung on the fleet critical
// path (the max over workers of their components' summed planned cost,
// since shards count in parallel), and fans them out concurrently with
// core.Stop cancellation propagated on client disconnect; it hears of
// every applied batch, to stream it on, and of every compaction, to
// re-shard.
//
// The distributed path is bit-exact or loudly refused, never
// approximately merged:
//
//   - Every returned partial carries the shard digest, manifest CRC,
//     epoch and applied-ops version; the coordinator verifies all four
//     against its manifest and its per-worker ack state before
//     CombinePartials. A stale or foreign partial is a structured 502,
//     never a miscount.
//   - Deltas are classified by ShardPlan.ShardOf and streamed only to
//     the affected shards (shared blocks broadcast); the coordinator
//     tracks the physical placement of every block and, before each
//     fan-out, revalidates that the *fresh* factorization still
//     respects it — each fresh component entirely on one worker, every
//     shared block on all. If deltas have moved the factorization off
//     the placement, the coordinator counts locally (still exact)
//     until the next re-shard.
//   - On journal compaction the coordinator re-shards, distributes
//     fresh shard snapshots, and swings the manifest atomically: the
//     epoch bumps, in-flight probes drain against the old epoch, and a
//     worker that missed the swing is healed by a reload rather than
//     trusted.
//
// Worker failures degrade availability, not integrity: slow shards are
// retried with bounded backoff, and if a worker stays down the
// coordinator falls back to single-node local counting over its own
// snapshot.
//
// # Serve-path performance: the shared probe cache
//
// The probe server puts a bounded, concurrency-safe probe cache
// (internal/server.ProbeCache) in front of the counting substrate, so
// the hot path of a serving workload — the same queries probed again
// and again between deltas — stops re-paying per-probe fixed costs
// (query compile, admission pricing, big-int rendering) that dwarf the
// memoized count itself. Three layers share one entry per canonical
// query text:
//
//   - The compiled Counter is keyed by query and compaction epoch.
//     Compaction swaps the snapshot mapping, so an entry built at an
//     old epoch is rebuilt, never reused, when the epoch has moved.
//   - The priced Admission is memoized per (epoch, version): the
//     ladder's verdict cannot go stale because any delta moves the
//     version and any compaction moves the epoch, and both are frozen
//     for the duration of a probe by the server's reader lock.
//   - Completed exact, decide and total results — including their
//     rendered digit strings — are memoized under the same
//     (epoch, version) stamp, making a stale serve structurally
//     impossible rather than merely unlikely: the stamp is the key,
//     so an outdated result is unreachable, not just invalidated.
//
// Concurrent identical probes are collapsed by a per-entry lock
// acquired with context cancellation (hand-rolled singleflight): the
// first probe computes and stores, waiters acquire after it and hit
// the memo. Distinct queries proceed in parallel; a bounded LRU sweep
// keeps the entry table at its configured size (repairctl
// -cache-entries). /v1/stats exposes hit/miss/evict counters.
//
// On the coordinator the same cache serves every local rung, and the
// fleet hook adds two fleet-level layers: merged fan-out results memoized per cut
// (epoch, version), and per-worker partials remembered alongside.
// Caching must not mask worker death, so fan-outs always contact every
// worker — a probe sends the remembered (epoch, applied) stamp as
// ?have=, the worker answers 204 No Content when its shard is
// unchanged (skipping the recount and the wire transfer), and the
// coordinator substitutes the memoized partial, which still passes the
// full digest/epoch/applied verification ladder before any merge. The
// merged-result memo is consulted only after that contact phase, so
// fleet-health discovery behaves identically with and without the
// cache. cmd/cqabench gates the payoff: a hot repeated probe must run
// ≥ 10x faster against a cache-enabled daemon than with the cache
// disabled (the ProbeCache gate).
//
// # Knowledge compilation: per-component d-DNNF circuits
//
// The planner's per-component engine menu has a fourth entry,
// EngineCompile (internal/repairs/compile.go): instead of re-walking a
// component's choice space on every count, the component's non-entailment
// predicate ¬Q_c is compiled once into a smooth deterministic
// decomposable circuit over its block-choice variables — exhaustive
// decision nodes over one block's choices, AND nodes where the remaining
// boxes split into independent groups — and every count thereafter is one
// subtraction-free bottom-up pass over the circuit. Decision nodes
// collapse all box-unconstrained choices of a block into one shared
// residual child weighted by the block's residual size at evaluation
// time, so the circuit's shape depends only on the box tables, not on
// block sizes: a delta that merely grows or shrinks blocks re-counts the
// cached circuit (keyed by a size-free structural fingerprint) in
// O(|circuit|), and a component whose choice space is astronomical but
// whose interaction structure is shallow compiles into a tiny circuit
// where both the Gray walk and IE are infeasible. The planner prices a
// cached circuit at its node count and a cold compile at
// min(gray, node budget) — the compiler aborts past its node budget, so
// the attempt is genuinely capped — and adopts cold compilation under
// EngineAuto only once the instance has observed memo reuse (the
// workload demonstrably recounts, which is what amortizes compilation).
//
// The same circuits answer weighted questions: CountWeighted and
// ProbabilityOf evaluate them under per-fact weights in outward-rounded
// float64 interval arithmetic (the returned Interval is guaranteed to
// bracket the exact value), turning the exact counter into a disjoint-
// independent probabilistic-database engine — a uniform weight vector
// recovers the exact count and the relative frequency, and internal/probdb
// pins the semantics with exact rational world enumeration. The serving
// daemon exposes this as /v1/prob with per-fact annotations loaded from a
// workload-format file (`repairctl serve -probs`).
//
// Structural fingerprints round the subsystem out: CountFingerprint
// digests everything that determines the exact count (the space split and
// the per-component structures), letting the probe cache serve one
// query's count to a structurally identical other; PlanFingerprint
// digests the planner report, letting the admission layer carry a priced
// exact admission across instance versions whose deltas did not move the
// plan.
package repaircount

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"math/rand/v2"
	"path/filepath"

	"repaircount/internal/core"
	"repaircount/internal/query"
	"repaircount/internal/relational"
	"repaircount/internal/repairs"
	"repaircount/internal/store"
)

// Re-exported substrate types; see the internal packages for full API.
type (
	// Database is a finite set of facts.
	Database = relational.Database
	// KeySet is a set of primary keys.
	KeySet = relational.KeySet
	// Fact is a predicate applied to constants.
	Fact = relational.Fact
	// Const is a database constant.
	Const = relational.Const
	// Formula is a first-order query.
	Formula = query.Formula
	// Estimate is the outcome of a randomized approximation.
	Estimate = core.Estimate
	// Block is one conflict block of the canonical sequence ≺(D,Σ).
	Block = relational.Block
)

// NewFact builds a fact.
func NewFact(pred string, args ...Const) Fact { return relational.NewFact(pred, args...) }

// NewDatabase builds a database from facts.
func NewDatabase(facts ...Fact) (*Database, error) { return relational.NewDatabase(facts...) }

// Keys builds a key set from predicate → key-width pairs (key(R) =
// {1,...,width}).
func Keys(pairs map[string]int) *KeySet { return relational.Keys(pairs) }

// ParseInstance reads a "key R m" + facts instance from r.
func ParseInstance(r io.Reader) (*Database, *KeySet, error) { return relational.ParseInstance(r) }

// ParseInstanceString is ParseInstance over a string.
func ParseInstanceString(s string) (*Database, *KeySet, error) {
	return relational.ParseInstanceString(s)
}

// ParseQuery parses a first-order query in the surface syntax, e.g.
// "exists x . (R(x, 'a') | S(x))". Bare identifiers are variables; quoted
// strings and numbers are constants.
func ParseQuery(src string) (Formula, error) { return query.Parse(src) }

// Counter answers repair-counting questions for one (D, Σ, Q) instance.
type Counter struct {
	inst *repairs.Instance
}

// NewCounter validates and prepares an instance. Q must be Boolean; use
// Bind to substitute a tuple into a query with free variables.
func NewCounter(db *Database, keys *KeySet, q Formula) (*Counter, error) {
	inst, err := repairs.NewInstance(db, keys, q)
	if err != nil {
		return nil, err
	}
	return &Counter{inst: inst}, nil
}

// Bind substitutes constants for free variables of a query, in the sorted
// order of the free variable names, turning Q(x̄) plus a tuple t̄ into a
// Boolean query — the reduction the paper applies to non-Boolean queries.
func Bind(q Formula, tuple ...Const) (Formula, error) {
	free := query.FreeVars(q)
	if len(free) != len(tuple) {
		return nil, fmt.Errorf("repaircount: query has %d free variables %v, got %d constants", len(free), free, len(tuple))
	}
	binding := make(map[query.Var]Const, len(free))
	for i, v := range free {
		binding[v] = tuple[i]
	}
	return query.Substitute(q, binding), nil
}

// Total returns |rep(D,Σ)| = ∏ |B_i|.
func (c *Counter) Total() *big.Int { return c.inst.TotalRepairs() }

// EngineKind identifies one exact-counting engine; see the repairs package
// for the full set. Count reports the engine that decided a count, and
// CountWith / ExplainPlan select or explain one.
type EngineKind = repairs.EngineKind

// The exact-counting engines.
const (
	// EngineAuto lets the planner arbitrate (the Count default).
	EngineAuto = repairs.EngineAuto
	// EngineSafePlan is the polynomial safe-plan counter.
	EngineSafePlan = repairs.EngineSafePlan
	// EngineLambda1 is the Λ[1] closed form for keywidth ≤ 1.
	EngineLambda1 = repairs.EngineLambda1
	// EngineFactorized is the planned factorized engine (per-component
	// selection between the Gray walk and component-local IE).
	EngineFactorized = repairs.EngineFactorized
	// EngineGray forces the Gray-delta walk on every component.
	EngineGray = repairs.EngineGray
	// EngineMasked is the masked-matcher walk (reported per component).
	EngineMasked = repairs.EngineMasked
	// EngineCompIE forces component-local inclusion–exclusion.
	EngineCompIE = repairs.EngineCompIE
	// EngineCompile forces the knowledge-compilation engine: each
	// component compiled into a cached d-DNNF circuit, counted in one
	// bottom-up pass.
	EngineCompile = repairs.EngineCompile
	// EngineIE is whole-instance inclusion–exclusion over certificate boxes.
	EngineIE = repairs.EngineIE
	// EngineEnum is plain enumeration of the relevant choice space.
	EngineEnum = repairs.EngineEnum
	// EngineEnumFO is exhaustive FO enumeration (non-∃FO⁺ queries).
	EngineEnumFO = repairs.EngineEnumFO
)

// Plan is the exact-counting planner's report: the overall engine and the
// per-component engine assignment with costs.
type Plan = repairs.Plan

// ComponentPlan is one component's entry in a Plan.
type ComponentPlan = repairs.ComponentPlan

// ParseEngine maps an engine name ("auto", "factorized", "gray", "ie",
// "compile", "enum") to its kind; the error lists the valid names.
func ParseEngine(name string) (EngineKind, error) { return repairs.ParseEngine(name) }

// Count computes #CQA(Q,Σ)(D) exactly with the planner-selected engine and
// reports which one decided it (EngineSafePlan, EngineLambda1,
// EngineFactorized, EngineIE, EngineEnum or EngineEnumFO).
func (c *Counter) Count() (*big.Int, EngineKind, error) { return c.inst.CountExact() }

// CountWorkers is Count with an explicit worker count threaded through
// every engine that parallelizes. workers ≤ 0 selects GOMAXPROCS; the
// count is identical for every worker count.
func (c *Counter) CountWorkers(workers int) (*big.Int, EngineKind, error) {
	return c.inst.CountExactWorkers(workers)
}

// ErrBudget is returned when an exact engine's enumeration budget is
// exceeded; callers can degrade to Approximate or refuse the probe.
var ErrBudget = repairs.ErrBudget

// ErrStopped is returned by the Ctx entry points' internals when a count
// is canceled mid-enumeration; CountCtx and ApproximateParallelCtx
// translate it to the context's own error.
var ErrStopped = core.ErrStopped

// stopForCtx bridges a context to the cooperative stop flag the counting
// kernels poll. The returned release must be called when the count
// finishes to free the watcher goroutine.
func stopForCtx(ctx context.Context) (*core.Stop, func()) {
	if ctx == nil || ctx.Done() == nil {
		return nil, func() {}
	}
	stop := &core.Stop{}
	finished := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			stop.Trigger()
		case <-finished:
		}
	}()
	return stop, func() { close(finished) }
}

// CountCtx is CountWorkers with cooperative cancellation: when ctx is
// canceled (deadline, client disconnect), the enumeration kernels observe
// the stop flag within a bounded number of states and the call returns
// ctx.Err(). The count, when it completes, is identical to Count.
func (c *Counter) CountCtx(ctx context.Context, workers int) (*big.Int, EngineKind, error) {
	stop, release := stopForCtx(ctx)
	defer release()
	n, engine, err := c.inst.CountExactStop(workers, stop)
	if err == core.ErrStopped {
		return nil, engine, ctx.Err()
	}
	return n, engine, err
}

// CountWith computes #CQA(Q,Σ)(D) exactly with a pinned engine:
// EngineFactorized (planner-selected per-component engines), EngineGray
// (every component forced onto the Gray-delta walk), EngineCompIE (every
// component forced onto component-local inclusion–exclusion),
// EngineCompile (every component compiled into a cached d-DNNF circuit),
// EngineIE (whole-instance inclusion–exclusion) or EngineEnum (plain
// enumeration). EngineAuto is Count without the engine report.
func (c *Counter) CountWith(engine EngineKind) (*big.Int, error) {
	return c.CountWithWorkers(engine, 0)
}

// CountWithWorkers is CountWith with one worker knob threaded uniformly
// through every pinned engine's executor (the planned factorized runner,
// the forced Gray/IE assignments, parallel enumeration). workers ≤ 0
// selects GOMAXPROCS everywhere; engines without a parallel path
// (whole-instance IE, FO enumeration) ignore it. The count never depends
// on the worker count.
func (c *Counter) CountWithWorkers(engine EngineKind, workers int) (*big.Int, error) {
	switch engine {
	case EngineAuto:
		n, _, err := c.inst.CountExactWorkers(workers)
		return n, err
	case EngineFactorized:
		return c.inst.CountFactorizedParallel(0, workers)
	case EngineGray:
		return c.inst.CountGray(0, workers)
	case EngineCompIE:
		return c.inst.CountCompIE(0, workers)
	case EngineCompile:
		return c.inst.CountCompile(0, workers)
	case EngineIE:
		return c.inst.CountIE(0)
	case EngineEnum:
		if c.inst.IsEP {
			return c.inst.CountEnumUCQParallel(0, workers)
		}
		return c.inst.CountEnumFO(0)
	case EngineEnumFO:
		return c.inst.CountEnumFO(0)
	}
	return nil, fmt.Errorf("repaircount: engine %s cannot be pinned (want EngineAuto, EngineFactorized, EngineGray, EngineCompIE, EngineCompile, EngineIE, EngineEnum or EngineEnumFO)", engine)
}

// ExplainPlan reports how the exact engines would answer without running
// the enumeration: the overall algorithm and, for the factorized engine,
// every component's block and box counts, both engine costs, the chosen
// engine and whether its count is already memoized (the polynomial
// closed-form engines may execute while deciding applicability).
// EngineAuto explains the planner's own choice (what Count does);
// EngineGray / EngineCompIE explain a forced assignment.
func (c *Counter) ExplainPlan(engine EngineKind) (*Plan, error) {
	return c.inst.ExplainPlan(engine)
}

// CountFactorized computes #CQA(Q,Σ)(D) exactly with the planned
// factorized engine: the relevant conflict blocks are partitioned into
// connected components of the query-interaction graph, the planner assigns
// each component the cheaper of the Gray-delta walk (delta-maintained
// match state over the component's 2^{n_c} choices) and component-local
// inclusion–exclusion over the component's boxes, and the per-component
// non-entailment counts multiply. Work is Σ_c min(2^{n_c}, IE_c) instead
// of Π|B_i|, with heterogeneous component jobs drained by a work-stealing
// worker pool. Existential positive queries only; the count is
// bit-identical to the enumeration path.
func (c *Counter) CountFactorized() (*big.Int, error) {
	return c.inst.CountFactorizedParallel(0, 0)
}

// CountEnum computes #CQA(Q,Σ)(D) exactly by plain enumeration of the
// repair space (the ground-truth path the factorized engine is measured
// against): one fresh evaluation per enumerated repair.
func (c *Counter) CountEnum() (*big.Int, error) {
	if c.inst.IsEP {
		return c.inst.CountEnumUCQ(0)
	}
	return c.inst.CountEnumFO(0)
}

// Interval is a closed float64 interval [Lo, Hi] guaranteed to contain an
// exact real value; the weighted counters return their answers as
// outward-rounded intervals (see internal/core).
type Interval = core.Interval

// FactWeights renders a per-fact annotation map — canonical fact text
// (Fact.Canonical / Fact.String) to weight — as the ordinal-indexed weight
// vector CountWeighted and ProbabilityOf consume. Unannotated facts weigh
// 1 (so an empty map is the uniform vector), and annotations naming facts
// absent from the instance are ignored, which lets one annotation file
// outlive deltas. Weight validity (finite, ≥ 0) is checked by the
// consumers, not here.
func (c *Counter) FactWeights(ann map[string]float64) []float64 {
	w := make([]float64, c.inst.Idx.NumFacts())
	for i := range w {
		w[i] = 1
	}
	if len(ann) == 0 {
		return w
	}
	for _, f := range c.inst.DB.Facts() {
		if x, ok := ann[f.Canonical()]; ok {
			if ord, ok := c.inst.Idx.OrdinalOf(f); ok {
				w[ord] = x
			}
		}
	}
	return w
}

// CountWeighted computes the weighted model count of the entailing
// repairs — Σ over repairs r entailing Q of Π_{fact ∈ r} w[fact] — by
// evaluating each component's cached d-DNNF circuit under the weights in
// outward-rounded interval arithmetic: the returned Interval brackets the
// exact value. The weight vector is indexed by fact ordinal (build it with
// FactWeights); uniform weight 1 recovers the exact count. Existential
// positive queries with materialized boxes only.
func (c *Counter) CountWeighted(w []float64) (Interval, error) { return c.inst.CountWeighted(w) }

// ProbabilityOf computes the probability that a random repair entails the
// query when every conflict block independently picks one of its facts
// with odds proportional to the per-fact weights — the disjoint-
// independent probabilistic-database semantics (internal/probdb pins it
// with exact rationals). The interval brackets the exact probability; a
// uniform vector recovers the relative frequency. Circuits are cached
// across calls and deltas, so repeated probes are circuit-linear.
func (c *Counter) ProbabilityOf(w []float64) (Interval, error) { return c.inst.ProbabilityOf(w) }

// CountFingerprint digests everything that determines the exact count:
// equal fingerprints (even across different query texts) mean equal
// counts, so a cache may serve one query's result to the other. ok is
// false when no sound structural fingerprint exists (non-∃FO⁺ queries,
// masked factorizations) — fall back to keying by query text.
func (c *Counter) CountFingerprint() (fp string, ok bool) { return c.inst.CountFingerprint() }

// PlanFingerprint digests the EngineAuto planner report: equal
// fingerprints across instance versions mean the plan did not move, so an
// admission priced purely from the plan (the exact rung) may be carried
// across the version bump. Non-exact admissions must be re-priced (the
// FPRAS sample bound is not plan-determined). ok is false for non-∃FO⁺
// queries.
func (c *Counter) PlanFingerprint() (fp string, ok bool) { return c.inst.PlanFingerprint() }

// Decide answers #CQA>0: does some repair entail Q?
func (c *Counter) Decide() bool { return c.inst.HasRepairEntailing() }

// RelativeFrequency returns #CQA / |rep| as an exact rational.
func (c *Counter) RelativeFrequency() (*big.Rat, error) { return c.inst.RelativeFrequency() }

// Approximate runs the paper's FPRAS (Theorem 6.2):
// Pr(|estimate − #CQA| ≤ ε·#CQA) ≥ 1−δ. Only existential positive
// queries are supported (Theorem 6.1: no FPRAS for FO unless RP = NP).
// The seed makes runs reproducible.
//
// Each sample draws a choice only for the blocks of the query's
// predicates, so its cost scales with the blocks the query can read, not
// with the database. The other blocks cannot change entailment, so skipping
// them leaves every sample's hit probability — and so the estimator's
// distribution, the sample count and the (ε,δ) guarantee — exactly as if
// the whole repair were drawn.
func (c *Counter) Approximate(eps, delta float64, seed uint64) (Estimate, error) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	return c.inst.Apx(eps, delta, rng)
}

// ApproximateWithSamples runs the Algorithm 3 estimator with an explicit
// sample budget (no (ε,δ) guarantee unless the budget meets the paper's
// bound).
func (c *Counter) ApproximateWithSamples(samples int, seed uint64) (Estimate, error) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	return c.inst.ApxWithSamples(samples, rng)
}

// ApproximateParallel runs the FPRAS with the sampling loop sharded across
// worker goroutines (workers ≤ 0 selects GOMAXPROCS). The sample budget is
// split into a fixed number of shards, each with its own PCG stream seeded
// deterministically from the user seed, so for a fixed seed the estimate
// is identical across runs and worker counts.
func (c *Counter) ApproximateParallel(eps, delta float64, workers int, seed uint64) (Estimate, error) {
	return c.inst.ApxParallel(eps, delta, workers, seed)
}

// ApproximateParallelCtx is ApproximateParallel with cooperative
// cancellation: a canceled ctx stops the sampling loops within a bounded
// number of draws and the call returns ctx.Err().
func (c *Counter) ApproximateParallelCtx(ctx context.Context, eps, delta float64, workers int, seed uint64) (Estimate, error) {
	stop, release := stopForCtx(ctx)
	defer release()
	est, err := c.inst.ApxParallelStop(eps, delta, workers, seed, stop)
	if err == core.ErrStopped {
		return Estimate{}, ctx.Err()
	}
	return est, err
}

// ApproxSampleBound reports the Theorem 6.2 sample count the FPRAS would
// run at the given accuracy, without drawing a sample — how a serving
// layer prices an approximate probe before admitting it. It fails for
// queries without an FPRAS (non-∃FO⁺, or an unbounded compactor).
func (c *Counter) ApproxSampleBound(eps, delta float64) (*big.Int, error) {
	return c.inst.ApxSampleBound(eps, delta)
}

// Keywidth returns kw(Q,Σ), the paper's covering function: #CQA(Q,Σ) is
// Λ[kw]-complete (Theorem 5.1).
func (c *Counter) Keywidth() int { return c.inst.Keywidth() }

// Fragment names the smallest standard query class containing Q (CQ, UCQ,
// ∃FO+, FO).
func (c *Counter) Fragment() string { return query.Classify(c.inst.Q).String() }

// Instance exposes the underlying repairs.Instance for advanced use (the
// compactor, certificate boxes, Karp–Luby sampler, safe-plan internals).
func (c *Counter) Instance() *repairs.Instance { return c.inst }

// Delta is one instance mutation: the insertion or deletion of a fact.
type Delta = repairs.Delta

// Insert builds an insertion delta for Apply.
func Insert(f Fact) Delta { return repairs.Insert(f) }

// Delete builds a deletion delta for Apply.
func Delete(f Fact) Delta { return repairs.Delete(f) }

// Apply mutates the counter's instance in place, maintaining the conflict
// blocks, the evaluation index and the factorization state incrementally,
// and returns how many deltas changed the instance (duplicate inserts and
// deletes of absent facts are no-ops). Counting methods remain valid
// between deltas; a recount re-enumerates only the components the deltas
// touched. Counters sharing a snapshot substrate observe each other's
// deltas on their next count.
func (c *Counter) Apply(deltas ...Delta) (int, error) { return c.inst.Apply(deltas...) }

// Version returns the monotonically increasing version of the counter's
// instance (the number of successful mutations since construction).
func (c *Counter) Version() uint64 { return c.inst.Version() }

// Snapshot is a loaded .cqs instance snapshot: one database plus key set
// with its derived counting structures reconstructed from the snapshot's
// mapped arenas instead of recomputed. Many counters can be built against
// one snapshot; they share the block sequence and evaluation index. The
// snapshot and everything derived from it is read-only, and none of it may
// be used after Close.
type Snapshot struct {
	s    *store.Snapshot
	db   *Database
	keys *KeySet
}

// OpenSnapshot maps and validates the snapshot file at path (see
// WriteSnapshot / repairctl build for producing one). The load parses no
// text: fact arenas, symbol tables, block boundaries and posting lists are
// aliased from the mapping.
func OpenSnapshot(path string) (*Snapshot, error) {
	s, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	return newSnapshot(s)
}

// DecodeSnapshot is OpenSnapshot over in-memory bytes (for example a
// snapshot received over a network or read from stdin). The buffer is
// retained by the returned Snapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	s, err := store.Decode(data)
	if err != nil {
		return nil, err
	}
	return newSnapshot(s)
}

func newSnapshot(s *store.Snapshot) (*Snapshot, error) {
	db, err := s.Database()
	if err != nil {
		s.Close()
		return nil, err
	}
	keys, err := s.Keys()
	if err != nil {
		s.Close()
		return nil, err
	}
	return &Snapshot{s: s, db: db, keys: keys}, nil
}

// Database returns the snapshot's database.
func (s *Snapshot) Database() *Database { return s.db }

// Keys returns the snapshot's key set Σ.
func (s *Snapshot) Keys() *KeySet { return s.keys }

// Blocks returns the snapshot's preloaded canonical conflict-block
// sequence — identical to relational.Blocks over the parsed instance, at
// no recomputation cost. Callers must not mutate the result.
func (s *Snapshot) Blocks() []Block {
	blocks, err := s.s.Blocks()
	if err != nil {
		// Materialization already succeeded in newSnapshot; the memoized
		// error cannot reappear.
		panic(err)
	}
	return blocks
}

// TotalRepairs returns |rep(D,Σ)| = ∏|B_i|, read off the live block
// sequence's maintained aggregate (no walk over the blocks). The result is
// the caller's to keep.
func (s *Snapshot) TotalRepairs() *big.Int {
	live, err := s.s.Live()
	if err != nil {
		// Materialization already succeeded in newSnapshot; the memoized
		// error cannot reappear.
		panic(err)
	}
	return new(big.Int).Set(live.Blocks.Total())
}

// RankAnswers scores every candidate answer tuple of a non-Boolean query
// by its relative frequency (see the package-level RankAnswers), reusing
// the snapshot's preloaded block sequence and index across all tuples.
func (s *Snapshot) RankAnswers(q Formula) ([]RankedAnswer, error) {
	idx, err := s.s.Index()
	if err != nil {
		return nil, err
	}
	return rankAnswers(s.db, s.keys, q, s.Blocks(), idx)
}

// Counter prepares a counter for a Boolean query over the snapshot,
// sharing the snapshot's live substrate (preloaded block sequence and
// index): every counter over one snapshot sees deltas applied through the
// snapshot or through any sibling counter.
func (s *Snapshot) Counter(q Formula) (*Counter, error) {
	live, err := s.s.Live()
	if err != nil {
		return nil, err
	}
	inst, err := repairs.NewLiveInstance(live, q)
	if err != nil {
		return nil, err
	}
	return &Counter{inst: inst}, nil
}

// Apply mutates the loaded snapshot's instance in memory (the file is not
// touched; use AppendJournal to persist deltas). It returns how many
// deltas changed the instance. Counters built from the snapshot observe
// the mutations on their next count.
func (s *Snapshot) Apply(deltas ...Delta) (int, error) {
	live, err := s.s.Live()
	if err != nil {
		return 0, err
	}
	applied := 0
	for _, d := range deltas {
		changed, err := live.Apply(d.Del, d.Fact)
		if changed {
			applied++
		}
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// Version returns the snapshot instance's monotonically increasing
// version: the number of journal ops replayed at load plus the mutations
// applied since.
func (s *Snapshot) Version() uint64 {
	live, err := s.s.Live()
	if err != nil {
		// Materialization already succeeded in newSnapshot; the memoized
		// error cannot reappear.
		panic(err)
	}
	return live.Version()
}

// Close releases the snapshot's file mapping. Structures obtained from the
// snapshot (database, counters) must not be used afterwards.
func (s *Snapshot) Close() error { return s.s.Close() }

// WriteSnapshot serializes (D, Σ) as a .cqs snapshot with all precomputed
// sections; the output loads with OpenSnapshot.
func WriteSnapshot(w io.Writer, db *Database, keys *KeySet) error {
	return store.Write(w, db, keys, store.DefaultOptions)
}

// Snapshot serializes the counter's instance as a .cqs snapshot, so later
// runs (or other machines) can OpenSnapshot it and count without parsing
// or re-indexing.
func (c *Counter) Snapshot(w io.Writer) error {
	return store.Write(w, c.inst.DB, c.inst.Keys, store.DefaultOptions)
}

// AppendJournal appends the deltas as one self-contained, checksummed
// journal block to the .cqs snapshot file at path, without rewriting the
// sealed base. The deltas are validated against a fresh load of the
// snapshot first, so a delta the instance cannot absorb (e.g. an arity
// clash) fails the append and leaves the file loadable; that load costs
// time in the snapshot's size. OpenSnapshot replays the journal on load,
// so the file then describes the mutated instance.
func AppendJournal(path string, deltas ...Delta) error {
	ops := make([]store.JournalOp, len(deltas))
	for i, d := range deltas {
		ops[i] = store.JournalOp{Del: d.Del, Fact: d.Fact}
	}
	return store.AppendJournal(path, ops)
}

// CompactSnapshot reseals the snapshot at src — base plus any appended
// journal — as a clean, journal-free snapshot at dst with all precomputed
// sections and identical counts. The write is atomic (temp file plus
// rename in the destination directory), so src == dst compacts in place
// safely.
func CompactSnapshot(src, dst string) error { return store.CompactFile(src, dst) }

// RecoverSnapshot repairs a snapshot file whose last journal append was
// interrupted by a crash: a torn trailing journal block is truncated away
// (with an fsync), leaving the file bit-identical to its last committed
// state. It returns the number of torn bytes dropped — 0 for a clean
// file. Damage a torn append cannot explain (a corrupt base, a damaged
// committed block) is an error: recovery never invents a state.
func RecoverSnapshot(path string) (dropped int64, err error) {
	return store.RecoverFile(path)
}

// ShardPlan is a cost-balanced partition of an instance's query-graph
// components into K shards; see Counter.PlanShards.
type ShardPlan = repairs.ShardPlan

// Partial is one shard's counting contribution: its Inner choice space and
// NonEnt non-entailing total, merged as (Π Inner − Π NonEnt) × Outer.
type Partial = repairs.Partial

// Manifest is the CQSM record binding a shard set: the partition's query,
// per-shard snapshot digests, and the excluded-block factor.
type Manifest = store.Manifest

// PlanShards partitions the counter's components into k groups by greedy
// bin-packing on planned engine cost (`repairctl shard -explain` renders
// the resulting per-shard cost table). k may exceed the component count;
// surplus shards are empty and merge neutrally.
func (c *Counter) PlanShards(k int) (*ShardPlan, error) { return c.inst.PlanShards(k) }

// CountSharded counts exactly by splitting the instance into k
// cost-balanced shards, running one independent planned counter per shard
// on a worker pool (workers ≤ 0 selects GOMAXPROCS), and merging the
// partials with exact big-int arithmetic. The result is bit-identical to
// Count for every k — sharding is a throughput lever, never an
// approximation.
func (c *Counter) CountSharded(k, workers int) (*big.Int, error) {
	return c.inst.CountSharded(k, workers)
}

// CountShardedCtx is CountSharded with cooperative cancellation threaded
// through every per-shard job: when ctx is canceled the fleet's workers
// observe the stop flag within a bounded number of states and the call
// returns ctx.Err(). The count, when it completes, is identical to
// CountSharded.
func (c *Counter) CountShardedCtx(ctx context.Context, k, workers int) (*big.Int, error) {
	stop, release := stopForCtx(ctx)
	defer release()
	n, err := c.inst.CountShardedStop(k, workers, stop)
	if err == core.ErrStopped {
		return nil, ctx.Err()
	}
	return n, err
}

// CountPartial computes this instance's shard partial — Inner = Π|B_i|
// over its blocks and NonEnt = its repairs not entailing the query — with
// the planned factorized engine (workers ≤ 0 selects GOMAXPROCS). It is
// the counting half of the multi-process pipeline: run it on a shard
// snapshot, serialize the result, and MergePartialFiles recombines the
// set.
func (c *Counter) CountPartial(workers int) (*Partial, error) {
	return c.inst.CountNonEntailment(0, workers)
}

// CountPartialCtx is CountPartial with cooperative cancellation: a shard
// worker serving partials over HTTP threads the request context here so a
// canceled or abandoned probe frees the counting kernels within a bounded
// number of states. Returns ctx.Err() when canceled.
func (c *Counter) CountPartialCtx(ctx context.Context, workers int) (*Partial, error) {
	stop, release := stopForCtx(ctx)
	defer release()
	p, err := c.inst.CountNonEntailmentStop(0, workers, stop)
	if err == core.ErrStopped {
		return nil, ctx.Err()
	}
	return p, err
}

// ShardSet describes shard snapshots written by WriteShards: the manifest
// (also written to ManifestPath) with its digest, and the shard snapshot
// paths in shard order.
type ShardSet struct {
	Manifest     *Manifest
	ManifestCRC  uint64
	ManifestPath string
	Paths        []string
}

// WriteShards slices the counter's instance under plan into one
// self-contained .cqs snapshot per shard in dir (shard-000.cqs, …) plus a
// CQSM manifest (manifest.cqsm) binding the set. baseCRC identifies the
// parent snapshot in the manifest (0 for instances without a snapshot
// form). Each shard holds its exclusive conflicting blocks plus every
// shared single-fact relevant block and the full key set, so it loads and
// counts like any snapshot.
func (c *Counter) WriteShards(dir string, plan *ShardPlan, baseCRC uint64) (*ShardSet, error) {
	paths := make([]string, plan.K)
	for s := range paths {
		paths[s] = filepath.Join(dir, fmt.Sprintf("shard-%03d.cqs", s))
	}
	digests, err := store.WriteShardFiles(c.inst.Keys, c.inst.Blocks, plan.ShardOf, paths)
	if err != nil {
		return nil, err
	}
	m := &Manifest{
		BaseCRC: baseCRC,
		Query:   fmt.Sprintf("%v", c.inst.Q),
		Outer:   plan.Outer,
		Shards:  make([]store.ManifestShard, plan.K),
	}
	for s := range m.Shards {
		m.Shards[s] = store.ManifestShard{
			CRC:    digests[s],
			Cost:   plan.Cost[s],
			Blocks: plan.Blocks[s],
		}
	}
	for _, sh := range plan.CompShard {
		m.Shards[sh].Components++
	}
	mpath := filepath.Join(dir, "manifest.cqsm")
	crc, err := store.WriteManifestFile(mpath, m)
	if err != nil {
		return nil, err
	}
	return &ShardSet{Manifest: m, ManifestCRC: crc, ManifestPath: mpath, Paths: paths}, nil
}

// Shard slices the sealed snapshot into k shard snapshots plus a manifest
// in dir, partitioned for the Boolean query q (see Counter.WriteShards).
// The snapshot must be journal-free — shard digests identify sealed bytes,
// so a journaled snapshot must be compacted first.
func (s *Snapshot) Shard(q Formula, k int, dir string) (*ShardSet, error) {
	if n := s.s.NumJournalOps(); n > 0 {
		return nil, fmt.Errorf("repaircount: snapshot carries %d journal ops; compact it before sharding", n)
	}
	c, err := s.Counter(q)
	if err != nil {
		return nil, err
	}
	plan, err := c.PlanShards(k)
	if err != nil {
		return nil, err
	}
	return c.WriteShards(dir, plan, s.Digest())
}

// Digest returns the snapshot's sealed-base digest — the trailer CRC that
// shard manifests use to identify snapshots. Appended journal ops do not
// change it.
func (s *Snapshot) Digest() uint64 { return s.s.BaseCRC() }

// NumJournalOps returns how many delta-journal ops the snapshot file
// carried at load. A snapshot with journal ops no longer equals its sealed
// base, so sharding and shard counting refuse it until compacted.
func (s *Snapshot) NumJournalOps() int { return s.s.NumJournalOps() }

// JournalBytes returns the size of the journal region appended after the
// snapshot's sealed base — the growth a compaction would reclaim. The
// serving daemon compacts when this crosses its threshold.
func (s *Snapshot) JournalBytes() int64 { return s.s.JournalBytes() }

// MergePartialFiles reads a CQSM manifest and a complete set of CQSP
// partial files and recombines them into the exact global count,
// verifying that every partial was produced under this manifest and
// counted the recorded shard snapshot. Any stale, mixed, duplicated or
// missing partial is an error, never a miscount.
func MergePartialFiles(manifestPath string, partialPaths ...string) (*big.Int, error) {
	m, crc, err := store.ReadManifestFile(manifestPath)
	if err != nil {
		return nil, err
	}
	parts := make([]*store.PartialFile, len(partialPaths))
	for i, p := range partialPaths {
		if parts[i], err = store.ReadPartialFile(p); err != nil {
			return nil, err
		}
	}
	return store.MergePartials(m, crc, parts)
}
