package server

import (
	"context"
	"math/big"
	"sync"
	"sync/atomic"

	"repaircount"
)

// This file is the shared probe cache: one bounded, concurrency-safe
// structure holding, per canonical query text, the compiled Counter
// (shared across all probe slots instead of compiled once per slot),
// the priced Admission, and completed exact results. Every memo is
// keyed by the substrate epoch (bumped when compaction re-maps the
// snapshot file — a Counter built against the old mapping must never
// run again) and the monotonic instance version (bumped by every
// applied delta), so a stale serve is structurally impossible: a moved
// version or epoch simply misses.
//
// Entry access is serialized by a context-aware lock, which doubles as
// the singleflight collapse point: when a thundering herd probes one
// query, the first holder runs the count and stores the result; every
// waiter acquires the lock after it and finds the memo populated.

// DefaultCacheEntries is the probe-cache bound when the config does not
// set one.
const DefaultCacheEntries = 512

// ResultKind names the per-query result memos: Count, Decide and Prob
// for the pipeline's own answers, Fan for a fleet hook's merged fan-out
// result. Approximate and rank results are never cached.
type ResultKind uint8

const (
	ResultCount ResultKind = iota
	ResultDecide
	ResultFan
	ResultProb
	numResultKinds
)

// CachedResult is one completed probe result pinned to an (epoch,
// version) pair. N and Str are never mutated after StoreResult.
type CachedResult struct {
	N        *big.Int // exact count (nil for decide/prob)
	Str      string   // rendered response value: count text, or "true"/"false"
	Engine   repaircount.EngineKind
	Entailed bool    // decide verdict
	Lo, Hi   float64 // probability interval bounds (prob results)
}

// CacheStats is a point-in-time counter snapshot for /v1/stats.
// FPMerges counts results served across query texts through the
// count-fingerprint alias map: a probe whose own text had no memoized
// result but whose structural fingerprint matched another query's.
type CacheStats struct {
	Hits, Misses, Evictions, FPMerges int64
	Entries                           int
}

type admissionMemo struct {
	ok             bool
	epoch, version uint64
	planFP         string // fingerprint the admission was priced under ("" = none)
	adm            Admission
}

type resultMemo struct {
	ok             bool
	epoch, version uint64
	res            CachedResult
}

// CacheEntry is the cached state for one query text. All fields below
// lock are guarded by holding the entry lock (Acquire/Release);
// lastUse is guarded by the cache mutex.
type CacheEntry struct {
	pc      *ProbeCache
	qs      string
	lock    chan struct{} // capacity 1; the singleflight collapse point
	lastUse int64

	epoch   uint64
	counter *repaircount.Counter
	adm     admissionMemo
	results [numResultKinds]resultMemo
}

// ProbeCache is the shared, bounded probe cache. One instance is shared
// by every probe slot of a Server.
type ProbeCache struct {
	mu      sync.Mutex
	cap     int
	clock   int64
	entries map[string]*CacheEntry

	hits, misses, evictions, fpMerges atomic.Int64

	// fpResults aliases completed results across query texts: entries are
	// keyed by the structural count fingerprint (Counter.CountFingerprint)
	// instead of the text, so two structurally identical queries — equal
	// fingerprints imply equal counts — share one computed result. The
	// per-text memos above remain the fast path (and the only path for
	// queries without a fingerprint); this map is consulted on a per-text
	// miss and written through on every store. Guarded by mu.
	fpResults map[fpResKey]resultMemo

	// TotalRepairs is query-independent, so its memo lives on the cache
	// itself. totMu serializes recomputation (total singleflight).
	totMu            sync.Mutex
	totOK            bool
	totEpoch, totVer uint64
	tot              *big.Int
	totStr           string
}

// fpResKey keys the cross-query result alias map: one result kind under
// one structural count fingerprint.
type fpResKey struct {
	kind ResultKind
	fp   string
}

// NewProbeCache builds a cache bounded to at most `entries` queries
// (DefaultCacheEntries when <= 0).
func NewProbeCache(entries int) *ProbeCache {
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	return &ProbeCache{
		cap:       entries,
		entries:   make(map[string]*CacheEntry),
		fpResults: make(map[fpResKey]resultMemo),
	}
}

// ResultByFP returns a completed result memoized under the structural
// count fingerprint fp for (epoch, version) — the cross-query alias rung
// consulted after the per-text memo misses. A hit counts as a
// fingerprint merge (the result crossed query texts).
func (pc *ProbeCache) ResultByFP(kind ResultKind, fp string, epoch, version uint64) (CachedResult, bool) {
	if fp == "" {
		return CachedResult{}, false
	}
	pc.mu.Lock()
	m, ok := pc.fpResults[fpResKey{kind, fp}]
	pc.mu.Unlock()
	if ok && m.ok && m.epoch == epoch && m.version == version {
		pc.fpMerges.Add(1)
		return m.res, true
	}
	return CachedResult{}, false
}

// StoreResultByFP memoizes a completed result under the structural count
// fingerprint for (epoch, version). The alias map is bounded like the
// entry map: past the cap it is dropped wholesale and refills — aliasing
// is a throughput lever, never required for correctness.
func (pc *ProbeCache) StoreResultByFP(kind ResultKind, fp string, epoch, version uint64, res CachedResult) {
	if fp == "" {
		return
	}
	pc.mu.Lock()
	if len(pc.fpResults) >= pc.cap {
		pc.fpResults = make(map[fpResKey]resultMemo)
	}
	pc.fpResults[fpResKey{kind, fp}] = resultMemo{ok: true, epoch: epoch, version: version, res: res}
	pc.mu.Unlock()
}

// Acquire returns the locked entry for qs with a counter valid for the
// given epoch, building (or rebuilding, when compaction moved the
// epoch) via build. The entry stays locked — and concurrent probes for
// the same query wait — until Release; a canceled ctx abandons the
// wait. A build error evicts the entry so bad queries cannot occupy the
// map.
func (pc *ProbeCache) Acquire(ctx context.Context, epoch uint64, qs string, build func(qs string) (*repaircount.Counter, error)) (*CacheEntry, error) {
	pc.mu.Lock()
	e := pc.entries[qs]
	if e == nil {
		e = &CacheEntry{pc: pc, qs: qs, lock: make(chan struct{}, 1)}
		pc.entries[qs] = e
		pc.evictLocked(e)
	}
	pc.clock++
	e.lastUse = pc.clock
	pc.mu.Unlock()

	select {
	case e.lock <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if e.counter == nil || e.epoch != epoch {
		c, err := build(qs)
		if err != nil {
			<-e.lock
			pc.mu.Lock()
			if pc.entries[qs] == e {
				delete(pc.entries, qs)
			}
			pc.mu.Unlock()
			return nil, err
		}
		e.counter = c
		e.epoch = epoch
		e.adm = admissionMemo{}
		e.results = [numResultKinds]resultMemo{}
	}
	return e, nil
}

// Release unlocks an acquired entry.
func (pc *ProbeCache) Release(e *CacheEntry) { <-e.lock }

// evictLocked drops least-recently-used entries (never keep) until the
// map fits the bound. Caller holds pc.mu. An evicted entry that a probe
// still holds simply finishes detached: its pointer stays valid, only
// its memos are lost.
func (pc *ProbeCache) evictLocked(keep *CacheEntry) {
	for len(pc.entries) > pc.cap {
		var victim *CacheEntry
		for _, e := range pc.entries {
			if e == keep {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(pc.entries, victim.qs)
		pc.evictions.Add(1)
	}
}

// Stats snapshots the cache counters.
func (pc *ProbeCache) Stats() CacheStats {
	pc.mu.Lock()
	n := len(pc.entries)
	pc.mu.Unlock()
	return CacheStats{
		Hits:      pc.hits.Load(),
		Misses:    pc.misses.Load(),
		Evictions: pc.evictions.Load(),
		FPMerges:  pc.fpMerges.Load(),
		Entries:   n,
	}
}

// Counter returns the entry's compiled counter. Caller holds the entry
// lock, which is what makes a non-concurrency-safe Counter shareable.
func (e *CacheEntry) Counter() *repaircount.Counter { return e.counter }

// Admission returns the priced admission memoized for (epoch, version).
func (e *CacheEntry) Admission(epoch, version uint64) (Admission, bool) {
	if e.adm.ok && e.adm.epoch == epoch && e.adm.version == version {
		return e.adm.adm, true
	}
	return Admission{}, false
}

// StoreAdmission memoizes the priced admission for (epoch, version),
// without a plan fingerprint (it will not survive a version bump).
func (e *CacheEntry) StoreAdmission(epoch, version uint64, adm Admission) {
	e.adm = admissionMemo{ok: true, epoch: epoch, version: version, adm: adm}
}

// StoreAdmissionPlan memoizes the priced admission for (epoch, version)
// together with the plan fingerprint it was priced under, making it
// eligible for cross-version reuse via AdmissionForPlan.
func (e *CacheEntry) StoreAdmissionPlan(epoch, version uint64, planFP string, adm Admission) {
	e.adm = admissionMemo{ok: true, epoch: epoch, version: version, planFP: planFP, adm: adm}
}

// AdmissionForPlan returns the memoized admission when it was priced in
// the same epoch under an identical, non-empty plan fingerprint — the
// keyed check that carries a priced admission across version bumps whose
// deltas did not move the plan. The version is deliberately ignored;
// Ladder.PriceEntry restricts which admissions may travel this way.
func (e *CacheEntry) AdmissionForPlan(epoch uint64, planFP string) (Admission, bool) {
	if e.adm.ok && e.adm.epoch == epoch && planFP != "" && e.adm.planFP == planFP {
		return e.adm.adm, true
	}
	return Admission{}, false
}

// Result returns the completed result of the given kind memoized for
// (epoch, version), counting a cache hit or miss either way.
func (e *CacheEntry) Result(kind ResultKind, epoch, version uint64) (CachedResult, bool) {
	m := e.results[kind]
	if m.ok && m.epoch == epoch && m.version == version {
		e.pc.hits.Add(1)
		return m.res, true
	}
	e.pc.misses.Add(1)
	return CachedResult{}, false
}

// StoreResult memoizes a completed result for (epoch, version). The
// caller must not mutate res.N afterwards.
func (e *CacheEntry) StoreResult(kind ResultKind, epoch, version uint64, res CachedResult) {
	e.results[kind] = resultMemo{ok: true, epoch: epoch, version: version, res: res}
}

// Total returns the memoized TotalRepairs for (epoch, version),
// computing and rendering it once per instance state. compute runs
// under the total lock, so a herd of total probes runs one product.
func (pc *ProbeCache) Total(epoch, version uint64, compute func() *big.Int) (*big.Int, string) {
	pc.totMu.Lock()
	defer pc.totMu.Unlock()
	if pc.totOK && pc.totEpoch == epoch && pc.totVer == version {
		pc.hits.Add(1)
		return pc.tot, pc.totStr
	}
	pc.misses.Add(1)
	pc.tot = compute()
	pc.totStr = pc.tot.String()
	pc.totEpoch, pc.totVer, pc.totOK = epoch, version, true
	return pc.tot, pc.totStr
}
