package cluster

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"sync"
	"time"

	"repaircount/internal/repairs"
	"repaircount/internal/server"
	"repaircount/internal/store"
)

// Fan-out soundness. The fleet physically holds the partition cut at the
// current epoch's birth; deltas since then were streamed by that same
// placement. A fan-out merges the workers' partials as
//
//	#Q = (Π_w Inner_w − Π_w NonEnt_w) × effOuter
//
// which is exact iff the FRESH factorization (re-planned at the current
// instance version) still respects the physical placement:
//
//   - a freshly shared block (relevant singleton) must be physically
//     replicated on every worker — its fact can appear in any
//     homomorphic image, so every sub-instance needs it;
//   - a freshly conflicting component's blocks must all sit on ONE
//     physical worker (any worker — not necessarily the fresh plan's LPT
//     pick): each sub-instance is a subset of the global instance, so no
//     worker can see a phantom image, and components are independent
//     given the replicated singletons, so the products multiply exactly;
//   - a freshly excluded block (irrelevant, or conflicting with no
//     entailing choice) is sound in three positions: off the fleet
//     entirely, where its size multiplies into effOuter; wholly on one
//     worker, where it multiplies into that worker's Inner AND NonEnt
//     and therefore factors out of Inner_w − NonEnt_w on its own — it
//     must NOT be counted into effOuter again; or replicated while still
//     a singleton, where it contributes a factor of one everywhere.
//
// effOuter is built by multiplication only, over the first position —
// the coordinator never divides big integers to "remove" a block from a
// stale outer factor.
//
// Any violation — a block that moved classes, a component that now
// straddles workers, a replicated block that grew — makes the fan-out
// UNSOUND, and the coordinator counts locally on its own snapshot
// instead, which is always exact, until the next re-shard rebuilds the
// physical cut. The validation is cached per (epoch, instance version):
// probe N+1 after a quiet stream pays one map lookup.

// fanPlan is the cached fan-out validation for one (epoch, version).
type fanPlan struct {
	version  uint64
	ok       bool
	reason   string   // why fan-out is unsound, when !ok
	effOuter *big.Int // Π sizes over blocks no physical shard holds
	maxCost  int64    // fleet critical path: max_w Σ planned cost on w
}

// currentFanPlan returns the fan-out validation for the instance
// version, rebuilding it if deltas moved the instance. Caller holds the
// server's read lock, so the version cannot move underneath.
func (c *fleet) currentFanPlan(version uint64) *fanPlan {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	if c.fan != nil && c.fan.version == version {
		return c.fan
	}
	c.fan = c.buildFanPlanLocked(version)
	return c.fan
}

// buildFanPlanLocked re-factorizes at the current version and validates
// the fresh partition against the physical placement. Caller holds the
// server's read lock and c.fmu.
func (c *fleet) buildFanPlanLocked(version uint64) *fanPlan {
	fp := &fanPlan{version: version, effOuter: big.NewInt(1)}
	plan, err := c.pcounter.PlanShards(len(c.workers))
	if err != nil {
		fp.reason = err.Error()
		return fp
	}
	blocks := c.pcounter.Instance().Blocks
	compWorker := make([]int32, len(plan.Components))
	for i := range compWorker {
		compWorker[i] = -1
	}
	for pos, b := range blocks {
		phys, placed := c.plac[b.Key.Canonical()]
		switch s := plan.ShardOf[pos]; {
		case s == shardShared:
			if !placed || phys != shardShared {
				fp.reason = fmt.Sprintf("block %s is now a shared singleton but is not replicated across the fleet", b.Key.Canonical())
				return fp
			}
		case s >= 0:
			// A conflicting component block: it must live wholly on one
			// physical worker, and so must its whole component.
			if !placed || phys < 0 {
				fp.reason = fmt.Sprintf("conflicting block %s is not on any worker", b.Key.Canonical())
				return fp
			}
			if ci := plan.CompOf[pos]; ci >= 0 {
				switch compWorker[ci] {
				case -1:
					compWorker[ci] = phys
				case phys:
				default:
					fp.reason = fmt.Sprintf("component %d straddles workers %d and %d after deltas", ci, compWorker[ci], phys)
					return fp
				}
			}
		default: // freshly excluded
			switch {
			case !placed || phys == shardExcluded:
				fp.effOuter.Mul(fp.effOuter, big.NewInt(int64(b.Size())))
			case phys >= 0:
				// Folds into that worker's Inner and NonEnt and factors out
				// of the merge on its own; contributing it to effOuter too
				// would double-count it.
			case phys == shardShared:
				if b.Size() != 1 {
					fp.reason = fmt.Sprintf("block %s is replicated across the fleet but grew to %d facts", b.Key.Canonical(), b.Size())
					return fp
				}
			}
		}
	}
	cost := make([]int64, len(c.workers))
	for ci := range plan.Components {
		if w := compWorker[ci]; w >= 0 {
			cost[w] += plan.Components[ci].Cost
		}
	}
	for _, cst := range cost {
		if cst > fp.maxCost {
			fp.maxCost = cst
		}
	}
	fp.ok = true
	return fp
}

// fleetView is a consistent copy of everything a fan-out needs, taken
// under fmu at fan time. Because the probe holds c.mu.RLock, no delta
// batch or re-shard can run concurrently; and because the view is only
// taken when every pending queue is empty, the flusher has nothing to
// flush, so acks are frozen too.
type fleetView struct {
	epoch    uint64
	manifest *store.Manifest
	mcrc     uint64
	urls     []string
	acks     []uint64
}

// fleetReady returns the frozen fleet view, or the reason the fleet
// cannot serve a fan-out right now (a worker down, stale, or with
// deltas still in flight).
func (c *fleet) fleetReady() (*fleetView, string) {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	fv := &fleetView{
		epoch:    c.epoch,
		manifest: c.shards.Manifest,
		mcrc:     c.shards.ManifestCRC,
		urls:     make([]string, len(c.workers)),
		acks:     make([]uint64, len(c.workers)),
	}
	for s, ws := range c.workers {
		switch {
		case ws.down:
			return nil, fmt.Sprintf("worker %d (%s) is down", s, ws.url)
		case ws.stale:
			return nil, fmt.Sprintf("worker %d (%s) is stale and awaiting reload", s, ws.url)
		case len(ws.pending) > 0:
			return nil, fmt.Sprintf("worker %d (%s) has %d deltas in flight", s, ws.url, len(ws.pending))
		}
		fv.urls[s] = ws.url
		fv.acks[s] = ws.lastAck
	}
	return fv, ""
}

// partialMemo caches one worker's last verified CQSP partial, keyed by
// the same (epoch, acked-version) stamps the merge safety ladder
// checks. The memo never skips the worker round trip — every fan-out
// still contacts every worker, which is how a dead worker is discovered
// and the probe degrades to local counting — it skips the RECOUNT: the
// coordinator sends the memoized stamps as a conditional fetch and the
// worker answers 204 when its shard hasn't moved, instead of running
// CountPartial and shipping the partial again. Guarded by
// fleet.fmu; reset on re-shard.
type partialMemo struct {
	ok    bool
	epoch uint64
	ack   uint64
	p     *store.PartialFile
}

// cachedPartial returns worker s's memoized partial when its stamps
// match the frozen fleet view, nil otherwise.
func (c *fleet) cachedPartial(s int, fv *fleetView) *store.PartialFile {
	if c.cfg.CacheEntries < 0 {
		return nil
	}
	c.fmu.Lock()
	defer c.fmu.Unlock()
	m := c.parts[s]
	if m.ok && m.epoch == fv.epoch && m.ack == fv.acks[s] {
		return m.p
	}
	return nil
}

// storePartials memoizes a fully verified partial set under the fleet
// view's stamps. Only called after every partial passed the ladder.
func (c *fleet) storePartials(fv *fleetView, parts []*store.PartialFile) {
	if c.cfg.CacheEntries < 0 {
		return
	}
	c.fmu.Lock()
	for s, p := range parts {
		c.parts[s] = partialMemo{ok: true, epoch: fv.epoch, ack: fv.acks[s], p: p}
	}
	c.fmu.Unlock()
}

// integrityError is a merge-safety violation: a partial that must not be
// merged. It is never retried — the worker is marked stale and the probe
// answers a structured 502 with the given code ("stale_partial" or
// "foreign_partial").
func integrityError(code string, err error) *server.APIError {
	return &server.APIError{Status: http.StatusBadGateway, Code: code, Message: err.Error()}
}

// fanOut fetches, verifies and merges one partial per worker, returning
// the rendered exact count; an integrityError when a verified-stale or
// foreign partial surfaced (502, never merged); or an availability
// error when a worker stayed unreachable through the retry budget (the
// caller falls back to local counting). Workers whose shard hasn't
// moved since the memoized partial answer the conditional fetch with a
// cheap 204 instead of re-counting; when a cache entry is held and the
// merged result is memoized for (epoch, version), the merge itself is
// skipped too — but never the per-worker round trips, which are the
// fleet's failure detector.
func (c *fleet) fanOut(ctx context.Context, fv *fleetView, effOuter *big.Int, ent *server.CacheEntry, version uint64) (string, error) {
	parts := make([]*store.PartialFile, len(fv.urls))
	errs := make([]error, len(fv.urls))
	var wg sync.WaitGroup
	for s := range fv.urls {
		cached := c.cachedPartial(s, fv)
		have := ""
		if cached != nil {
			have = fmt.Sprintf("%d-%d", cached.Epoch, cached.Applied)
		}
		wg.Add(1)
		go func(s int, cached *store.PartialFile, have string) {
			defer wg.Done()
			p, unchanged, err := c.fetchPartial(ctx, fv.urls[s], have)
			if unchanged {
				c.stats.partialHits.Add(1)
				p = cached
			}
			parts[s], errs[s] = p, err
		}(s, cached, have)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			c.markDown(s)
			return "", fmt.Errorf("worker %d (%s): %w", s, fv.urls[s], err)
		}
	}
	// Memoized partials run the ladder again too: the stamps are cheap
	// comparisons, and keeping every merged partial ladder-verified at
	// merge time is what makes the memo safe to trust.
	for s, p := range parts {
		if err := c.verifyPartial(fv, s, p); err != nil {
			c.stats.integrity.Add(1)
			c.markStale(s)
			return "", err
		}
	}
	c.storePartials(fv, parts)
	// Partials at matching stamps are deterministic, so a memoized merge
	// for this (epoch, version) is the same product — skip recombining
	// and re-rendering it.
	if ent != nil {
		if res, ok := ent.Result(server.ResultFan, fv.epoch, version); ok {
			return res.Str, nil
		}
	}
	rp := make([]*repairs.Partial, len(parts))
	for s, p := range parts {
		rp[s] = &repairs.Partial{Inner: p.Inner, NonEnt: p.NonEnt}
	}
	n := repairs.CombinePartials(effOuter, rp)
	str := n.String()
	if ent != nil {
		ent.StoreResult(server.ResultFan, fv.epoch, version, server.CachedResult{N: n, Str: str})
	}
	return str, nil
}

// verifyPartial runs the merge safety ladder on one fetched partial:
// the offline digest gate, then the epoch stamp, then the applied stamp.
func (c *fleet) verifyPartial(fv *fleetView, s int, p *store.PartialFile) error {
	if err := store.CheckPartial(fv.manifest, fv.mcrc, p); err != nil {
		return integrityError("foreign_partial", err)
	}
	if p.Shard != s {
		return integrityError("foreign_partial", fmt.Errorf("worker %d returned a partial for shard %d", s, p.Shard))
	}
	if p.Epoch != fv.epoch {
		return integrityError("stale_partial", fmt.Errorf("worker %d answered under epoch %d, fleet is at %d", s, p.Epoch, fv.epoch))
	}
	if p.Applied != fv.acks[s] {
		return integrityError("stale_partial", fmt.Errorf("worker %d counted at version %d, last acked delta was %d", s, p.Applied, fv.acks[s]))
	}
	return nil
}

// fetchPartial GETs one worker's partial with bounded retries: doubling
// backoff between attempts, and a per-attempt timeout that abandons a
// slow attempt and re-fires (abandon-and-refire hedging). A non-empty
// have carries the memoized partial's "epoch-applied" stamps as a
// conditional fetch; unchanged reports the worker's 204 answer (shard
// state still at those stamps, no partial body shipped).
func (c *fleet) fetchPartial(ctx context.Context, url, have string) (*store.PartialFile, bool, error) {
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < c.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, false, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		actx, cancel := context.WithTimeout(ctx, c.cfg.HedgeAfter)
		p, unchanged, err := c.getPartial(actx, url, have)
		cancel()
		if err == nil {
			return p, unchanged, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
	}
	return nil, false, lastErr
}

func (c *fleet) getPartial(ctx context.Context, url, have string) (*store.PartialFile, bool, error) {
	target := url + "/v1/partial"
	if have != "" {
		target += "?have=" + have
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode == http.StatusNoContent {
		return nil, true, nil
	}
	if !statusOK(resp.StatusCode) {
		return nil, false, decodeError(resp.StatusCode, body)
	}
	p, err := store.DecodePartial(body)
	return p, false, err
}

func (c *fleet) markDown(s int) {
	c.fmu.Lock()
	c.workers[s].down = true
	c.fmu.Unlock()
}

func (c *fleet) markStale(s int) {
	c.fmu.Lock()
	c.workers[s].stale = true
	c.fmu.Unlock()
}
