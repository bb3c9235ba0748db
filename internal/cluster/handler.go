package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"

	"repaircount"
	"repaircount/internal/server"
)

// The coordinator serves the probe API through internal/server's one
// pipeline; this file is its fleet hook. The hook claims counts of the
// partition query and fans them out to the workers when the fan-out is
// sound, the fleet is synced, and the exact rung fits on the FLEET
// CRITICAL PATH (the max over workers of their components' summed
// planned cost) rather than the local plan total, because shards count
// in parallel. Every other probe, and every claimed count the fleet
// declines, is served by the pipeline on the coordinator's own snapshot
// — the cluster never answers worse than a single node.

// Claims reports whether qs is the partition query, by canonical
// rendering.
func (c *fleet) Claims(qs string) bool {
	if qs == c.cfg.Query || qs == c.qs {
		return true
	}
	q, err := repaircount.ParseQuery(qs)
	if err != nil {
		return false
	}
	return fmt.Sprintf("%s", q) == c.qs
}

// route decides whether a partition count at version fans out: the fan
// plan must be sound, the fleet synced and healthy, and the critical
// path within the exact budget. It returns the plan, the frozen fleet
// view and the fleet's exact admission, or the reason to count locally.
func (c *fleet) route(l server.Ladder, version uint64) (*fanPlan, *fleetView, server.Admission, string) {
	fp := c.currentFanPlan(version)
	if !fp.ok {
		return fp, nil, server.Admission{}, fp.reason
	}
	fv, reason := c.fleetReady()
	if reason != "" {
		return fp, nil, server.Admission{}, reason
	}
	adm, ok := l.PriceCost(fp.maxCost)
	if !ok {
		return fp, nil, adm, fmt.Sprintf("fleet critical path costs %d, over the exact budget %d", fp.maxCost, l.ExactBudget)
	}
	return fp, fv, adm, ""
}

// Count serves a partition count by fan-out, or declines with the
// reason (a server.Fallback) when it must be counted locally.
func (c *fleet) Count(ctx context.Context, ent *server.CacheEntry, l server.Ladder, version uint64) (string, map[string]any, error) {
	fp, fv, _, reason := c.route(l, version)
	if reason == "" {
		str, err := c.fanOut(ctx, fv, fp.effOuter, ent, version)
		var ae *server.APIError
		switch {
		case err == nil:
			c.stats.fanouts.Add(1)
			return str, map[string]any{"engine": "fanout", "k": len(c.workers)}, nil
		case ctx.Err() != nil || errors.As(err, &ae):
			// A verified-stale or foreign partial: refusing loudly is the
			// contract — merging it could miscount.
			return "", nil, err
		}
		// Availability: a worker stayed down through the retry budget.
		// Degrade to local counting — still exact.
		reason = err.Error()
		fmt.Fprintf(os.Stderr, "cluster: fan-out failed, serving locally: %v\n", err)
	}
	c.stats.localFallback.Add(1)
	return "", nil, server.Fallback(reason)
}

// Explain reports whether a partition count would fan out, the fleet
// critical-path cost that prices it, and otherwise why not.
func (c *fleet) Explain(l server.Ladder, version uint64, body map[string]any) (server.Admission, bool) {
	fp, _, adm, reason := c.route(l, version)
	body["fanout"] = reason == ""
	if fp.ok {
		body["fleet_cost"] = fp.maxCost
	}
	if reason != "" {
		body["fanout_reason"] = reason
		return adm, false
	}
	return adm, true
}

// Stats adds the fleet book and the fleet counters to /v1/stats.
func (c *fleet) Stats(body map[string]any) {
	c.fmu.Lock()
	workers := make([]map[string]any, len(c.workers))
	for s, ws := range c.workers {
		workers[s] = map[string]any{
			"url": ws.url, "down": ws.down, "stale": ws.stale,
			"last_ack": ws.lastAck, "pending": len(ws.pending),
		}
	}
	body["manifest"] = fmt.Sprintf("%016x", c.shards.ManifestCRC)
	c.fmu.Unlock()
	body["k"] = len(c.workers)
	body["workers"] = workers
	body["fanout_probes"] = c.stats.fanouts.Load()
	body["local_fallback"] = c.stats.localFallback.Load()
	body["integrity_errors"] = c.stats.integrity.Load()
	body["reshards"] = c.stats.reshards.Load()
	body["partial_hits"] = c.stats.partialHits.Load()
}
