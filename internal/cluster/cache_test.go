package cluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repaircount/internal/cluster"
	"repaircount/internal/server"
	"repaircount/internal/workload"
)

// getURL fetches an absolute URL (a worker peer, not the coordinator
// front end) and decodes the JSON body.
func getURL(t *testing.T, u string) map[string]any {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("bad JSON %q: %v", raw, err)
	}
	return body
}

// TestCacheDifferentialCluster pins the coordinator's probe cache to the
// uncached coordinator byte for byte across live re-shards: two fleets
// over identical snapshot and ops copies evolve in lockstep one op at a
// time under CompactBytes: 1 (every batch re-shards, so cut epochs move),
// and after every step the raw body of every probe shape must be
// identical — including the memoized second probe of the cached fleet.
// It then pins the conditional partial fetches: a quiet fleet answers
// repeat fan-outs with 204 skips, the coordinator substitutes memoized
// partials, and both sides of that hand-off leave counters behind.
func TestCacheDifferentialCluster(t *testing.T) {
	db, ks, q := workload.MultiComponent(6, 8, 2)
	qs := q.String()
	atom := "C0('k0', 'v0')"

	mk := func(entries int) (*httptest.Server, string, []string) {
		dir := t.TempDir()
		path := writeSnapshot(t, dir, db, ks)
		opsPath := filepath.Join(dir, "updates.ops")
		if err := os.WriteFile(opsPath, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		peers := startWorkers(t, 4)
		_, ts := startCoordinator(t, cluster.Config{
			Config: server.Config{
				SnapshotPath: path,
				OpsPath:      opsPath,
				CompactBytes: 1, // every applied batch re-shards the fleet
				CacheEntries: entries,
			},
			Query:    qs,
			Peers:    peers,
			ShardDir: t.TempDir(),
		})
		return ts, opsPath, peers
	}
	cached, opsA, peers := mk(0)
	plain, opsB, _ := mk(-1)

	probes := []string{
		countURL(qs),                  // fan-out path
		countURL(qs) + "&format=text", // text tail of the same
		countURL(atom),                // local path
		"/v1/decide?q=" + url.QueryEscape(qs),
		"/v1/total",
	}
	compare := func(step int) {
		t.Helper()
		for _, p := range probes {
			sc, _, want := get(t, plain, p)
			sc2, _, got := get(t, cached, p)
			if sc != http.StatusOK || sc2 != http.StatusOK {
				t.Fatalf("step %d probe %s: status %d vs %d", step, p, sc, sc2)
			}
			if got != want {
				t.Fatalf("step %d probe %s: cached %q, uncached %q", step, p, got, want)
			}
			_, _, hit := get(t, cached, p)
			if hit != want {
				t.Fatalf("step %d probe %s: cache hit %q, uncached %q", step, p, hit, want)
			}
		}
	}

	compare(0)
	rng := rand.New(rand.NewPCG(21, 22))
	ops := workload.UpdateStream(rng, db, ks, 6, 0.6)
	var written int64
	for i, op := range ops {
		var sb strings.Builder
		if err := workload.FormatUpdates(&sb, []workload.Update{op}); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{opsA, opsB} {
			f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(sb.String()); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		written += int64(sb.Len())
		// Lockstep: both fleets drain the op and settle on the fresh cut
		// before the next op is written, so version and epoch trajectories
		// stay identical and the bodies can be compared raw.
		for _, ts := range []*httptest.Server{cached, plain} {
			waitStats(t, ts, fmt.Sprintf("op %d drained", i+1), fleetSynced(written))
		}
		_, stA, _ := get(t, cached, "/v1/stats")
		_, stB, _ := get(t, plain, "/v1/stats")
		if stA["epoch"] != stB["epoch"] {
			t.Fatalf("step %d: cut epochs diverged (%v vs %v); the differential is void", i+1, stA["epoch"], stB["epoch"])
		}
		compare(i + 1)
	}

	// The quiet fleet serves repeat fan-outs by 204-skipping unchanged
	// shards: the coordinator substitutes its memoized partials (still
	// digest-verified) and counts the reuse.
	if sc, body, _ := get(t, cached, countURL(qs)); sc != http.StatusOK || body["engine"] != "fanout" {
		t.Fatalf("settled fan-out probe: status %d body %v", sc, body)
	}
	_, st, _ := get(t, cached, "/v1/stats")
	if st["partial_hits"].(float64) == 0 {
		t.Fatalf("no partial reuse after repeat fan-outs over a quiet fleet: %v", st)
	}
	if st["cache_hits"].(float64) == 0 || st["cache_misses"].(float64) == 0 {
		t.Fatalf("coordinator cache counters did not move: %v", st)
	}
	var skips float64
	for _, p := range peers {
		skips += getURL(t, p+"/v1/stats")["partial_skips"].(float64)
	}
	if skips == 0 {
		t.Fatalf("no worker reported a 204 partial skip despite %v coordinator partial hits", st["partial_hits"])
	}
}
