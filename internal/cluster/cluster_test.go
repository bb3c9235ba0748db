package cluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repaircount"
	"repaircount/internal/cluster"
	"repaircount/internal/relational"
	"repaircount/internal/server"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// writeSnapshot drops a fresh .cqs fixture for db under dir.
func writeSnapshot(t *testing.T, dir string, db *relational.Database, ks *relational.KeySet) string {
	t.Helper()
	path := filepath.Join(dir, "snap.cqs")
	if err := store.WriteFile(path, db, ks); err != nil {
		t.Fatal(err)
	}
	return path
}

// startWorkers boots k shard workers on httptest listeners and returns
// their peer URLs.
func startWorkers(t *testing.T, k int) []string {
	t.Helper()
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(func() {
			ts.Close()
			w.Close()
		})
		urls[i] = ts.URL
	}
	return urls
}

// startCoordinator boots a coordinator plus its httptest front end.
func startCoordinator(t *testing.T, cfg cluster.Config) (*cluster.Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Poll == 0 {
		cfg.Poll = 20 * time.Millisecond
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts
}

func get(t *testing.T, ts *httptest.Server, path string) (int, map[string]any, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("bad JSON %q: %v", raw, err)
		}
	}
	return resp.StatusCode, body, string(raw)
}

func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error object in %v", body)
	}
	code, _ := e["code"].(string)
	return code
}

func countURL(q string) string { return "/v1/count?q=" + url.QueryEscape(q) }

// offlineCount is the unsharded ground truth for the current db state.
func offlineCount(t *testing.T, db *relational.Database, ks *relational.KeySet, qs string) *big.Int {
	t.Helper()
	q, err := repaircount.ParseQuery(qs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := repaircount.NewCounter(db, ks, q)
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := c.Count()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// waitStats polls /v1/stats until cond is satisfied.
func waitStats(t *testing.T, ts *httptest.Server, what string, cond func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var st map[string]any
	for time.Now().Before(deadline) {
		_, st, _ = get(t, ts, "/v1/stats")
		if cond(st) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats: %v", what, st)
	return nil
}

// fleetSynced reports every worker healthy with an empty delta queue and
// the ops file fully consumed.
func fleetSynced(opsBytes int64) func(map[string]any) bool {
	return func(st map[string]any) bool {
		if st["ops_offset"] != float64(opsBytes) {
			return false
		}
		ws, _ := st["workers"].([]any)
		for _, wi := range ws {
			w := wi.(map[string]any)
			if w["down"] == true || w["stale"] == true || w["pending"] != float64(0) {
				return false
			}
		}
		return true
	}
}

// corpora are the differential-test instances: the factorized benchmark
// corpus, an inclusion-exclusion-heavy one, and a skewed one where LPT
// balancing actually matters.
func corpora() map[string]func() (*relational.Database, *relational.KeySet, string) {
	return map[string]func() (*relational.Database, *relational.KeySet, string){
		"MultiComponent": func() (*relational.Database, *relational.KeySet, string) {
			db, ks, q := workload.MultiComponent(6, 8, 2)
			return db, ks, q.String()
		},
		"IEHeavy": func() (*relational.Database, *relational.KeySet, string) {
			db, ks, q := workload.IEHeavy(3, 6, 2)
			return db, ks, q.String()
		},
		"SkewedComponents": func() (*relational.Database, *relational.KeySet, string) {
			db, ks, q := workload.SkewedComponents(4, 8, 1.2)
			return db, ks, q.String()
		},
	}
}

// TestDifferentialFanout pins coordinator counts bit-identical to the
// unsharded engine for K ∈ {1, 2, 4, 8} over every corpus, and verifies
// the counts actually came from the fleet, not a silent local fallback.
func TestDifferentialFanout(t *testing.T) {
	for name, mk := range corpora() {
		t.Run(name, func(t *testing.T) {
			db, ks, qs := mk()
			want := offlineCount(t, db, ks, qs)
			for _, k := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
					path := writeSnapshot(t, t.TempDir(), db, ks)
					peers := startWorkers(t, k)
					_, ts := startCoordinator(t, cluster.Config{
						Config:   server.Config{SnapshotPath: path},
						Query:    qs,
						Peers:    peers,
						ShardDir: t.TempDir(),
					})
					status, body, _ := get(t, ts, countURL(qs))
					if status != http.StatusOK {
						t.Fatalf("count: status %d: %v", status, body)
					}
					if body["mode"] != "exact" || body["count"] != want.String() {
						t.Fatalf("count: got %v, want exact %s", body, want)
					}
					if body["engine"] != "fanout" {
						t.Fatalf("count was not served by the fleet: %v", body)
					}
					_, st, _ := get(t, ts, "/v1/stats")
					if st["fanout_probes"] != float64(1) {
						t.Fatalf("expected 1 fan-out probe, stats: %v", st)
					}
				})
			}
		})
	}
}

// TestDifferentialAfterDeltas streams randomized updates through the ops
// tail and pins the post-delta coordinator count — fanned or degraded to
// local, whichever the placement validation allows — bit-identical to an
// offline counter that applied the same deltas.
func TestDifferentialAfterDeltas(t *testing.T) {
	db, ks, q := workload.MultiComponent(6, 8, 2)
	qs := q.String()
	dir := t.TempDir()
	path := writeSnapshot(t, dir, db, ks)
	opsPath := filepath.Join(dir, "updates.ops")

	peers := startWorkers(t, 4)
	_, ts := startCoordinator(t, cluster.Config{
		Config: server.Config{
			SnapshotPath: path,
			OpsPath:      opsPath,
			CompactBytes: -1, // no re-shard: the delta stream itself is under test
		},
		Query:    qs,
		Peers:    peers,
		ShardDir: t.TempDir(),
	})

	// Pre-delta: fleet-served and exact.
	want := offlineCount(t, db, ks, qs)
	status, body, _ := get(t, ts, countURL(qs))
	if status != http.StatusOK || body["count"] != want.String() || body["engine"] != "fanout" {
		t.Fatalf("pre-delta count: status %d body %v, want fanned %s", status, body, want)
	}

	// Stream a randomized update batch through the ops tail.
	rng := rand.New(rand.NewPCG(7, 8))
	ops := workload.UpdateStream(rng, db, ks, 40, 0.6)
	var sb strings.Builder
	if err := workload.FormatUpdates(&sb, ops); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opsPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	waitStats(t, ts, "delta stream to drain", fleetSynced(int64(sb.Len())))

	// Offline ground truth over the same deltas.
	qf, err := repaircount.ParseQuery(qs)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := repaircount.NewCounter(db, ks, qf)
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([]repaircount.Delta, len(ops))
	for i, op := range ops {
		if op.Del {
			deltas[i] = repaircount.Delete(op.Fact)
		} else {
			deltas[i] = repaircount.Insert(op.Fact)
		}
	}
	if _, err := oc.Apply(deltas...); err != nil {
		t.Fatal(err)
	}
	want2, _, err := oc.Count()
	if err != nil {
		t.Fatal(err)
	}

	status, body, _ = get(t, ts, countURL(qs))
	if status != http.StatusOK {
		t.Fatalf("post-delta count: status %d: %v", status, body)
	}
	if body["mode"] != "exact" || body["count"] != want2.String() {
		t.Fatalf("post-delta count: got %v, want exact %s", body, want2)
	}
}

// TestReshardOnCompaction drives the journal over its budget so the
// coordinator re-shards live: the epoch must move, the fleet must be
// re-assigned, and the next probe must fan out over the fresh cut with a
// bit-identical count.
func TestReshardOnCompaction(t *testing.T) {
	db, ks, q := workload.MultiComponent(4, 6, 2)
	qs := q.String()
	dir := t.TempDir()
	path := writeSnapshot(t, dir, db, ks)
	opsPath := filepath.Join(dir, "updates.ops")

	peers := startWorkers(t, 4)
	_, ts := startCoordinator(t, cluster.Config{
		Config: server.Config{
			SnapshotPath: path,
			OpsPath:      opsPath,
			CompactBytes: 1, // any journal byte triggers a re-shard
		},
		Query:    qs,
		Peers:    peers,
		ShardDir: t.TempDir(),
	})

	rng := rand.New(rand.NewPCG(11, 12))
	ops := workload.UpdateStream(rng, db, ks, 20, 0.5)
	var sb strings.Builder
	if err := workload.FormatUpdates(&sb, ops); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opsPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	st := waitStats(t, ts, "re-shard to settle", func(st map[string]any) bool {
		return fleetSynced(int64(sb.Len()))(st) && st["reshards"].(float64) >= 2
	})
	if st["epoch"].(float64) < 2 {
		t.Fatalf("expected the epoch to move past the initial cut, stats: %v", st)
	}

	qf, err := repaircount.ParseQuery(qs)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := repaircount.NewCounter(db, ks, qf)
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([]repaircount.Delta, len(ops))
	for i, op := range ops {
		if op.Del {
			deltas[i] = repaircount.Delete(op.Fact)
		} else {
			deltas[i] = repaircount.Insert(op.Fact)
		}
	}
	if _, err := oc.Apply(deltas...); err != nil {
		t.Fatal(err)
	}
	want, _, err := oc.Count()
	if err != nil {
		t.Fatal(err)
	}

	status, body, _ := get(t, ts, countURL(qs))
	if status != http.StatusOK || body["mode"] != "exact" || body["count"] != want.String() {
		t.Fatalf("post-reshard count: status %d body %v, want exact %s", status, body, want)
	}
	if body["engine"] != "fanout" {
		t.Fatalf("post-reshard probe did not fan out over the fresh cut: %v", body)
	}
}

// TestNonPartitionQueryServedLocally checks the coordinator serves other
// queries from its own snapshot, never the fleet.
func TestNonPartitionQueryServedLocally(t *testing.T) {
	db, ks, q := workload.MultiComponent(3, 4, 2)
	qs := q.String()
	path := writeSnapshot(t, t.TempDir(), db, ks)
	peers := startWorkers(t, 2)
	_, ts := startCoordinator(t, cluster.Config{
		Config:   server.Config{SnapshotPath: path},
		Query:    qs,
		Peers:    peers,
		ShardDir: t.TempDir(),
	})

	const other = "exists x, y . C0(x, y)"
	want := offlineCount(t, db, ks, other)
	status, body, _ := get(t, ts, countURL(other))
	if status != http.StatusOK || body["count"] != want.String() {
		t.Fatalf("local probe: status %d body %v, want %s", status, body, want)
	}
	if body["engine"] == "fanout" {
		t.Fatalf("non-partition query must not fan out: %v", body)
	}
	_, st, _ := get(t, ts, "/v1/stats")
	if st["fanout_probes"] != float64(0) {
		t.Fatalf("fleet served a non-partition query: %v", st)
	}
}
