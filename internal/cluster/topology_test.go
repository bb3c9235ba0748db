package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repaircount"
	"repaircount/internal/cluster"
	"repaircount/internal/core"
	"repaircount/internal/relational"
	"repaircount/internal/server"
	"repaircount/internal/workload"
)

// topology is one way of serving a snapshot: the single-node daemon, or
// a coordinator over two shard workers with the given partition query.
type topology struct {
	name  string
	start func(t *testing.T, path, partition string, cfg server.Config) *httptest.Server
}

var topologies = []topology{
	{"daemon", func(t *testing.T, path, _ string, cfg server.Config) *httptest.Server {
		cfg.SnapshotPath = path
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		return ts
	}},
	{"coordinator", func(t *testing.T, path, partition string, cfg server.Config) *httptest.Server {
		cfg.SnapshotPath = path
		_, ts := startCoordinator(t, cluster.Config{
			Config:   cfg,
			Query:    partition,
			Peers:    startWorkers(t, 2),
			ShardDir: t.TempDir(),
		})
		return ts
	}},
}

// copySnapshot gives one server its own copy of the fixture file.
func copySnapshot(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "snap.cqs")
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// disjunction is the MultiComponent query over components [lo, hi).
func disjunction(lo, hi int) string {
	var parts []string
	for c := lo; c < hi; c++ {
		parts = append(parts, fmt.Sprintf("(exists x, y . (C%d(x, 'v0') & C%d(y, 'v1')))", c, c))
	}
	return strings.Join(parts, " | ")
}

// planBudget is the planner's priced exact work for qs on a fresh counter.
func planBudget(t *testing.T, db *relational.Database, ks *relational.KeySet, qs string) int64 {
	t.Helper()
	q, err := repaircount.ParseQuery(qs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := repaircount.NewCounter(db, ks, q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.ExplainPlan(repaircount.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Budget
}

// TestTopologyDifferential serves one snapshot from the daemon and from
// a coordinator over two workers with the same configuration. Every
// probe of a non-partition query — exact, FPRAS and refused counts,
// decide, explain, total, prob, rank and the text format — must answer
// the same status and the same body on both, up to the epoch, which
// both must report (the daemon's counts compactions, the coordinator's
// shard-set cuts). The partition query's fanned count must equal the
// daemon's.
func TestTopologyDifferential(t *testing.T) {
	db, ks, _ := workload.MultiComponent(4, 6, 2)
	fixture := writeSnapshot(t, t.TempDir(), db, ks)
	partition, wide := disjunction(0, 2), disjunction(0, 4)
	const atom, nonEP = "exists x . C0(x, 'v0')", "!C0('k0', 'v0')"
	// The exact budget admits the partition query's local plan but not
	// the wider query's, which therefore lands on the FPRAS rung.
	budget := planBudget(t, db, ks, partition)
	if wb := planBudget(t, db, ks, wide); wb <= budget {
		t.Fatalf("fixture premise: wide plan %d does not exceed the partition plan %d", wb, budget)
	}
	cfg := server.Config{ExactBudget: budget}
	var servers []*httptest.Server
	for _, tp := range topologies {
		servers = append(servers, tp.start(t, copySnapshot(t, fixture), partition, cfg))
	}

	q := url.QueryEscape
	probes := []struct {
		path   string
		status int
		want   string // substring of the daemon's body pinning the rung
	}{
		{"/v1/count?q=" + q(wide), http.StatusOK, `"mode":"approx"`},
		{"/v1/count?q=" + q(atom), http.StatusOK, `"mode":"exact"`},
		{"/v1/count?q=" + q(atom), http.StatusOK, `"mode":"exact"`}, // cache hit
		{"/v1/count?format=text&q=" + q(atom), http.StatusOK, ""},
		{"/v1/count?q=" + q(nonEP), http.StatusTooManyRequests, `"budget_exceeded"`},
		{"/v1/count?q=" + q("exists x . C0(x"), http.StatusBadRequest, `"bad_query"`},
		{"/v1/decide?q=" + q(atom), http.StatusOK, `"entailed":true`},
		{"/v1/explain?q=" + q(atom), http.StatusOK, `"admission":"exact"`},
		{"/v1/explain?q=" + q(wide), http.StatusOK, `"admission":"approx"`},
		{"/v1/explain?q=" + q(nonEP), http.StatusOK, `"admission":"reject"`},
		{"/v1/total", http.StatusOK, `"total"`},
		{"/v1/total?format=text", http.StatusOK, ""},
		{"/v1/prob?q=" + q(atom), http.StatusOK, `"prob_lo"`},
		{"/v1/prob?q=" + q(nonEP), http.StatusTooManyRequests, `"budget_exceeded"`},
		{"/v1/rank?q=" + q("C0(x, 'v0')"), http.StatusOK, `"answers"`},
	}
	for _, p := range probes {
		var bodies []string
		for i, ts := range servers {
			status, body, raw := get(t, ts, p.path)
			if status != p.status {
				t.Fatalf("%s on the %s: status %d, want %d: %s", p.path, topologies[i].name, status, p.status, raw)
			}
			if status == http.StatusOK && body != nil {
				if _, ok := body["epoch"]; !ok {
					t.Errorf("%s on the %s: no epoch in %s", p.path, topologies[i].name, raw)
				}
				delete(body, "epoch")
				b, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				raw = string(b)
			}
			bodies = append(bodies, raw)
		}
		if !strings.Contains(bodies[0], p.want) {
			t.Errorf("%s: the daemon answered %s, want it to contain %s", p.path, bodies[0], p.want)
		}
		if bodies[0] != bodies[1] {
			t.Errorf("%s: daemon and coordinator differ:\n  daemon:      %s\n  coordinator: %s", p.path, bodies[0], bodies[1])
		}
	}

	_, daemon, _ := get(t, servers[0], countURL(partition))
	_, fanned, _ := get(t, servers[1], countURL(partition))
	if daemon["mode"] != "exact" || fanned["engine"] != "fanout" || fanned["count"] != daemon["count"] {
		t.Fatalf("partition count: daemon %v, coordinator %v", daemon, fanned)
	}
}

// holdProbe sends a probe that runs until canceled and returns once the
// server has counted n probes, so the probe holds a slot or a queue
// place. The returned func cancels it and waits for the answer.
func holdProbe(t *testing.T, ts *httptest.Server, path string, n float64) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitStats(t, ts, fmt.Sprintf("%v probes admitted", n), func(st map[string]any) bool { return st["probes"] == n })
	time.Sleep(20 * time.Millisecond) // past the counter, into the slot or the queue
	return func() {
		cancel()
		wg.Wait()
	}
}

// TestTopologyOverloadAndDeadline pins the probe gate on both
// topologies: a full queue answers 503 overloaded, and a 1ns deadline
// answers 504 deadline_exceeded.
func TestTopologyOverloadAndDeadline(t *testing.T) {
	db, ks, _ := workload.MultiComponent(6, 8, 2)
	fixture := writeSnapshot(t, t.TempDir(), db, ks)
	partition := disjunction(0, 3)
	// Forced onto the FPRAS at ε = 0.03, the wide query draws some 3·10^7
	// samples: it runs until its context ends.
	slow := countURL(disjunction(0, 6))
	sampling := server.Config{ExactBudget: 1, Eps: 0.03}
	for _, tp := range topologies {
		t.Run(tp.name, func(t *testing.T) {
			cfg := sampling
			cfg.Deadline = time.Nanosecond
			ts := tp.start(t, copySnapshot(t, fixture), partition, cfg)
			if status, body, _ := get(t, ts, slow); status != http.StatusGatewayTimeout || errCode(t, body) != "deadline_exceeded" {
				t.Fatalf("1ns deadline: status %d body %v, want 504 deadline_exceeded", status, body)
			}

			cfg = sampling
			cfg.Workers, cfg.QueueDepth = 1, 1
			ts = tp.start(t, copySnapshot(t, fixture), partition, cfg)
			running := holdProbe(t, ts, slow, 1)
			queued := holdProbe(t, ts, slow, 2)
			status, body, _ := get(t, ts, "/v1/total")
			queued()
			running()
			if status != http.StatusServiceUnavailable || errCode(t, body) != "overloaded" {
				t.Fatalf("full queue: status %d body %v, want 503 overloaded", status, body)
			}
		})
	}
}

// TestTopologySampleBoundCap pins the FPRAS rung's ceiling on both
// topologies: a -max-samples above the sampler's own cap is clamped to
// it, so a probe whose Theorem 6.2 bound exceeds the cap is refused with
// a structured 429 reporting the bound — not admitted and then failed by
// the sampler with a 500.
func TestTopologySampleBoundCap(t *testing.T) {
	db, ks, _ := workload.MultiComponent(6, 8, 2)
	fixture := writeSnapshot(t, t.TempDir(), db, ks)
	partition := disjunction(0, 3)
	cfg := server.Config{ExactBudget: 1, Eps: 1e-4, MaxSamples: 1 << 50}
	for _, tp := range topologies {
		t.Run(tp.name, func(t *testing.T) {
			ts := tp.start(t, copySnapshot(t, fixture), partition, cfg)
			status, body, raw := get(t, ts, countURL(disjunction(0, 6)))
			if status != http.StatusTooManyRequests || errCode(t, body) != "budget_exceeded" {
				t.Fatalf("status %d, want 429 budget_exceeded: %s", status, raw)
			}
			e := body["error"].(map[string]any)
			if e["sample_bound"] == nil || e["max_samples"] != float64(core.MaxApxSamples) {
				t.Fatalf("refusal lacks the sample bound or the clamped cap %d: %s", core.MaxApxSamples, raw)
			}
		})
	}
}

// TestWorkerContextErrors pins the worker's answer to a probe whose
// context ended mid-count: 499 canceled when the client went away, 504
// only when the deadline expired.
func TestWorkerContextErrors(t *testing.T) {
	// One IE-heavy component: the shard's partial is a ~100ms count, so
	// the stop flag always lands before it finishes.
	db, ks, q := workload.IEHeavy(1, 24, 18)
	dir := t.TempDir()
	w, err := cluster.NewWorker(cluster.WorkerConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ws := httptest.NewServer(w.Handler())
	t.Cleanup(func() {
		ws.Close()
		w.Close()
	})
	startCoordinator(t, cluster.Config{
		Config:   server.Config{SnapshotPath: writeSnapshot(t, t.TempDir(), db, ks)},
		Query:    q.String(),
		Peers:    []string{ws.URL},
		ShardDir: t.TempDir(),
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/partial", nil).WithContext(ctx))
	if rec.Code != 499 || !strings.Contains(rec.Body.String(), `"canceled"`) {
		t.Fatalf("canceled partial: status %d body %s, want 499 canceled", rec.Code, rec.Body)
	}

	// A worker restarted on the same state directory re-assumes the
	// shard from its sidecar; with a 1ns deadline its partial expires.
	w2, err := cluster.NewWorker(cluster.WorkerConfig{Dir: dir, Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w2.Close() })
	rec = httptest.NewRecorder()
	w2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/partial", nil))
	if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), `"deadline_exceeded"`) {
		t.Fatalf("expired partial: status %d body %s, want 504 deadline_exceeded", rec.Code, rec.Body)
	}
}
