package cluster_test

import (
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repaircount/internal/cluster"
	"repaircount/internal/server"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// restartableWorker serves a worker on a fixed address so the test can
// kill it and bring it back on the same URL, like a crashed process
// restarting on its configured port.
type restartableWorker struct {
	t    *testing.T
	w    *cluster.Worker
	dir  string
	addr string
	srv  *http.Server
}

func startRestartable(t *testing.T) *restartableWorker {
	t.Helper()
	dir := t.TempDir()
	w, err := cluster.NewWorker(cluster.WorkerConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rw := &restartableWorker{t: t, w: w, dir: dir, addr: l.Addr().String()}
	rw.srv = &http.Server{Handler: w.Handler()}
	go rw.srv.Serve(l)
	t.Cleanup(func() {
		rw.srv.Close()
		rw.w.Close()
	})
	return rw
}

func (rw *restartableWorker) url() string { return "http://" + rw.addr }

// kill closes the listener and the worker, as abruptly as in-process
// code can.
func (rw *restartableWorker) kill() {
	rw.srv.Close()
	rw.w.Close()
}

// restart brings a fresh worker process back on the same address and
// state directory; the assignment sidecar re-assumes the shard without
// any coordinator help.
func (rw *restartableWorker) restart() {
	rw.t.Helper()
	w, err := cluster.NewWorker(cluster.WorkerConfig{Dir: rw.dir})
	if err != nil {
		rw.t.Fatal(err)
	}
	var l net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err = net.Listen("tcp", rw.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			rw.t.Fatalf("rebinding %s: %v", rw.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	rw.w = w
	rw.srv = &http.Server{Handler: w.Handler()}
	go rw.srv.Serve(l)
}

// TestWorkerDownDegradesAndRecovers kills one worker, verifies probes
// degrade to exact local counting with the fleet marked down, restarts
// the worker on the same address, and verifies the maintenance loop
// heals it back into fan-out service — every answer along the way exact.
func TestWorkerDownDegradesAndRecovers(t *testing.T) {
	db, ks, q := workload.MultiComponent(4, 6, 2)
	qs := q.String()
	path := writeSnapshot(t, t.TempDir(), db, ks)
	want := offlineCount(t, db, ks, qs)

	victim := startRestartable(t)
	peers := append(startWorkers(t, 3), victim.url())
	_, ts := startCoordinator(t, cluster.Config{
		Config:   server.Config{SnapshotPath: path},
		Query:    qs,
		Peers:    peers,
		ShardDir: t.TempDir(),
	})

	// Healthy fleet serves by fan-out.
	status, body, _ := get(t, ts, countURL(qs))
	if status != http.StatusOK || body["count"] != want.String() || body["engine"] != "fanout" {
		t.Fatalf("healthy count: status %d body %v, want fanned %s", status, body, want)
	}

	// Kill the worker. The probe retries, marks it down, and degrades to
	// local counting — same exact answer, never an error.
	victim.kill()
	status, body, _ = get(t, ts, countURL(qs))
	if status != http.StatusOK {
		t.Fatalf("degraded count: status %d: %v", status, body)
	}
	if body["mode"] != "exact" || body["count"] != want.String() {
		t.Fatalf("degraded count: got %v, want exact %s", body, want)
	}
	if body["engine"] != "local" {
		t.Fatalf("expected a local fallback while a worker is down: %v", body)
	}
	waitStats(t, ts, "victim to be marked down", func(st map[string]any) bool {
		for _, wi := range st["workers"].([]any) {
			w := wi.(map[string]any)
			if w["url"] == victim.url() {
				return w["down"] == true
			}
		}
		return false
	})

	// Restart on the same address: the maintenance loop reloads it and
	// the fleet serves fan-outs again.
	victim.restart()
	waitStats(t, ts, "victim to be healed", func(st map[string]any) bool {
		for _, wi := range st["workers"].([]any) {
			w := wi.(map[string]any)
			if w["url"] == victim.url() {
				return w["down"] == false && w["stale"] == false
			}
		}
		return false
	})
	status, body, _ = get(t, ts, countURL(qs))
	if status != http.StatusOK || body["count"] != want.String() || body["engine"] != "fanout" {
		t.Fatalf("recovered count: status %d body %v, want fanned %s", status, body, want)
	}
}

// tamperingProxy wraps a real worker handler but rewrites every partial
// it serves with the given mutation — a stand-in for a worker answering
// from the wrong epoch or the wrong shard set.
func tamperingProxy(t *testing.T, tamper func(p *store.PartialFile)) string {
	t.Helper()
	w, err := cluster.NewWorker(cluster.WorkerConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	inner := w.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/partial" {
			inner.ServeHTTP(rw, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			rw.WriteHeader(rec.Code)
			rw.Write(rec.Body.Bytes())
			return
		}
		p, err := store.DecodePartial(rec.Body.Bytes())
		if err != nil {
			t.Errorf("proxy: decoding real partial: %v", err)
			rw.WriteHeader(http.StatusInternalServerError)
			return
		}
		tamper(p)
		body, err := store.EncodePartial(p)
		if err != nil {
			t.Errorf("proxy: re-encoding partial: %v", err)
			rw.WriteHeader(http.StatusInternalServerError)
			return
		}
		rw.Header().Set("Content-Type", "text/plain")
		rw.Write(body)
	}))
	t.Cleanup(func() {
		ts.Close()
		w.Close()
	})
	return ts.URL
}

// TestStaleEpochPartialRefused pins the merge safety ladder: a partial
// carrying the wrong epoch stamp is a loud 502, never a miscount.
func TestStaleEpochPartialRefused(t *testing.T) {
	db, ks, q := workload.MultiComponent(3, 4, 2)
	qs := q.String()
	path := writeSnapshot(t, t.TempDir(), db, ks)

	peers := []string{startWorkers(t, 1)[0], tamperingProxy(t, func(p *store.PartialFile) {
		p.Epoch++
	})}
	_, ts := startCoordinator(t, cluster.Config{
		Config:   server.Config{SnapshotPath: path},
		Query:    qs,
		Peers:    peers,
		ShardDir: t.TempDir(),
	})

	status, body, _ := get(t, ts, countURL(qs))
	if status != http.StatusBadGateway {
		t.Fatalf("stale-epoch partial: status %d body %v, want 502", status, body)
	}
	if code := errCode(t, body); code != "stale_partial" {
		t.Fatalf("stale-epoch partial: code %q, want stale_partial", code)
	}
}

// TestForeignManifestPartialRefused pins the same ladder one rung lower:
// a partial produced under a different manifest (a mixed shard set)
// fails the digest gate with a loud 502.
func TestForeignManifestPartialRefused(t *testing.T) {
	db, ks, q := workload.MultiComponent(3, 4, 2)
	qs := q.String()
	path := writeSnapshot(t, t.TempDir(), db, ks)

	peers := []string{startWorkers(t, 1)[0], tamperingProxy(t, func(p *store.PartialFile) {
		p.ManifestCRC ^= 0xdecade
	})}
	_, ts := startCoordinator(t, cluster.Config{
		Config:   server.Config{SnapshotPath: path},
		Query:    qs,
		Peers:    peers,
		ShardDir: t.TempDir(),
	})

	status, body, _ := get(t, ts, countURL(qs))
	if status != http.StatusBadGateway {
		t.Fatalf("foreign partial: status %d body %v, want 502", status, body)
	}
	if code := errCode(t, body); code != "foreign_partial" {
		t.Fatalf("foreign partial: code %q, want foreign_partial", code)
	}
}

// TestStalePartialAfterUnackedDelta pins the applied stamp: a worker
// whose partial does not reflect the last acked delta batch is refused.
// The tampering proxy decrements the applied stamp to simulate a worker
// that silently lost its journal tail.
func TestStalePartialAfterUnackedDelta(t *testing.T) {
	db, ks, q := workload.MultiComponent(3, 4, 2)
	qs := q.String()
	path := writeSnapshot(t, t.TempDir(), db, ks)

	peers := []string{startWorkers(t, 1)[0], tamperingProxy(t, func(p *store.PartialFile) {
		p.Applied += 3
	})}
	_, ts := startCoordinator(t, cluster.Config{
		Config:   server.Config{SnapshotPath: path},
		Query:    qs,
		Peers:    peers,
		ShardDir: t.TempDir(),
	})

	status, body, _ := get(t, ts, countURL(qs))
	if status != http.StatusBadGateway {
		t.Fatalf("unsynced partial: status %d body %v, want 502", status, body)
	}
	if code := errCode(t, body); code != "stale_partial" {
		t.Fatalf("unsynced partial: code %q, want stale_partial", code)
	}
}
