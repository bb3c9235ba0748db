package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repaircount"
	"repaircount/internal/faultfs"
	"repaircount/internal/server"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// WorkerConfig parameterizes a shard worker. Zero values select the
// documented defaults.
type WorkerConfig struct {
	// Dir is the worker's own state directory (required): the assignment
	// sidecar lives here, so a restarted worker re-assumes its shard
	// without waiting for the coordinator.
	Dir string
	// Workers bounds concurrent partial probes (default GOMAXPROCS).
	Workers int
	// CountWorkers is the goroutine count inside one partial count
	// (default 1).
	CountWorkers int
	// QueueDepth bounds waiting probes (default 4×Workers).
	QueueDepth int
	// Deadline is the per-probe wall-clock budget (default 30s).
	Deadline time.Duration
}

func (cfg *WorkerConfig) fill() {
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
}

// assignment is one worker's current shard duty, persisted as a JSON
// sidecar (Dir/assignment.json) so a kill -9'd worker comes back
// serving the same shard.
type assignment struct {
	Epoch        uint64 `json:"epoch"`
	Shard        int    `json:"shard"`
	K            int    `json:"k"`
	ManifestPath string `json:"manifest_path"`
	ShardPath    string `json:"shard_path"`
	ManifestCRC  uint64 `json:"manifest_crc"`
}

// Worker serves one shard snapshot: partials stamped with the shard
// digest, epoch and applied version, and delta batches applied through
// the live instance and journaled to the shard file before the ack.
type Worker struct {
	cfg    WorkerConfig
	gate   *server.Gate
	health server.Health

	mu       sync.RWMutex
	asn      *assignment // nil until assigned
	snap     *repaircount.Snapshot
	manifest *store.Manifest

	stats struct {
		applies, reloads, skips atomic.Int64
	}
}

// NewWorker starts a worker. If Dir holds an assignment sidecar from a
// previous life, the shard is recovered (torn journal tails truncated)
// and reopened immediately; otherwise the worker waits unassigned for a
// coordinator /v1/reload.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg.fill()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cluster: worker Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &Worker{cfg: cfg, gate: server.NewGate(cfg.Workers, cfg.QueueDepth, cfg.Deadline)}
	asn, err := loadAssignment(w.sidecarPath())
	if err != nil {
		return nil, err
	}
	if asn != nil {
		if err := w.assume(asn); err != nil {
			// A stale sidecar (deleted epoch dir, replaced shard set) must
			// not keep the worker from starting: it waits for a reload.
			fmt.Fprintf(os.Stderr, "cluster: worker: dropping stale assignment: %v\n", err)
		}
	}
	return w, nil
}

func (w *Worker) sidecarPath() string { return filepath.Join(w.cfg.Dir, "assignment.json") }

// loadAssignment reads the sidecar; a missing file means unassigned, a
// corrupt one is dropped the same way (the coordinator re-assigns).
func loadAssignment(path string) (*assignment, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var asn assignment
	if err := json.Unmarshal(data, &asn); err != nil {
		return nil, nil
	}
	return &asn, nil
}

// assume verifies and adopts one assignment: the manifest must decode to
// the recorded digest, the shard snapshot must recover and open, and its
// sealed digest must be the one the manifest records for this shard.
// Caller must not hold w.mu.
func (w *Worker) assume(asn *assignment) error {
	m, mcrc, err := store.ReadManifestFile(asn.ManifestPath)
	if err != nil {
		return fmt.Errorf("cluster: worker reload: %w", err)
	}
	if mcrc != asn.ManifestCRC {
		return fmt.Errorf("cluster: worker reload: manifest %s hashes to %016x, assignment says %016x", asn.ManifestPath, mcrc, asn.ManifestCRC)
	}
	if asn.Shard < 0 || asn.Shard >= len(m.Shards) || asn.K != len(m.Shards) {
		return fmt.Errorf("cluster: worker reload: shard %d of %d does not fit a %d-shard manifest", asn.Shard, asn.K, len(m.Shards))
	}
	if _, err := repaircount.RecoverSnapshot(asn.ShardPath); err != nil {
		return fmt.Errorf("cluster: worker reload: recovering %s: %w", asn.ShardPath, err)
	}
	snap, err := repaircount.OpenSnapshot(asn.ShardPath)
	if err != nil {
		return fmt.Errorf("cluster: worker reload: %w", err)
	}
	if got, want := snap.Digest(), m.Shards[asn.Shard].CRC; got != want {
		snap.Close()
		return fmt.Errorf("cluster: worker reload: shard snapshot digest %016x, manifest records %016x for shard %d", got, want, asn.Shard)
	}
	w.mu.Lock()
	old := w.snap
	w.asn, w.snap, w.manifest = asn, snap, m
	w.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

// persistAssignment writes the sidecar durably (temp, fsync, rename,
// dir fsync) through faultfs so crash sweeps cover it.
func (w *Worker) persistAssignment(asn *assignment) error {
	data, err := json.Marshal(asn)
	if err != nil {
		return err
	}
	f, err := faultfs.CreateTemp(w.cfg.Dir, "assignment.json.tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(append(data, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = faultfs.Rename(tmp, w.sidecarPath())
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return faultfs.SyncDir(w.cfg.Dir)
}

// Close unmaps the shard snapshot.
func (w *Worker) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.snap == nil {
		return nil
	}
	err := w.snap.Close()
	w.snap = nil
	return err
}

// Handler routes the worker API.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/partial", w.handlePartial)
	mux.HandleFunc("/v1/apply", w.handleApply)
	mux.HandleFunc("/v1/reload", w.handleReload)
	mux.HandleFunc("/v1/stats", w.handleStats)
	mux.Handle("/healthz", &w.health)
	return mux
}

// writeUnassigned answers a probe that arrived before any reload.
func writeUnassigned(rw http.ResponseWriter) {
	server.WriteErr(rw, http.StatusServiceUnavailable,
		server.APIError{Code: "unassigned", Message: "worker has no shard assignment yet"})
}

// handlePartial counts this shard's partial and returns it as a CQSP
// version-2 body — the same digest-stamped artifact the offline merge
// consumes, plus the epoch and applied stamps the coordinator verifies.
func (w *Worker) handlePartial(rw http.ResponseWriter, r *http.Request) {
	w.gate.Run(rw, r, &w.mu, func(ctx context.Context, sl *server.Slot) {
		if w.asn == nil {
			writeUnassigned(rw)
			return
		}
		// A conditional fetch: the coordinator already holds the verified
		// partial for these stamps, so an unmoved shard answers 204 instead
		// of re-counting and re-shipping it.
		if have := r.URL.Query().Get("have"); have != "" &&
			have == fmt.Sprintf("%d-%d", w.asn.Epoch, w.snap.Version()) {
			w.stats.skips.Add(1)
			rw.WriteHeader(http.StatusNoContent)
			return
		}
		c, err := sl.Counter(w.asn.Epoch, w.manifest.Query, func(qs string) (*repaircount.Counter, error) {
			q, err := repaircount.ParseQuery(qs)
			if err != nil {
				return nil, err
			}
			return w.snap.Counter(q)
		})
		var p *repaircount.Partial
		if err == nil {
			p, err = c.CountPartialCtx(ctx, w.cfg.CountWorkers)
		}
		var body []byte
		if err == nil {
			body, err = store.EncodePartial(&store.PartialFile{
				ManifestCRC: w.asn.ManifestCRC,
				Shard:       w.asn.Shard,
				K:           w.asn.K,
				SnapshotCRC: w.snap.Digest(),
				Inner:       p.Inner,
				NonEnt:      p.NonEnt,
				Epoch:       w.asn.Epoch,
				Applied:     w.snap.Version(),
			})
		}
		switch {
		case err == nil:
			rw.Header().Set("Content-Type", "text/plain")
			rw.Write(body)
		case ctx.Err() != nil:
			w.gate.WriteCtxErr(rw, ctx)
		default:
			server.WriteErr(rw, http.StatusInternalServerError,
				server.APIError{Code: "internal", Message: err.Error()})
		}
	})
}

// handleApply applies one forwarded delta batch ("+ Fact"/"- Fact"
// lines) to the shard: ops are applied to the live instance, the ones
// that changed it are journaled to the shard file with an fsync'd
// append, and only then is the batch acked with the resulting version.
// A batch for another epoch is refused with 409 wrong_epoch so the
// coordinator knows to reload this worker first.
func (w *Worker) handleApply(rw http.ResponseWriter, r *http.Request) {
	w.stats.applies.Add(1)
	if reason := w.health.Reason(); reason != "" {
		server.WriteErr(rw, http.StatusServiceUnavailable,
			server.APIError{Code: "degraded", Message: reason})
		return
	}
	var epoch uint64
	if _, err := fmt.Sscanf(r.URL.Query().Get("epoch"), "%d", &epoch); err != nil {
		server.WriteErr(rw, http.StatusBadRequest,
			server.APIError{Code: "bad_request", Message: "missing or malformed ?epoch="})
		return
	}
	ops, err := workload.ParseUpdates(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		server.WriteErr(rw, http.StatusBadRequest,
			server.APIError{Code: "bad_request", Message: err.Error()})
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.asn == nil {
		writeUnassigned(rw)
		return
	}
	if epoch != w.asn.Epoch {
		server.WriteJSON(rw, http.StatusConflict, map[string]any{
			"error": map[string]any{
				"code":    "wrong_epoch",
				"message": fmt.Sprintf("batch is for epoch %d, worker serves %d", epoch, w.asn.Epoch),
				"epoch":   w.asn.Epoch,
			},
		})
		return
	}
	if _, err := server.ApplyJournal(w.snap, w.asn.ShardPath, ops); err != nil {
		err = fmt.Errorf("cluster: worker: %w", err)
		w.health.Degrade(err)
		server.WriteErr(rw, http.StatusInternalServerError,
			server.APIError{Code: "internal", Message: err.Error()})
		return
	}
	server.WriteJSON(rw, http.StatusOK, applyResponse{Epoch: w.asn.Epoch, Applied: w.snap.Version()})
}

// handleReload adopts a new assignment from the coordinator and persists
// it, replacing any previous shard.
func (w *Worker) handleReload(rw http.ResponseWriter, r *http.Request) {
	w.stats.reloads.Add(1)
	var req reloadRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		server.WriteErr(rw, http.StatusBadRequest,
			server.APIError{Code: "bad_request", Message: err.Error()})
		return
	}
	var mcrc uint64
	if _, err := fmt.Sscanf(req.ManifestCRC, "%x", &mcrc); err != nil {
		server.WriteErr(rw, http.StatusBadRequest,
			server.APIError{Code: "bad_request", Message: "malformed manifest_crc"})
		return
	}
	asn := &assignment{
		Epoch:        req.Epoch,
		Shard:        req.Shard,
		K:            req.K,
		ManifestPath: req.ManifestPath,
		ShardPath:    req.ShardPath,
		ManifestCRC:  mcrc,
	}
	if err := w.assume(asn); err != nil {
		server.WriteErr(rw, http.StatusUnprocessableEntity,
			server.APIError{Code: "bad_assignment", Message: err.Error()})
		return
	}
	if err := w.persistAssignment(asn); err != nil {
		w.health.Degrade(err)
		server.WriteErr(rw, http.StatusInternalServerError,
			server.APIError{Code: "internal", Message: err.Error()})
		return
	}
	w.mu.RLock()
	resp := reloadResponse{
		Epoch:    asn.Epoch,
		Shard:    asn.Shard,
		Applied:  w.snap.Version(),
		Snapshot: fmt.Sprintf("%016x", w.snap.Digest()),
	}
	w.mu.RUnlock()
	server.WriteJSON(rw, http.StatusOK, resp)
}

func (w *Worker) handleStats(rw http.ResponseWriter, r *http.Request) {
	w.mu.RLock()
	resp := map[string]any{
		"assigned":      w.asn != nil,
		"degraded":      w.health.Reason(),
		"partial_skips": w.stats.skips.Load(),
		"applies":       w.stats.applies.Load(),
		"reloads":       w.stats.reloads.Load(),
	}
	w.gate.Stats(resp)
	resp["partials"] = resp["probes"]
	if w.asn != nil {
		resp["epoch"] = w.asn.Epoch
		resp["shard"] = w.asn.Shard
		resp["k"] = w.asn.K
		resp["applied"] = w.snap.Version()
		resp["snapshot"] = fmt.Sprintf("%016x", w.snap.Digest())
		resp["manifest"] = fmt.Sprintf("%016x", w.asn.ManifestCRC)
		resp["journal_ops"] = w.snap.NumJournalOps()
	}
	w.mu.RUnlock()
	server.WriteJSON(rw, http.StatusOK, resp)
}
