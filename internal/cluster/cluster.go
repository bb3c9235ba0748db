// Package cluster is the distributed serving topology: one coordinator
// owning the full snapshot, the CQSM manifest and the ops tail, and a
// fleet of shard workers each mmapping one shard .cqs and answering
// digest-stamped partials. Counts served by the coordinator are
// bit-identical to the unsharded engine or a structured error — the
// topology is a throughput lever, never an approximation.
//
// The coordinator is not a second server: it is internal/server's probe
// pipeline and write path (server.NewFleet) plus a fleet hook. The hook
// claims counts of the partition query and fans them out (handler.go),
// routes every applied batch's changed ops to the workers (stream.go),
// and re-shards on startup and after every compaction (coordinator.go).
// Every other probe runs through the daemon's own handlers, so the
// coordinator serves every endpoint the daemon does, with the same
// bodies, cache and admission ladder.
//
// # Wire format
//
// Workers and coordinator speak HTTP/JSON, except for partials, which
// travel in the CQSP version-2 text form so the wire artifact is the
// same digest-stamped unit the offline shard/count/merge pipeline
// exchanges (internal/store):
//
//	GET  /v1/partial                 → 200 text: "CQSP 2\nmanifest %016x\n
//	                                   shard S of K\nsnapshot %016x\n
//	                                   inner N\nnonent N\nepoch E\napplied A\n"
//	POST /v1/apply?epoch=E           body: "+ Fact\n" / "- Fact\n" lines
//	                                 → 200 {"epoch":E,"applied":V}
//	                                 → 409 {"error":{"code":"wrong_epoch"}} when
//	                                   E is not the worker's epoch
//	POST /v1/reload                  {"epoch","shard","k","manifest_path",
//	                                  "shard_path","manifest_crc"}
//	                                 → 200 {"epoch","shard","applied","snapshot"}
//	GET  /v1/stats, GET /healthz     observability; /healthz fails once the
//	                                 worker's write path degraded
//
// An unassigned worker (fresh start, no reload yet and no assignment
// sidecar) answers 503 {"error":{"code":"unassigned"}} on /v1/partial
// and /v1/apply until the coordinator reloads it.
//
// # Epoch semantics
//
// An epoch is one sharding of the coordinator's sealed snapshot. Its
// authoritative identity is the manifest digest (the CQSM trailer CRC);
// the numeric epoch exists for observability and cheap comparison. The
// coordinator bumps the epoch exactly when it re-shards — at startup and
// on journal compaction — writing fresh shard snapshots plus a manifest
// under ShardDir/epoch-N/ and swinging the fleet via /v1/reload. The
// swing is atomic with respect to probes: re-sharding holds the write
// side of the substrate lock, so in-flight probes drain against the old
// epoch before the manifest moves, and every later probe fans out under
// the new one.
//
// Between epochs, deltas stream to the affected shards only: the
// coordinator classifies each changed op by the placement map recorded
// at the epoch's birth (its shard's worker; shared blocks broadcast to
// every worker; blocks born after the epoch stay coordinator-only).
// Workers journal the changed ops into their own shard file with an
// fsync'd append *before* acking, and the ack carries the worker's
// instance version, so the coordinator always knows — and can verify —
// exactly how many mutations each worker's counts reflect.
//
// # The merge safety ladder
//
// Every partial must pass, in order: the offline CheckPartial gate
// (manifest digest, shard count, shard index, sealed shard digest), the
// epoch stamp (== the coordinator's current epoch), and the applied
// stamp (== the last version the worker acked). A failure anywhere is an
// integrity error — a loud 502 naming the stale or foreign partial —
// never a miscount. Availability failures (a dead or slow worker) are
// retried with bounded exponential backoff; a worker that stays down
// degrades that probe to single-node local counting on the coordinator's
// own snapshot, which is exact, and the maintenance loop heals the
// worker (reload + pending-delta replay) when it returns.
//
// Post-delta fan-outs stay exact through placement validation: before
// fanning out, the coordinator re-factorizes at the current version and
// checks the fresh partition against the physical placement — every
// fresh shared block replicated everywhere, every fresh component's
// blocks on one worker, every fresh excluded block either off the fleet
// (its size folds into the outer factor) or wholly on one worker (it
// folds into that worker's partial). If deltas have broken any of this,
// the probe — and all following ones until the next re-shard — counts
// locally instead. See fanout.go for the argument.
package cluster

import (
	"encoding/json"
	"fmt"
)

// applyResponse acknowledges one delta batch: the worker's epoch and its
// instance version after the batch was applied and journaled.
type applyResponse struct {
	Epoch   uint64 `json:"epoch"`
	Applied uint64 `json:"applied"`
}

// reloadRequest assigns a worker one shard of one epoch. Paths name
// files the worker can reach (the fleet shares a filesystem; a
// cross-host transport would ship the bytes instead, behind the same
// digest checks).
type reloadRequest struct {
	Epoch        uint64 `json:"epoch"`
	Shard        int    `json:"shard"`
	K            int    `json:"k"`
	ManifestPath string `json:"manifest_path"`
	ShardPath    string `json:"shard_path"`
	ManifestCRC  string `json:"manifest_crc"` // %016x
}

// reloadResponse reports the assignment the worker now serves.
type reloadResponse struct {
	Epoch    uint64 `json:"epoch"`
	Shard    int    `json:"shard"`
	Applied  uint64 `json:"applied"`
	Snapshot string `json:"snapshot"` // %016x sealed shard digest
}

// errorBody decodes a worker's structured error for coordinator-side
// classification.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Epoch   uint64 `json:"epoch"`
	} `json:"error"`
}

// decodeError extracts the structured error code from a non-2xx worker
// response body.
func decodeError(status int, body []byte) error {
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error.Code != "" {
		return fmt.Errorf("worker answered %d %s: %s", status, eb.Error.Code, eb.Error.Message)
	}
	return fmt.Errorf("worker answered HTTP %d", status)
}

// statusOK reports whether an HTTP status is a success.
func statusOK(status int) bool { return status >= 200 && status < 300 }
