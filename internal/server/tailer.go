package server

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repaircount"
	"repaircount/internal/faultfs"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// The tailer drives the only write path of the daemon and the
// coordinator. It polls the ops file for new complete lines ("+ Fact" /
// "- Fact", # comments), applies them through the owner's Apply
// callback (which takes the write lock, patches the live instance and
// journals the changed ops with an fsync'd append), and then — only after the batch is durably applied —
// persists the consumed byte offset to a sidecar file so a restart
// resumes the tail instead of re-applying the whole stream.
//
// Crash safety is a consequence of layering plus ordering, not tailer
// bookkeeping: the ops file is the source of truth, and the sidecar is
// written strictly after the journal append it covers, so the persisted
// offset never runs ahead of journaled state. After any crash —
// including kill -9 between apply and journal, or between journal and
// sidecar — the restarted daemon recovers the snapshot's torn tail and
// re-tails from the last persisted offset (or zero when the sidecar is
// missing, corrupt, or past the ops file's end): ops are absolute
// set-membership assignments, so replaying an already-journaled suffix
// is a no-op that journals nothing, and the daemon converges to exactly
// the committed-plus-pending state.
//
// Any write-path failure (unparseable ops line, failed apply, failed
// journal append or compaction) stops the tail and degrades the owner
// to read-only: probes keep answering against the last applied state,
// /healthz fails, and the reason is reported in /v1/stats.

// offsetMagic prefixes the sidecar's single line: "CQSO1 <offset>\n".
const offsetMagic = "CQSO1"

// Tailer follows an append-only update-stream file and hands parsed
// batches to Apply.
type Tailer struct {
	// OpsPath is the stream file to follow.
	OpsPath string
	// OffsetPath, when set, is the sidecar persisting the consumed byte
	// offset across restarts ("" replays from zero every start).
	OffsetPath string
	// Poll is the tail interval.
	Poll time.Duration
	// Apply durably applies one parsed batch; an error stops the tail.
	Apply func(ops []workload.Update) error

	off atomic.Int64
}

// Offset returns the consumed byte offset of the ops file.
func (t *Tailer) Offset() int64 { return t.off.Load() }

// Run tails until stop closes or Apply fails, returning the failure (nil
// on a clean stop). The starting offset is loaded from the sidecar.
func (t *Tailer) Run(stop <-chan struct{}) error {
	t.off.Store(t.loadOffset())
	tick := time.NewTicker(t.Poll)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		if err := t.tailOnce(); err != nil {
			return err
		}
	}
}

// tailOnce reads any new complete lines past the current offset, applies
// them, and persists the advanced offset.
func (t *Tailer) tailOnce() error {
	off := t.off.Load()
	f, err := os.Open(t.OpsPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // the stream has not started yet
		}
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < off {
		return fmt.Errorf("server: ops file %s shrank from %d to %d bytes", t.OpsPath, off, st.Size())
	}
	if st.Size() == off {
		return nil
	}
	buf := make([]byte, st.Size()-off)
	if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
		return err
	}
	// Only complete lines are parsed; a partially written tail waits for
	// the next poll.
	nl := bytes.LastIndexByte(buf, '\n')
	if nl < 0 {
		return nil
	}
	ops, err := workload.ParseUpdates(bytes.NewReader(buf[:nl+1]))
	if err != nil {
		return fmt.Errorf("server: ops file %s at offset %d: %w", t.OpsPath, off, err)
	}
	if len(ops) > 0 {
		if err := t.Apply(ops); err != nil {
			return err
		}
	}
	t.off.Store(off + int64(nl+1))
	// The batch is applied and journaled; only now may the sidecar
	// advance. A sidecar failure is not a correctness failure (restart
	// replays idempotently from the stale offset) but it is a broken
	// durability invariant worth refusing to hide.
	if err := t.persistOffset(); err != nil {
		return fmt.Errorf("server: persisting ops offset: %w", err)
	}
	return nil
}

// loadOffset reads the sidecar, falling back to zero — the replay-all
// behavior — when it is absent, corrupt, or names an offset past the
// current end of the ops file (a replaced stream).
func (t *Tailer) loadOffset() int64 {
	if t.OffsetPath == "" {
		return 0
	}
	data, err := os.ReadFile(t.OffsetPath)
	if err != nil {
		return 0
	}
	var magic string
	var off int64
	if _, err := fmt.Sscanf(strings.TrimSuffix(string(data), "\n"), "%s %d", &magic, &off); err != nil || magic != offsetMagic || off < 0 {
		return 0
	}
	if st, err := os.Stat(t.OpsPath); err != nil || st.Size() < off {
		return 0
	}
	return off
}

// persistOffset durably writes the sidecar: temp file, fsync, atomic
// rename, directory fsync — all through faultfs so the crash sweeps
// cover every byte of this path too.
func (t *Tailer) persistOffset() error {
	if t.OffsetPath == "" {
		return nil
	}
	dir := filepath.Dir(t.OffsetPath)
	f, err := faultfs.CreateTemp(dir, filepath.Base(t.OffsetPath)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = fmt.Fprintf(f, "%s %d\n", offsetMagic, t.off.Load())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = faultfs.Rename(tmp, t.OffsetPath)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return faultfs.SyncDir(dir)
}

// tailLoop runs the server's tailer until Close or a write-path failure.
func (s *Server) tailLoop() {
	defer close(s.tailDone)
	if err := s.tailer.Run(s.stop); err != nil {
		s.health.Degrade(err)
	}
}

// ApplyJournal applies one batch of ops to the snapshot's live instance
// and journals the ops that changed it to the snapshot file at path with
// an fsync'd append, returning those ops. snap must be the snapshot
// loaded from path: applying the ops to its live instance is what
// validates them, so the append writes the block without reloading the
// file, and the write lock is held for the batch, not the snapshot. The
// caller holds the lock that excludes probes from the snapshot.
func ApplyJournal(snap *repaircount.Snapshot, path string, ops []workload.Update) ([]workload.Update, error) {
	var changed []workload.Update
	var journal []store.JournalOp
	for _, op := range ops {
		d := repaircount.Insert(op.Fact)
		if op.Del {
			d = repaircount.Delete(op.Fact)
		}
		n, err := snap.Apply(d)
		if err != nil {
			return nil, fmt.Errorf("applying %s: %w", op.Fact, err)
		}
		if n > 0 {
			changed = append(changed, op)
			journal = append(journal, store.JournalOp{Del: op.Del, Fact: op.Fact})
		}
	}
	if len(journal) > 0 {
		if err := store.AppendJournalBlock(path, journal); err != nil {
			return nil, fmt.Errorf("journaling %d ops: %w", len(journal), err)
		}
	}
	return changed, nil
}

// applyBatch applies and journals one parsed batch under the write lock,
// hands the changed ops to the fleet, and compacts when the journal
// outgrows CompactBytes.
func (s *Server) applyBatch(ops []workload.Update) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed, err := ApplyJournal(s.snap, s.cfg.SnapshotPath, ops)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.appliedOps.Add(int64(len(ops)))
	s.journaled.Add(int64(len(changed)))
	if s.fleet != nil && len(changed) > 0 {
		s.fleet.Changed(changed)
	}
	if s.cfg.CompactBytes > 0 {
		// The mapped length is fixed at open, so the live journal size
		// comes from the file, not the snapshot.
		st, err := os.Stat(s.cfg.SnapshotPath)
		if err == nil && st.Size()-s.baseLen >= s.cfg.CompactBytes {
			if err := s.compactLocked(); err != nil {
				return fmt.Errorf("server: compacting: %w", err)
			}
		}
	}
	return nil
}

// compactLocked rewrites the snapshot without its journal (atomic
// temp+rename), remaps it and starts a new epoch over it. Caller holds
// the write lock.
func (s *Server) compactLocked() error {
	if err := repaircount.CompactSnapshot(s.cfg.SnapshotPath, s.cfg.SnapshotPath); err != nil {
		return err
	}
	snap, err := repaircount.OpenSnapshot(s.cfg.SnapshotPath)
	if err != nil {
		return err
	}
	st, err := os.Stat(s.cfg.SnapshotPath)
	if err != nil {
		snap.Close()
		return err
	}
	old := s.snap
	s.snap = snap
	s.baseLen = st.Size() - snap.JournalBytes()
	err = s.newEpochLocked()
	if cerr := old.Close(); err == nil {
		err = cerr
	}
	return err
}

// newEpochLocked bumps the epoch, so counters and memos built over the
// previous mapping rebuild, and has the fleet re-cut its shards over the
// current snapshot. Caller holds the write lock.
func (s *Server) newEpochLocked() error {
	s.epoch++
	if s.fleet == nil {
		return nil
	}
	return s.fleet.Reshard(s.snap, s.epoch)
}
