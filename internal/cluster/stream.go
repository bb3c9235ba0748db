package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repaircount/internal/workload"
)

// The coordinator's write path is the probe server's: the ops tail
// applies each batch to the coordinator's own snapshot and journals it
// (server.ApplyJournal), so the coordinator alone is always a correct
// server. The fleet hook then routes the ops that changed the instance
// to the workers by the placement map recorded at the current epoch's
// birth:
//
//   - a block owned by worker w streams to w only;
//   - a shared (replicated singleton) block broadcasts to every worker;
//   - a block born after the epoch stays coordinator-only (it is
//     excluded from every physical shard; the fan-out validation decides
//     per probe whether that is still sound).
//
// Routing appends to per-worker pending queues; a separate flusher
// goroutine drains them over HTTP so probes and the tail never block on
// a slow worker. A worker acks a batch only after journaling it to its
// own shard file, and the ack carries the worker's resulting instance
// version, which the coordinator records as lastAck — the exact stamp
// every later partial from that worker must carry.

// Changed routes the ops that changed the instance by the epoch-birth
// placement and queues them per worker. The server holds its write lock
// and has applied and journaled the batch.
func (c *fleet) Changed(ops []workload.Update) {
	keys := c.pcounter.Instance().Keys
	c.fmu.Lock()
	for _, op := range ops {
		key := keys.KeyValue(op.Fact).Canonical()
		w, ok := c.plac[key]
		if !ok {
			// A block born after the epoch: no physical shard holds it, so
			// it stays coordinator-only until the next re-shard.
			c.plac[key] = shardExcluded
			continue
		}
		switch {
		case w == shardShared:
			for _, ws := range c.workers {
				ws.pending = append(ws.pending, op)
			}
		case w >= 0:
			c.workers[w].pending = append(c.workers[w].pending, op)
		}
	}
	c.fmu.Unlock()
	c.kickFlusher()
}

// flushLoop drains pending delta queues to the fleet whenever kicked.
func (c *fleet) flushLoop() {
	defer c.loops.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-c.flushCh:
		}
		c.flushPending()
	}
}

// flushPending streams each worker's queued ops in order. The queue is
// only truncated after the worker's journaled ack, and only if the epoch
// did not move mid-flight (a re-shard clears the queues wholesale — its
// state is baked into the fresh shards). Any failure marks the worker
// down; the maintenance loop reloads it and this queue replays.
func (c *fleet) flushPending() {
	for s := range c.workers {
		for {
			c.fmu.Lock()
			ws := c.workers[s]
			if ws.down || ws.stale || len(ws.pending) == 0 {
				c.fmu.Unlock()
				break
			}
			batch := ws.pending
			epoch := c.epoch
			url := ws.url
			c.fmu.Unlock()

			applied, err := c.sendApply(url, epoch, batch)

			c.fmu.Lock()
			if c.epoch != epoch {
				// A re-shard superseded this batch; its state is in the new
				// epoch's shard files and the queue was already cleared.
				c.fmu.Unlock()
				break
			}
			if err != nil {
				ws.down = true
				c.fmu.Unlock()
				fmt.Fprintf(os.Stderr, "cluster: delta stream to worker %d (%s) failed: %v\n", s, url, err)
				break
			}
			ws.lastAck = applied
			ws.pending = ws.pending[len(batch):]
			c.fmu.Unlock()
		}
	}
}

// sendApply POSTs one delta batch to a worker and returns the journaled
// version it acked.
func (c *fleet) sendApply(url string, epoch uint64, batch []workload.Update) (uint64, error) {
	var body strings.Builder
	if err := workload.FormatUpdates(&body, batch); err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HedgeAfter)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/apply?epoch=%d", url, epoch), strings.NewReader(body.String()))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if !statusOK(resp.StatusCode) {
		return 0, decodeError(resp.StatusCode, data)
	}
	var ar applyResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		return 0, fmt.Errorf("cluster: malformed apply ack: %w", err)
	}
	if ar.Epoch != epoch {
		return 0, fmt.Errorf("cluster: apply acked under epoch %d, sent under %d", ar.Epoch, epoch)
	}
	return ar.Applied, nil
}
