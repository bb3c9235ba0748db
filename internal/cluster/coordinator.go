package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repaircount"
	"repaircount/internal/repairs"
	"repaircount/internal/server"
	"repaircount/internal/workload"
)

// Config parameterizes a Coordinator. Zero values select the documented
// defaults.
type Config struct {
	// Config is the probe server's configuration, with the daemon's
	// meaning and defaults: SnapshotPath is the full snapshot the
	// coordinator owns, OpsPath the update stream it tails, and
	// CompactBytes triggers a compaction followed by a re-shard.
	server.Config
	// Query is the partition query (required): the one query whose counts
	// fan out to the fleet. Other probes are served locally.
	Query string
	// Peers are the worker base URLs; the shard count K is their number
	// (required, at least one).
	Peers []string
	// ShardDir receives one epoch-N directory of shard snapshots plus
	// manifest per re-shard (required).
	ShardDir string
	// Retries is the attempt count per shard fetch (default 3).
	Retries int
	// RetryBackoff is the initial inter-attempt backoff, doubling each
	// retry (default 50ms).
	RetryBackoff time.Duration
	// HedgeAfter is the per-attempt timeout: a slow attempt is abandoned
	// and re-fired after this long (default 2s). This is
	// abandon-and-refire hedging — the slow request is canceled, not
	// raced.
	HedgeAfter time.Duration
}

func (cfg *Config) fill() {
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = 2 * time.Second
	}
}

// workerState is the coordinator's book on one fleet member. Guarded by
// fleet.fmu.
type workerState struct {
	url string
	// down: the worker failed an availability check (refused, timed out);
	// probes fall back to local counting, the maintenance loop re-pings.
	down bool
	// stale: the worker returned an integrity violation (wrong digest,
	// epoch or applied stamp); it needs a reload before it is trusted
	// again.
	stale bool
	// lastAck is the instance version the worker acknowledged after its
	// last delta batch (or reload); a partial must carry exactly this.
	lastAck uint64
	// pending holds routed-but-unacked ops, in stream order.
	pending []workload.Update
}

// Coordinator is the fleet's probe server: a server.Server whose fleet
// hook fans the partition query out to the shard workers, streams the
// applied deltas to them, and re-shards them on every compaction.
type Coordinator struct {
	*server.Server
	fleet *fleet
}

// fleet is the coordinator's server.Fleet hook: the shard-set identity of
// the current epoch, the book on every worker, and the loops that keep
// the workers in sync.
type fleet struct {
	cfg    Config
	client *http.Client
	query  repaircount.Formula
	qs     string // canonical partition-query text

	// fmu guards the fleet book and the shard-set identity. The epoch and
	// shard set only move under the server's write lock AND fmu, so
	// holders of either read a consistent epoch.
	fmu      sync.Mutex
	epoch    uint64
	shards   *repaircount.ShardSet
	plac     map[string]int32 // block key → worker, shardShared or shardExcluded
	workers  []*workerState
	pcounter *repaircount.Counter // dedicated planning counter; rebuilt per epoch
	fan      *fanPlan             // cached validation for (epoch, version)
	parts    []partialMemo        // per-worker verified-partial cache, keyed (epoch, ack)

	stats struct {
		fanouts, localFallback, integrity, reshards, partialHits atomic.Int64
	}

	flushCh  chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup
}

const (
	shardShared   = repairs.ShardShared
	shardExcluded = repairs.ShardExcluded
)

// New starts the probe server over the snapshot with the fleet hook,
// which cuts the first epoch's shard set and assigns the fleet (workers
// that are down are marked and healed later — probes degrade to local
// counting, they never fail), then starts the delta flusher and the
// maintenance loop.
func New(cfg Config) (*Coordinator, error) {
	cfg.fill()
	if cfg.Query == "" || cfg.ShardDir == "" {
		return nil, fmt.Errorf("cluster: Query and ShardDir are required")
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: at least one worker peer is required")
	}
	q, err := repaircount.ParseQuery(cfg.Query)
	if err != nil {
		return nil, fmt.Errorf("cluster: partition query: %w", err)
	}
	f := &fleet{
		cfg:     cfg,
		client:  &http.Client{},
		query:   q,
		qs:      fmt.Sprintf("%s", q),
		workers: make([]*workerState, len(cfg.Peers)),
		parts:   make([]partialMemo, len(cfg.Peers)),
		flushCh: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	for i, u := range cfg.Peers {
		f.workers[i] = &workerState{url: u}
	}
	srv, err := server.NewFleet(cfg.Config, f)
	if err != nil {
		return nil, err
	}
	f.loops.Add(2)
	go f.flushLoop()
	go f.maintainLoop(srv.Config().Poll)
	return &Coordinator{Server: srv, fleet: f}, nil
}

// Close stops the server, then the flusher and maintenance loops. In-flight
// probes must have drained first. Safe to call twice.
func (co *Coordinator) Close() error {
	err := co.Server.Close()
	co.fleet.stopOnce.Do(func() { close(co.fleet.stop) })
	co.fleet.loops.Wait()
	return err
}

// Reshard cuts the shard set of a new epoch from snap: re-plan the
// partition at the current version, write fresh shard snapshots plus
// manifest under ShardDir/epoch-N/, swing the fleet book (placement,
// acks, pending) to the new epoch, and reload every worker. The server
// holds its write lock, so in-flight probes have drained against the old
// epoch, and has compacted any journal into the sealed base the shard
// digests refer to. Worker reload failures mark the worker down — they
// never fail the re-shard, because the coordinator can always count
// locally.
func (c *fleet) Reshard(snap *repaircount.Snapshot, epoch uint64) error {
	counter, err := snap.Counter(c.query)
	if err != nil {
		return err
	}
	plan, err := counter.PlanShards(len(c.workers))
	if err != nil {
		return err
	}
	dir := filepath.Join(c.cfg.ShardDir, fmt.Sprintf("epoch-%06d", epoch))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	set, err := counter.WriteShards(dir, plan, snap.Digest())
	if err != nil {
		return fmt.Errorf("cluster: writing shard set for epoch %d: %w", epoch, err)
	}
	plac := make(map[string]int32, len(counter.Instance().Blocks))
	for pos, b := range counter.Instance().Blocks {
		plac[b.Key.Canonical()] = plan.ShardOf[pos]
	}

	c.fmu.Lock()
	c.epoch = epoch
	c.shards = set
	c.plac = plac
	c.pcounter = counter
	c.fan = nil
	for i := range c.parts {
		c.parts[i] = partialMemo{}
	}
	for _, ws := range c.workers {
		ws.lastAck = 0
		ws.pending = nil
		ws.stale = false
	}
	c.fmu.Unlock()
	c.stats.reshards.Add(1)

	// Fan the reloads concurrently; the epoch swing above already
	// happened, so a worker that misses its reload is simply down until
	// the maintenance loop heals it.
	var wg sync.WaitGroup
	for s := range c.workers {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			applied, err := c.sendReload(s)
			c.fmu.Lock()
			ws := c.workers[s]
			if err != nil {
				ws.down = true
			} else {
				ws.down = false
				ws.lastAck = applied
			}
			c.fmu.Unlock()
			if err != nil {
				fmt.Fprintf(os.Stderr, "cluster: reload of worker %d (%s) failed: %v\n", s, c.workers[s].url, err)
			}
		}(s)
	}
	wg.Wait()
	return nil
}

// sendReload assigns shard s of the current epoch to worker s and
// returns the applied version the worker acknowledged.
func (c *fleet) sendReload(s int) (uint64, error) {
	c.fmu.Lock()
	req := reloadRequest{
		Epoch:        c.epoch,
		Shard:        s,
		K:            len(c.workers),
		ManifestPath: c.shards.ManifestPath,
		ShardPath:    c.shards.Paths[s],
		ManifestCRC:  fmt.Sprintf("%016x", c.shards.ManifestCRC),
	}
	url := c.workers[s].url
	c.fmu.Unlock()
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HedgeAfter)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/reload", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if !statusOK(resp.StatusCode) {
		return 0, decodeError(resp.StatusCode, data)
	}
	var rr reloadResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return 0, fmt.Errorf("cluster: malformed reload ack: %w", err)
	}
	if rr.Epoch != req.Epoch || rr.Shard != s {
		return 0, fmt.Errorf("cluster: worker %d acked epoch %d shard %d, assigned epoch %d shard %d",
			s, rr.Epoch, rr.Shard, req.Epoch, s)
	}
	return rr.Applied, nil
}

// maintainLoop heals down and stale workers every poll: reload them
// onto the current epoch and kick the flusher so their pending deltas
// replay. Healthy fleets cost one mutex peek per tick.
func (c *fleet) maintainLoop(poll time.Duration) {
	defer c.loops.Done()
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.fmu.Lock()
		var heal []int
		for s, ws := range c.workers {
			if ws.down || ws.stale {
				heal = append(heal, s)
			}
		}
		c.fmu.Unlock()
		for _, s := range heal {
			applied, err := c.sendReload(s)
			if err != nil {
				continue // still down; next tick retries
			}
			c.fmu.Lock()
			ws := c.workers[s]
			ws.lastAck = applied
			ws.down = false
			ws.stale = false
			c.fmu.Unlock()
		}
		if len(heal) > 0 {
			c.kickFlusher()
		}
	}
}

func (c *fleet) kickFlusher() {
	select {
	case c.flushCh <- struct{}{}:
	default:
	}
}
