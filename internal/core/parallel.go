package core

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the sharded parallel sampling loop for the
// Theorem 6.2 FPRAS and the Karp–Luby estimator. The sample budget is
// split into a fixed number of shards; each shard owns an independent PCG
// stream seeded deterministically from the user seed and the shard number,
// and workers drain shards from a queue. Because the shard → stream and
// shard → sample-count assignments are fixed, the total hit count — and
// therefore the estimate — is identical for every worker count and every
// scheduling, so parallel runs stay exactly reproducible.

// sampleShards is the number of independent PCG streams a parallel
// sampling run is split into. It bounds usable parallelism and is fixed
// (rather than derived from the worker count) so results do not depend on
// GOMAXPROCS.
const sampleShards = 64

// shardStream returns the deterministic RNG of one shard.
func shardStream(seed uint64, shard int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15+uint64(shard)))
}

// shardSize returns the sample budget of one shard: t split as evenly as
// possible across shards (the first t%shards shards take one extra).
func shardSize(t, shards, shard int) int {
	n := t / shards
	if shard < t%shards {
		n++
	}
	return n
}

// ApxParallel is Apx with the sampling loop sharded across worker
// goroutines. workers ≤ 0 selects GOMAXPROCS. The result for a fixed seed
// is identical across runs and worker counts.
func (c *Compactor) ApxParallel(eps, delta float64, workers int, seed uint64) (Estimate, error) {
	return c.ApxParallelStop(eps, delta, workers, seed, nil)
}

// ApxParallelStop is ApxParallel with a cooperative stop flag threaded
// into the sampling loop (see ApxParallelWithSamplesStop).
func (c *Compactor) ApxParallelStop(eps, delta float64, workers int, seed uint64, stop *Stop) (Estimate, error) {
	t, err := c.apxSamples(eps, delta)
	if err != nil {
		return Estimate{}, err
	}
	return c.ApxParallelWithSamplesStop(t, workers, seed, stop)
}

// ApxParallelWithSamples runs the Algorithm 3 estimator with an explicit
// sample budget, sharded across worker goroutines with deterministic
// per-shard PCG streams. workers ≤ 0 selects GOMAXPROCS.
func (c *Compactor) ApxParallelWithSamples(t, workers int, seed uint64) (Estimate, error) {
	return c.ApxParallelWithSamplesStop(t, workers, seed, nil)
}

// ApxParallelWithSamplesStop is ApxParallelWithSamples polling a
// cooperative stop flag between sample batches: a fired stop abandons the
// run with ErrStopped instead of finishing the budget, so deadlines free
// sampling workers mid-estimate. A nil stop never fires; results for a
// fixed seed are unchanged by the polling.
func (c *Compactor) ApxParallelWithSamplesStop(t, workers int, seed uint64, stop *Stop) (Estimate, error) {
	if t <= 0 {
		return Estimate{}, fmt.Errorf("core: sample budget must be positive, got %d", t)
	}
	factory := c.memberFactory()
	draw := drawPositions(c.Doms, c.Reads)
	hits := runShards(t, workers, seed, stop, func() func(*rand.Rand) bool {
		return newSampler(c.Doms, draw, factory()).Sample
	})
	if stop.Stopped() {
		return Estimate{}, ErrStopped
	}
	return scaledEstimate(UniverseSize(c.Doms), hits, t), nil
}

// runShards runs t trials split across the fixed shards, drained by
// workers goroutines (≤ 0 selects GOMAXPROCS), and returns the hit count.
// newTrial is called once per worker for a trial function with its own
// scratch state. A fired stop abandons the remaining trials; the caller
// then discards the count.
func runShards(t, workers int, seed uint64, stop *Stop, newTrial func() func(*rand.Rand) bool) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := min(sampleShards, t)
	jobs := make(chan int)
	var hits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trial := newTrial()
			local := int64(0)
			for shard := range jobs {
				if stop.Stopped() {
					continue // keep draining so the producer never blocks
				}
				rng := shardStream(seed, shard)
				for i := shardSize(t, shards, shard); i > 0; i-- {
					if i&(stopStride-1) == 0 && stop.Stopped() {
						break
					}
					if trial(rng) {
						local++
					}
				}
			}
			hits.Add(local)
		}()
	}
	for shard := 0; shard < shards; shard++ {
		select {
		case jobs <- shard:
		case <-stop.Done(): // nil stop: nil channel, never fires
			shard = shards
		}
	}
	close(jobs)
	wg.Wait()
	return int(hits.Load())
}

// KarpLubyParallel estimates |⋃ boxes| with t samples from the complex
// sample space, sharded across worker goroutines with deterministic
// per-shard PCG streams. workers ≤ 0 selects GOMAXPROCS. The result for a
// fixed seed is identical across runs and worker counts.
func KarpLubyParallel(doms []Domain, boxes []Selector, t, workers int, seed uint64) (Estimate, error) {
	if t <= 0 {
		return Estimate{}, fmt.Errorf("core: sample budget must be positive, got %d", t)
	}
	kl, ok := newKarpLuby(doms, boxes)
	if !ok {
		return Estimate{Value: big.NewFloat(0), Samples: t}, nil
	}
	hits := runShards(t, workers, seed, nil, kl.trialFunc)
	return scaledEstimate(kl.w, hits, t), nil
}
