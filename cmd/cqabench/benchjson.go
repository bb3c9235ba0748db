package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"repaircount"
	"repaircount/internal/cluster"
	"repaircount/internal/eval"
	"repaircount/internal/query"
	"repaircount/internal/relational"
	"repaircount/internal/repairs"
	"repaircount/internal/server"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// This file implements `cqabench -json`: it times the hot algorithmic
// kernels (the same workloads as the go-test benchmarks of the repository
// root) via testing.Benchmark and writes the results as BENCH_<n>.json,
// picking the next free n in the current directory, so the performance
// trajectory of the interned-ID substrate is tracked across PRs.

type benchRecord struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type benchReport struct {
	Timestamp  string        `json:"timestamp"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// newServeBench writes the MultiComponent(512, 16, 4) snapshot and starts
// a real probe daemon over it behind httptest, returning the base URL and
// the workload's partition disjunction. The instance is deliberately wide
// (512 components of 16 blocks, 4^8192 total repairs): every uncached
// probe re-prices admission over all components and re-renders the
// ~5000-digit count string, the fixed per-probe costs the shared probe
// cache elides.
// cacheEntries follows server.Config: 0 selects the default bound, < 0
// disables the shared cache (the ProbeColdRepeat side of the ProbeCache
// gate). Workers is pinned to 1 so both sides measure one warm slot's
// steady state rather than rotating probes across cold per-slot caches.
func newServeBench(b *testing.B, cacheEntries int) (string, string) {
	db, ks, q := workload.MultiComponent(512, 16, 4)
	dir, err := os.MkdirTemp("", "cqabench-serve")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	path := filepath.Join(dir, "serve.cqs")
	if err := store.WriteFile(path, db, ks); err != nil {
		b.Fatal(err)
	}
	s, err := server.New(server.Config{
		SnapshotPath: path,
		Workers:      1,
		ExactBudget:  1 << 44,
		CacheEntries: cacheEntries,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() { ts.Close(); s.Close() })
	return ts.URL, q.String()
}

// serveGet fetches one probe URL and fails the benchmark unless the
// daemon answered 200 with the expected serving mode.
func serveGet(b *testing.B, probe string, mode []byte) []byte {
	resp, err := http.Get(probe)
	if err != nil {
		b.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("probe: status %d err %v: %s", resp.StatusCode, err, body)
	}
	if !bytes.Contains(body, mode) {
		b.Fatalf("probe: want %s, got %s", mode, body)
	}
	return body
}

func kernelBenchmarks() []struct {
	name string
	fn   func(b *testing.B)
} {
	employee := func(n int) (*relational.Database, *relational.KeySet, query.Formula) {
		rng := rand.New(rand.NewPCG(11, uint64(n)))
		db, ks := workload.Employee(rng, n, 5, 0.4)
		return db, ks, workload.SameDeptQuery(1, 2)
	}
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"BlocksDecomposition", func(b *testing.B) {
			db, ks, _ := employee(2000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := relational.Blocks(db, ks); len(got) == 0 {
					b.Fatal("no blocks")
				}
			}
		}},
		{"DecisionLemma35", func(b *testing.B) {
			db, ks, q := employee(2000)
			in := repairs.MustInstance(db, ks, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.HasRepairEntailing()
			}
		}},
		{"HomomorphismSearch", func(b *testing.B) {
			db, ks, q := employee(1000)
			in := repairs.MustInstance(db, ks, q)
			cq := in.UCQ.Disjuncts[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval.HasConsistentHom(cq, in.Idx, ks)
			}
		}},
		{"FPRASSample", func(b *testing.B) {
			db, ks, q := employee(500)
			in := repairs.MustInstance(db, ks, q)
			c, err := in.Compactor()
			if err != nil {
				b.Fatal(err)
			}
			s := c.NewSampler()
			rng := rand.New(rand.NewPCG(15, 16))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sample(rng)
			}
		}},
		{"FPRASParallel20k", func(b *testing.B) {
			db, ks, q := employee(500)
			in := repairs.MustInstance(db, ks, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.ApxParallelWithSamples(20_000, 0, 42); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"FPRASPadded", func(b *testing.B) {
			// The full Theorem 6.2 FPRAS (ε=0.25, δ=0.05, one worker) on a
			// keywidth-2 query over ~20 blocks plus 1000 key-unique filler
			// blocks: sampling cost must follow the blocks the query reads.
			rng := rand.New(rand.NewPCG(11, 20))
			db, ks := workload.Employee(rng, 20, 5, 0.4)
			db, ks = workload.WithFiller(db, ks, "Filler", 1000, 1)
			in := repairs.MustInstance(db, ks, workload.SameDeptQuery(1, 2))
			if n := len(in.Blocks); n != 1020 {
				b.Fatalf("fixture has %d blocks, want 1020", n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.ApxParallel(0.25, 0.05, 1, 42); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ExactEnum", func(b *testing.B) {
			db, ks, q := workload.MultiComponent(8, 2, 2)
			in := repairs.MustInstance(db, ks, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.CountEnumUCQ(0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ExactFactorized", func(b *testing.B) {
			db, ks, q := workload.MultiComponent(8, 2, 2)
			in := repairs.MustInstance(db, ks, q)
			if _, err := in.CountFactorized(0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.ResetComponentMemo() // measure enumeration, not the memo hit
				if _, err := in.CountFactorized(0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ExactGrayIEHeavy", func(b *testing.B) {
			// Forced Gray walk on the ie-heavy regime at the largest feasible
			// size: one 20-block component (2^20 states) with 4 boxes. This
			// is the slow side of the PlannedIE gate — the work the planner
			// avoids by choosing component-local inclusion–exclusion.
			db, ks, q := workload.IEHeavy(1, 20, 4)
			in := repairs.MustInstance(db, ks, q)
			if _, err := in.CountGray(1<<21, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.ResetComponentMemo() // measure the walk, not the memo hit
				if _, err := in.CountGray(1<<21, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ExactPlannedIE", func(b *testing.B) {
			// The planner on the same ie-heavy instance: it assigns
			// component-local IE (≤ 2^4 − 1 subset nodes) instead of the
			// 2^20-state walk. The PlannedIE gate requires this to beat
			// ExactGrayIEHeavy by ≥ 10×.
			db, ks, q := workload.IEHeavy(1, 20, 4)
			in := repairs.MustInstance(db, ks, q)
			if _, err := in.CountFactorized(0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.ResetComponentMemo() // measure the IE pass, not the memo hit
				if _, err := in.CountFactorized(0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"PlanSelection", func(b *testing.B) {
			// End-to-end plan construction on a cold instance: block
			// decomposition, index build, box extraction and the per-component
			// cost model — the fixed overhead the planner adds before any
			// counting starts.
			db, ks, q := workload.IEHeavy(4, 16, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := repairs.MustInstance(db, ks, q)
				p, err := in.ExplainPlan(repairs.EngineAuto)
				if err != nil || len(p.Components) != 4 {
					b.Fatal("bad plan", err)
				}
			}
		}},
		{"ParseIndexMultiComp", func(b *testing.B) {
			// Instance-ready time over the text path: parse the codec,
			// decompose the conflict blocks, build the evaluation index —
			// the work NewInstance performs on every cold start.
			db, ks, _ := workload.MultiComponent(256, 8, 4)
			var text bytes.Buffer
			if err := relational.WriteInstance(&text, db, ks); err != nil {
				b.Fatal(err)
			}
			data := text.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pdb, pks, err := relational.ParseInstance(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				if blocks := relational.Blocks(pdb, pks); len(blocks) == 0 {
					b.Fatal("no blocks")
				}
				if idx := eval.IndexDatabase(pdb); idx.Len() == 0 {
					b.Fatal("empty index")
				}
			}
		}},
		{"SnapshotLoadMultiComp", func(b *testing.B) {
			// Instance-ready time over the snapshot path: mmap, validate,
			// alias the arenas — same database, block sequence and index
			// as ParseIndexMultiComp, no parsing and O(1) allocations.
			db, ks, _ := workload.MultiComponent(256, 8, 4)
			dir, err := os.MkdirTemp("", "cqabench")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { os.RemoveAll(dir) })
			path := filepath.Join(dir, "bench.cqs")
			if err := store.WriteFile(path, db, ks); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, err := store.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := snap.Database(); err != nil {
					b.Fatal(err)
				}
				if blocks, err := snap.Blocks(); err != nil || len(blocks) == 0 {
					b.Fatal("no blocks", err)
				}
				idx, err := snap.Index()
				if err != nil || idx.Len() == 0 {
					b.Fatal("empty index", err)
				}
				snap.Close()
			}
		}},
		{"FactorizedDeltaStep64k", func(b *testing.B) {
			db, ks, q := workload.MultiComponent(1, 16, 2)
			in := repairs.MustInstance(db, ks, q)
			if _, err := in.CountFactorized(0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.ResetComponentMemo() // measure the Gray walk, not the memo hit
				if _, err := in.CountFactorized(0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"IncrementalApply", func(b *testing.B) {
			// One delta through the whole maintained substrate: database
			// tombstone/append, block splice, index posting/bucket/domain
			// maintenance. Alternates insert and delete of one fact so the
			// instance stays bounded.
			db, ks, q := workload.MultiComponent(64, 4, 4)
			in := repairs.MustInstance(db, ks, q)
			f := relational.Fact{Pred: "C0", Args: []relational.Const{"k0", "uvX"}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := repairs.Insert(f)
				if i%2 == 1 {
					d = repairs.Delete(f)
				}
				if _, err := in.Apply(d); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"RecountAfterDelta", func(b *testing.B) {
			// Exact recount after one delta on a warm multi-component
			// instance: the structural memo keeps the 63 untouched
			// components' counts, so only component C0 re-enumerates. This
			// is the fast side of the IncrementalRecount gate; the slow side
			// (RecountRebuildMultiComp) rebuilds the same instance from
			// text.
			db, ks, q := workload.MultiComponent(64, 4, 4)
			in := repairs.MustInstance(db, ks, q)
			if _, err := in.CountFactorized(0); err != nil {
				b.Fatal(err)
			}
			f := relational.Fact{Pred: "C0", Args: []relational.Const{"k0", "uvX"}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := repairs.Insert(f)
				if i%2 == 1 {
					d = repairs.Delete(f)
				}
				if _, err := in.Apply(d); err != nil {
					b.Fatal(err)
				}
				if _, err := in.CountFactorized(0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"CompileRecount", func(b *testing.B) {
			// Post-delta recount on the circuit engine. Each op grows one
			// block of a fresh warm instance by six facts whose values sort
			// after every query constant, recounting after each insert: the
			// d-DNNF circuit of a component depends only on its box tables,
			// not its block sizes, so every recount reuses the one cached
			// circuit and pays a single circuit-linear evaluation. Both
			// structural memos (the per-component count memo and the circuit
			// memo) see exactly the same delta stream as the Gray side — the
			// circuit survives size growth, the Gray walk cannot. The fast
			// side of the CompileReuse gate.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, ks, q := workload.MultiComponent(2, 10, 4)
				in := repairs.MustInstance(db, ks, q)
				if _, err := in.CountCompile(0, 0); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for k := 0; k < 6; k++ {
					f := relational.Fact{Pred: "C0", Args: []relational.Const{"k0", relational.Const(fmt.Sprintf("z%03d", k))}}
					if _, err := in.Apply(repairs.Insert(f)); err != nil {
						b.Fatal(err)
					}
					if _, err := in.CountCompile(0, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"CompileRecountGray", func(b *testing.B) {
			// The identical growth stream on the Gray walk: each size-only
			// insert yields a component shape (block-size vector) the
			// structural count memo has never seen, so every recount
			// re-enumerates the touched component's grown 4^9*(4+k)-state
			// choice space instead of evaluating a cached circuit. The slow
			// side of the CompileReuse gate.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, ks, q := workload.MultiComponent(2, 10, 4)
				in := repairs.MustInstance(db, ks, q)
				if _, err := in.CountGray(0, 0); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for k := 0; k < 6; k++ {
					f := relational.Fact{Pred: "C0", Args: []relational.Const{"k0", relational.Const(fmt.Sprintf("z%03d", k))}}
					if _, err := in.Apply(repairs.Insert(f)); err != nil {
						b.Fatal(err)
					}
					if _, err := in.CountGray(0, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"WeightedCount", func(b *testing.B) {
			// Repeated weighted counting over warm circuits: each iteration
			// is one interval-arithmetic bottom-up pass per component plus
			// the factorized assembly — the /v1/prob steady state.
			db, ks, q := workload.MultiComponent(8, 8, 4)
			in := repairs.MustInstance(db, ks, q)
			w := make([]float64, in.Idx.NumFacts())
			for i := range w {
				w[i] = float64(1+i%16) / 16
			}
			if _, err := in.CountWeighted(w); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.CountWeighted(w); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ShardCount1", func(b *testing.B) {
			// Single-shard baseline of the ShardScaling gate: the whole
			// instance is one shard, so one worker's partial recompute is the
			// entire count. Same instance and code path as ShardCount8.
			db, ks, q := workload.MultiComponent(8, 16, 2)
			in := repairs.MustInstance(db, ks, q)
			plan, err := in.PlanShards(1)
			if err != nil {
				b.Fatal(err)
			}
			subs, err := in.ShardInstances(plan)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := subs[0].CountNonEntailment(0, 1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				subs[0].ResetComponentMemo() // a shard executor starts cold
				p, err := subs[0].CountNonEntailment(0, 1)
				if err != nil {
					b.Fatal(err)
				}
				if n := repairs.CombinePartials(plan.Outer, []*repairs.Partial{p}); n.Sign() == 0 {
					b.Fatal("zero count")
				}
			}
		}},
		{"ShardCount8", func(b *testing.B) {
			// Fleet critical path at 8 shards on the same instance: shard
			// workers run independently, so the slowest (heaviest-cost)
			// shard's recompute plus the merge bounds the fleet wall-clock.
			// The other seven partials are precomputed in setup; the heavy
			// shard recounts cold every iteration. The ShardScaling gate
			// requires ShardCount1/ShardCount8 ≥ 4×.
			db, ks, q := workload.MultiComponent(8, 16, 2)
			in := repairs.MustInstance(db, ks, q)
			plan, err := in.PlanShards(8)
			if err != nil {
				b.Fatal(err)
			}
			subs, err := in.ShardInstances(plan)
			if err != nil {
				b.Fatal(err)
			}
			heavy := 0
			parts := make([]*repairs.Partial, len(subs))
			for s := range subs {
				if parts[s], err = subs[s].CountNonEntailment(0, 1); err != nil {
					b.Fatal(err)
				}
				if plan.Cost[s] > plan.Cost[heavy] {
					heavy = s
				}
			}
			want, err := in.CountFactorized(0)
			if err != nil {
				b.Fatal(err)
			}
			if got := repairs.CombinePartials(plan.Outer, parts); got.Cmp(want) != 0 {
				b.Fatalf("sharded %s, direct %s", got, want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				subs[heavy].ResetComponentMemo() // a shard executor starts cold
				p, err := subs[heavy].CountNonEntailment(0, 1)
				if err != nil {
					b.Fatal(err)
				}
				parts[heavy] = p
				if n := repairs.CombinePartials(plan.Outer, parts); n.Cmp(want) != 0 {
					b.Fatal("merge drift")
				}
			}
		}},
		{"ClusterCount8", func(b *testing.B) {
			// One coordinator probe of the partition query over a quiet
			// eight-worker HTTP fleet holding the 8-shard cut of
			// ShardCount8. After a warm-up probe every worker holds its
			// verified partial in the coordinator's memo, so each
			// iteration is: eight conditional ?have= fetches, each
			// answered 204 without a recount; the digest/epoch/applied
			// verification ladder over the memoized partials; and the
			// memoized merge. No shard is recounted, so this times the
			// fleet's fixed cost, not ShardCount8's cold heavy shard; the
			// kernel asserts that premise from every worker's
			// partial_skips counter.
			db, ks, q := workload.MultiComponent(8, 16, 2)
			dir, err := os.MkdirTemp("", "cqabench-cluster")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { os.RemoveAll(dir) })
			snapPath := filepath.Join(dir, "base.cqs")
			if err := store.WriteFile(snapPath, db, ks); err != nil {
				b.Fatal(err)
			}
			peers := make([]string, 8)
			for s := range peers {
				wdir := filepath.Join(dir, fmt.Sprintf("w%d", s))
				if err := os.MkdirAll(wdir, 0o755); err != nil {
					b.Fatal(err)
				}
				w, err := cluster.NewWorker(cluster.WorkerConfig{Dir: wdir})
				if err != nil {
					b.Fatal(err)
				}
				ws := httptest.NewServer(w.Handler())
				b.Cleanup(func() { ws.Close(); w.Close() })
				peers[s] = ws.URL
			}
			qs := q.String()
			co, err := cluster.New(cluster.Config{
				Config:   server.Config{SnapshotPath: snapPath},
				Query:    qs,
				Peers:    peers,
				ShardDir: filepath.Join(dir, "shards"),
			})
			if err != nil {
				b.Fatal(err)
			}
			cts := httptest.NewServer(co.Handler())
			b.Cleanup(func() { cts.Close(); co.Close() })
			in := repairs.MustInstance(db, ks, q)
			want, err := in.CountFactorized(0)
			if err != nil {
				b.Fatal(err)
			}
			probe := cts.URL + "/v1/count?format=json&q=" + url.QueryEscape(qs)
			wantCount := []byte(fmt.Sprintf(`"count":"%s"`, want))
			fanned := []byte(`"engine":"fanout"`)
			fanOut := func() {
				resp, err := http.Get(probe)
				if err != nil {
					b.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("probe: status %d err %v: %s", resp.StatusCode, err, body)
				}
				if !bytes.Contains(body, fanned) || !bytes.Contains(body, wantCount) {
					b.Fatalf("probe: want fanned count %s, got %s", want, body)
				}
			}
			skips := func() []int64 {
				out := make([]int64, len(peers))
				for s, p := range peers {
					var st struct {
						Skips int64 `json:"partial_skips"`
					}
					resp, err := http.Get(p + "/v1/stats")
					if err != nil {
						b.Fatal(err)
					}
					err = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
					if err != nil {
						b.Fatal(err)
					}
					out[s] = st.Skips
				}
				return out
			}
			fanOut() // warm-up: every worker ships its partial once
			before := skips()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fanOut()
			}
			b.StopTimer()
			for s, n := range skips() {
				if d := n - before[s]; d != int64(b.N) {
					b.Fatalf("worker %d answered %d of %d conditional fetches with 204; the kernel timed recounts", s, d, b.N)
				}
			}
		}},
		{"ProbeThroughput", func(b *testing.B) {
			// The hot serve path: one exact count probe repeated against a
			// daemon with the shared probe cache on. After the warm-up
			// probe the compiled counter, the priced admission and the
			// rendered result are all memoized under (query, epoch,
			// version), so each iteration is HTTP plus a cache hit. This
			// is the fast side of the ProbeCache gate.
			base, _ := newServeBench(b, 0)
			probe := base + "/v1/count?format=json&q=" + url.QueryEscape("C0('k0','v0')")
			exact := []byte(`"mode":"exact"`)
			serveGet(b, probe, exact)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveGet(b, probe, exact)
			}
		}},
		{"ProbeColdRepeat", func(b *testing.B) {
			// The identical probe loop with the shared cache disabled
			// (-cache-entries 0 in repairctl terms): the slot still keeps
			// its compiled counter, but every probe re-prices admission
			// over all 256 components and re-renders the thousand-digit
			// count string. The slow side of the ProbeCache gate.
			base, _ := newServeBench(b, -1)
			probe := base + "/v1/count?format=json&q=" + url.QueryEscape("C0('k0','v0')")
			exact := []byte(`"mode":"exact"`)
			serveGet(b, probe, exact)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveGet(b, probe, exact)
			}
		}},
		{"ProbeMixed", func(b *testing.B) {
			// A probe stream over a 16-query working set, round-robin,
			// cache on: the steady state of a daemon serving a small hot
			// set, every query a cache hit after its first probe. Reports
			// per-probe latency quantiles as p50-ns/op and p99-ns/op.
			base, _ := newServeBench(b, 0)
			probes := make([]string, 16)
			exact := []byte(`"mode":"exact"`)
			for i := range probes {
				qs := fmt.Sprintf("C%d('k%d','v0')", i%8, i/8)
				probes[i] = base + "/v1/count?format=json&q=" + url.QueryEscape(qs)
			}
			for _, p := range probes {
				serveGet(b, p, exact)
			}
			lat := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				serveGet(b, probes[i%len(probes)], exact)
				lat = append(lat, time.Since(t0))
			}
			b.StopTimer()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[(len(lat)-1)*50/100].Nanoseconds()), "p50-ns/op")
			b.ReportMetric(float64(lat[(len(lat)-1)*99/100].Nanoseconds()), "p99-ns/op")
		}},
		{"AdmissionOverhead", func(b *testing.B) {
			// The admission ladder alone: /v1/explain prices the full
			// partition disjunction (256 components through the plan cost
			// model) without running the count. With the cache on, the
			// priced admission is memoized per (query, epoch, version), so
			// this measures the floor a probe pays before any counting.
			base, q := newServeBench(b, 0)
			probe := base + "/v1/explain?q=" + url.QueryEscape(q)
			mode := []byte(`"admission":"exact"`)
			serveGet(b, probe, mode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveGet(b, probe, mode)
			}
		}},
		{"ColdProbePadded0", coldProbePadded(0)},
		{"ColdProbePadded100k", coldProbePadded(100_000)},
		{"JournalAppend1k", journalAppend(1_000)},
		{"JournalAppend100k", journalAppend(100_000)},
		{"RecountRebuildMultiComp", func(b *testing.B) {
			// Rebuild-from-scratch baseline for RecountAfterDelta: parse the
			// text instance, decompose blocks, build the index and count —
			// the cost a build-once pipeline pays for every delta.
			db, ks, q := workload.MultiComponent(64, 4, 4)
			var text bytes.Buffer
			if err := relational.WriteInstance(&text, db, ks); err != nil {
				b.Fatal(err)
			}
			data := text.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pdb, pks, err := relational.ParseInstance(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				in := repairs.MustInstance(pdb, pks, q)
				if _, err := in.CountFactorized(0); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// coldProbePadded is the ColdProbePadded kernel at n filler blocks: one
// cold exact count per iteration, served through the daemon's handler
// with the shared cache off and a fresh query text, over Employee(20) —
// the SameDept query reads two of its blocks — padded with n key-unique
// filler blocks. A cold probe's cost should follow the blocks the query
// reads, so the 0 and 100k kernels should time within 2× of each other.
func coldProbePadded(n int) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewPCG(11, 20))
		db, ks := workload.Employee(rng, 20, 5, 0.4)
		if n > 0 {
			db, ks = workload.WithFiller(db, ks, "Filler", n, 1)
		}
		path := filepath.Join(b.TempDir(), "padded.cqs")
		if err := store.WriteFile(path, db, ks); err != nil {
			b.Fatal(err)
		}
		s, err := server.New(server.Config{SnapshotPath: path, Workers: 1, CacheEntries: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		h := s.Handler()
		exact := []byte(`"mode":"exact"`)
		probe := func(i int) {
			q := fmt.Sprintf("exists x%d, y%d, z%d . (Employee(1, x%d, y%d) & Employee(2, z%d, y%d))", i, i, i, i, i, i, i)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/count?q="+url.QueryEscape(q), nil))
			if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), exact) {
				b.Fatalf("cold count: status %d: %s", rec.Code, rec.Body)
			}
		}
		// Warm-up: the first probe builds the substrate's lazy, shared
		// structures (membership buckets, key partition, aggregates).
		probe(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 1; i <= b.N; i++ {
			probe(i)
		}
	}
}

// journalAppend is the JournalAppend kernel on a snapshot of n facts: the
// daemon's write path for a one-op batch (apply to the served live
// instance, then an fsync'd journal append), alternating an insert and a
// delete of one fact. The append does not reload the snapshot, so its
// cost should not grow with n.
func journalAppend(n int) func(b *testing.B) {
	return func(b *testing.B) {
		db, ks, _ := workload.MultiComponent(10, 10, 2) // 200 facts
		db, ks = workload.WithFiller(db, ks, "Filler", n-db.Len(), 1)
		path := filepath.Join(b.TempDir(), "journal.cqs")
		if err := store.WriteFile(path, db, ks); err != nil {
			b.Fatal(err)
		}
		snap, err := repaircount.OpenSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { snap.Close() })
		ops := []workload.Update{
			{Fact: relational.NewFact("C0", "k0", "v9")},
			{Del: true, Fact: relational.NewFact("C0", "k0", "v9")},
		}
		apply := func(i int) {
			if changed, err := server.ApplyJournal(snap, path, ops[i%2:i%2+1]); err != nil || len(changed) != 1 {
				b.Fatalf("append %d: %d ops changed the instance, err %v", i, len(changed), err)
			}
		}
		// Warm-up: the first mutation builds the index's lazy access
		// paths (membership buckets, posting lists, domain refcounts).
		apply(0)
		apply(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			apply(i)
		}
	}
}

// speedupGate is one host-speed-independent regression gate: the ratio
// slow/fast must clear floor× and must not halve relative to the
// committed baseline snapshot.
type speedupGate struct {
	label      string
	slow, fast string // kernel names; fast is the engine under guard
	floor      float64
}

// gates lists the guarded engines: the factorized exact counter, the
// exact-counting planner (planned component-local IE must beat the forced
// Gray walk on the ie-heavy workload), the snapshot loader, the
// incremental recount path (recount-after-delta must beat
// rebuild-from-scratch), sharded scale-out (the 8-shard fleet critical
// path must beat the single-shard count ≥ 4× — near-linear once the merge
// and the bin-packing imbalance are paid), and the distributed-serving
// overhead (one coordinator probe over a real HTTP fleet must stay within
// 2× of the in-process 8-shard critical path, i.e. ShardCount8 /
// ClusterCount8 ≥ 0.5 — the fan-out, wire codec and verification ladder
// must not dominate the counting), the serve-path probe cache (a hot
// repeated probe against a cache-enabled daemon must beat the identical
// loop with the shared cache disabled ≥ 10× — admission pricing and
// result rendering must be memoized, not recomputed, on the hot path),
// and circuit reuse (a post-delta recount through the cached d-DNNF
// circuits must beat the same delta stream on the Gray walk ≥ 10× —
// size-only deltas must re-evaluate circuits, never re-enumerate the
// choice space).
var gates = []speedupGate{
	{label: "ExactFactorized", slow: "ExactEnum", fast: "ExactFactorized", floor: 10},
	{label: "PlannedIE", slow: "ExactGrayIEHeavy", fast: "ExactPlannedIE", floor: 10},
	{label: "SnapshotLoad", slow: "ParseIndexMultiComp", fast: "SnapshotLoadMultiComp", floor: 10},
	{label: "IncrementalRecount", slow: "RecountRebuildMultiComp", fast: "RecountAfterDelta", floor: 10},
	{label: "ShardScaling", slow: "ShardCount1", fast: "ShardCount8", floor: 4},
	{label: "ClusterOverhead", slow: "ShardCount8", fast: "ClusterCount8", floor: 0.5},
	{label: "ProbeCache", slow: "ProbeColdRepeat", fast: "ProbeThroughput", floor: 10},
	{label: "CompileReuse", slow: "CompileRecountGray", fast: "CompileRecount", floor: 10},
}

// checkBaseline guards the hot engines against performance regressions
// with host-speed-independent ratios, comparing each gate's slow/fast
// kernel speedup against the committed snapshot and failing when a
// speedup halves or drops below its floor. Every failure names the
// breaching gate and the kernel(s) responsible, so a red CI run points at
// the engine to look at, not just the baseline file. A gate is skipped
// (not failed) when the baseline file predates its kernels.
func checkBaseline(report benchReport, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	kernelNs := func(r benchReport, name string) float64 {
		for _, b := range r.Benchmarks {
			if b.Name == name {
				return b.NsPerOp
			}
		}
		return 0
	}
	for _, g := range gates {
		den := kernelNs(report, g.fast)
		num := kernelNs(report, g.slow)
		if num == 0 || den == 0 {
			missing := g.fast
			if num == 0 {
				missing = g.slow
			}
			return fmt.Errorf("gate %s: this run is missing kernel %s", g.label, missing)
		}
		now := num / den
		if now < g.floor {
			return fmt.Errorf("gate %s breached by kernel %s: speedup %.1fx over %s is below the required %gx",
				g.label, g.fast, now, g.slow, g.floor)
		}
		bden, bnum := kernelNs(base, g.fast), kernelNs(base, g.slow)
		if bden == 0 || bnum == 0 {
			fmt.Printf("baseline ok: gate %s speedup %.1fx (kernels not in %s yet)\n", g.label, now, path)
			continue
		}
		snap := bnum / bden
		if now < snap/2 {
			return fmt.Errorf("gate %s breached by kernel %s: speedup %.1fx vs %.1fx in %s (> 2x regression over %s)",
				g.label, g.fast, now, snap, path, g.slow)
		}
		fmt.Printf("baseline ok: gate %s speedup %.1fx (snapshot %.1fx)\n", g.label, now, snap)
	}
	return nil
}

// runKernels times every kernel benchmark into a report.
func runKernels() benchReport {
	report := benchReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, k := range kernelBenchmarks() {
		r := testing.Benchmark(k.fn)
		rec := benchRecord{
			Name:        k.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			rec.Extra = make(map[string]float64, len(r.Extra))
			for name, v := range r.Extra {
				rec.Extra[name] = v
			}
		}
		report.Benchmarks = append(report.Benchmarks, rec)
	}
	return report
}

// writeBenchJSON writes a kernel report as BENCH_<n>.json.
func writeBenchJSON(report benchReport) (string, error) {
	path, err := nextBenchPath()
	if err != nil {
		return "", err
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return "", err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// nextBenchPath returns BENCH_<n>.json for the smallest n ≥ 1 not yet
// present in the current directory.
func nextBenchPath() (string, error) {
	for n := 1; n < 10_000; n++ {
		path := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path, nil
		} else if err != nil {
			return "", err
		}
	}
	return "", fmt.Errorf("cqabench: no free BENCH_<n>.json slot")
}
