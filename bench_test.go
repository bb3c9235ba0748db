package repaircount_test

// Benchmark harness: one benchmark per experiment of the reproduction's
// suite (E01–E15, see DESIGN.md §4 and EXPERIMENTS.md), each timing the
// same code path that cmd/cqabench uses to regenerate the corresponding
// table, plus micro-benchmarks for the hot algorithmic kernels (block
// decomposition, homomorphism search, union-of-boxes counting, the FPRAS
// sampler, the NTT simulator).
//
// Regenerate every table with:   go run ./cmd/cqabench
// Time everything with:          go test -bench=. -benchmem

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repaircount"
	"repaircount/internal/core"
	"repaircount/internal/eval"
	"repaircount/internal/experiments"
	"repaircount/internal/ntt"
	"repaircount/internal/query"
	"repaircount/internal/relational"
	"repaircount/internal/repairs"
	"repaircount/internal/server"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// benchExperiment drives one experiment end to end per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	p := experiments.Params{Seed: 7, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE01ExampleOneOne(b *testing.B)     { benchExperiment(b, "E01") }
func BenchmarkE02DecisionVsExact(b *testing.B)   { benchExperiment(b, "E02") }
func BenchmarkE03NTTSpan(b *testing.B)           { benchExperiment(b, "E03") }
func BenchmarkE04CompactorUnfold(b *testing.B)   { benchExperiment(b, "E04") }
func BenchmarkE05HardnessReduction(b *testing.B) { benchExperiment(b, "E05") }
func BenchmarkE06FPRASAccuracy(b *testing.B)     { benchExperiment(b, "E06") }
func BenchmarkE07SampleComplexity(b *testing.B)  { benchExperiment(b, "E07") }
func BenchmarkE08FPRASComparison(b *testing.B)   { benchExperiment(b, "E08") }
func BenchmarkE09SATReduction(b *testing.B)      { benchExperiment(b, "E09") }
func BenchmarkE10LambdaProblems(b *testing.B)    { benchExperiment(b, "E10") }
func BenchmarkE11KeywidthOne(b *testing.B)       { benchExperiment(b, "E11") }
func BenchmarkE12SpanLL(b *testing.B)            { benchExperiment(b, "E12") }
func BenchmarkE13GraphProblems(b *testing.B)     { benchExperiment(b, "E13") }
func BenchmarkE14SafePlan(b *testing.B)          { benchExperiment(b, "E14") }
func BenchmarkE15ProbDBReduction(b *testing.B)   { benchExperiment(b, "E15") }

// --- micro-benchmarks on the algorithmic kernels ---

func employeeWorkload(b *testing.B, n int) (*relational.Database, *relational.KeySet, query.Formula) {
	b.Helper()
	rng := rand.New(rand.NewPCG(11, uint64(n)))
	db, ks := workload.Employee(rng, n, 5, 0.4)
	return db, ks, workload.SameDeptQuery(1, 2)
}

func BenchmarkBlocksDecomposition(b *testing.B) {
	db, ks, _ := employeeWorkload(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := relational.Blocks(db, ks); len(got) == 0 {
			b.Fatal("no blocks")
		}
	}
}

func BenchmarkTotalRepairs(b *testing.B) {
	db, ks, _ := employeeWorkload(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if relational.NumRepairs(db, ks).Sign() <= 0 {
			b.Fatal("bad total")
		}
	}
}

func BenchmarkDecisionLemma35(b *testing.B) {
	db, ks, q := employeeWorkload(b, 2000)
	in := repairs.MustInstance(db, ks, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.HasRepairEntailing()
	}
}

func BenchmarkCertificateEnumeration(b *testing.B) {
	db, ks, q := employeeWorkload(b, 500)
	in := repairs.MustInstance(db, ks, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for range in.Certificates() {
			n++
		}
	}
}

func BenchmarkCountIE(b *testing.B) {
	db, ks, q := employeeWorkload(b, 200)
	in := repairs.MustInstance(db, ks, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.CountIE(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSafePlanJoin(b *testing.B) {
	rng := rand.New(rand.NewPCG(13, 14))
	db, ks, err := workload.Generate(rng, []workload.RelationSpec{
		{Pred: "R", KeyWidth: 1, Arity: 2, NumBlocks: 128, BlockSizes: workload.Fixed{N: 2}, NumValues: 3},
		{Pred: "S", KeyWidth: 1, Arity: 2, NumBlocks: 128, BlockSizes: workload.Fixed{N: 2}, NumValues: 3},
	})
	if err != nil {
		b.Fatal(err)
	}
	q := query.MustParse("exists x, y, z . (R(x, y) & S(x, z))")
	in := repairs.MustInstance(db, ks, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := in.CountSafePlan(); !ok {
			b.Fatal("unsafe")
		}
	}
}

// BenchmarkExactEnum / BenchmarkExactFactorized count the same structured
// instance — 8 independent components of 2 blocks × 2 facts, a 2^16 repair
// space — by plain enumeration (one fresh index per repair) and by the
// factorized engine (Σ_c per-component Gray-code spaces with
// delta-maintained match state: 32 inner steps total). The ratio is the
// headline speedup of the factorized counter and is gated in CI via
// cqabench -baseline.
func BenchmarkExactEnum(b *testing.B) {
	db, ks, q := workload.MultiComponent(8, 2, 2)
	in := repairs.MustInstance(db, ks, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.CountEnumUCQ(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactFactorized(b *testing.B) {
	db, ks, q := workload.MultiComponent(8, 2, 2)
	in := repairs.MustInstance(db, ks, q)
	if _, err := in.CountFactorized(0); err != nil { // warm the memoized factorization
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
}

// BenchmarkExactGrayIEHeavy / BenchmarkExactPlannedIE count the same
// ie-heavy instance — one 20-block component (2^20 states) with 4 boxes —
// with the Gray walk forced and with the planner, which assigns
// component-local inclusion–exclusion (≤ 15 subset nodes). The ratio is
// the headline speedup of the exact-counting planner and is gated in CI
// via cqabench -baseline (gate PlannedIE).
func BenchmarkExactGrayIEHeavy(b *testing.B) {
	db, ks, q := workload.IEHeavy(1, 20, 4)
	in := repairs.MustInstance(db, ks, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.ResetComponentMemo() // measure the walk, not the memo hit
		if _, err := in.CountGray(1<<21, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactPlannedIE(b *testing.B) {
	db, ks, q := workload.IEHeavy(1, 20, 4)
	in := repairs.MustInstance(db, ks, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.ResetComponentMemo() // measure the IE pass, not the memo hit
		if _, err := in.CountFactorized(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanSelection measures end-to-end plan construction on a cold
// instance: block decomposition, index build, box extraction and the
// per-component cost model.
func BenchmarkPlanSelection(b *testing.B) {
	db, ks, q := workload.IEHeavy(4, 16, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := repairs.MustInstance(db, ks, q)
		if _, err := in.ExplainPlan(repairs.EngineAuto); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFactorizedDeltaStep isolates the inner enumeration loop: one
// component of 16 size-2 blocks is a 65536-state Gray walk per op, so the
// reported allocs/op bound the allocations of 65536 inner steps (the loop
// itself is allocation-free; the fixed per-call big.Int result accounting
// is all that shows).
func BenchmarkFactorizedDeltaStep(b *testing.B) {
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
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/65536, "ns/state")
}

func BenchmarkFPRASSample(b *testing.B) {
	db, ks, q := employeeWorkload(b, 500)
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
}

// BenchmarkFPRASPadded runs the full Theorem 6.2 FPRAS (ε=0.25, δ=0.05,
// one worker) for a keywidth-2 query over ~20 Employee blocks padded with
// 1000 key-unique filler blocks: the shape of a served approximate probe,
// whose query reads few of the database's blocks. A sample's cost should
// follow the blocks the query reads, not the filler.
func BenchmarkFPRASPadded(b *testing.B) {
	rng := rand.New(rand.NewPCG(11, 20))
	db, ks := workload.Employee(rng, 20, 5, 0.4)
	db, ks = workload.WithFiller(db, ks, "Filler", 1000, 1)
	in := repairs.MustInstance(db, ks, workload.SameDeptQuery(1, 2))
	if n := len(in.Blocks); n != 1020 {
		b.Fatalf("fixture has %d blocks, want 1020", n)
	}
	samples := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := in.ApxParallel(0.25, 0.05, 1, 42)
		if err != nil {
			b.Fatal(err)
		}
		samples = est.Samples
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// BenchmarkColdProbePadded serves one cold exact count per iteration
// through the daemon's handler: the SameDept query over an Employee
// instance of 20 ids, padded with 0 or 100k key-unique filler blocks.
// The shared cache is off and every iteration's query text is fresh, so
// each probe parses, builds a counter, prices its admission and counts.
// A cold probe's cost should follow the blocks the query reads: the two
// sizes should time within 2× of each other.
func BenchmarkColdProbePadded(b *testing.B) {
	for _, n := range []int{0, 100_000} {
		h := paddedDaemon(b, n)
		b.Run(fmt.Sprintf("filler=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coldCount(b, h, i)
			}
		})
	}
}

// paddedDaemon starts a cache-off daemon over Employee(20) plus n filler
// blocks and returns its handler.
func paddedDaemon(b *testing.B, n int) http.Handler {
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
	return s.Handler()
}

// coldCount serves the i-th fresh SameDept count and checks it was
// counted exactly.
func coldCount(b *testing.B, h http.Handler, i int) {
	q := fmt.Sprintf("exists x%d, y%d, z%d . (Employee(1, x%d, y%d) & Employee(2, z%d, y%d))", i, i, i, i, i, i, i)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/count?q="+url.QueryEscape(q), nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"mode":"exact"`) {
		b.Fatalf("cold count: status %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkJournalAppend times the daemon's write path for a one-op
// batch — apply to the served live instance, then an fsync'd journal
// append — on snapshots of 1k and 100k facts. Iterations alternate an
// insert and a delete of one fact, so the instance stays the same size.
// The append validates nothing against the file (the live apply did),
// so its cost should not grow with the snapshot.
func BenchmarkJournalAppend(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
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
		// The parity carries over the benchmark's repeated runs; the first
		// run (b.N = 1) also builds the index's lazy access paths.
		next := 0
		b.Run(fmt.Sprintf("facts=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				changed, err := server.ApplyJournal(snap, path, ops[next%2:next%2+1])
				if err != nil || len(changed) != 1 {
					b.Fatalf("append %d: %d ops changed the instance, err %v", next, len(changed), err)
				}
				next++
			}
		})
	}
}

func BenchmarkFPRASParallel(b *testing.B) {
	db, ks, q := employeeWorkload(b, 500)
	in := repairs.MustInstance(db, ks, q)
	const samples = 20_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.ApxParallelWithSamples(samples, 0, 42); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

func BenchmarkKarpLubySample(b *testing.B) {
	db, ks, q := employeeWorkload(b, 200)
	in := repairs.MustInstance(db, ks, q)
	rng := rand.New(rand.NewPCG(17, 18))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.KarpLuby(64, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNTTSpanSmall(b *testing.B) {
	db := relational.MustDatabase(
		relational.NewFact("Employee", "1", "Bob", "HR"),
		relational.NewFact("Employee", "1", "Bob", "IT"),
		relational.NewFact("Employee", "2", "Alice", "IT"),
		relational.NewFact("Employee", "2", "Tim", "IT"),
	)
	ks := relational.Keys(map[string]int{"Employee": 1})
	q := query.MustParse("exists x, y, z . (Employee(1, x, y) & Employee(2, z, y))")
	in := repairs.MustInstance(db, ks, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ntt.Span(ntt.CQATransducer(in.UCQ, in.Keys, in.DB), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHomomorphismSearch(b *testing.B) {
	db, ks, q := employeeWorkload(b, 1000)
	in := repairs.MustInstance(db, ks, q)
	cq := in.UCQ.Disjuncts[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.HasConsistentHom(cq, in.Idx, ks)
	}
}

func BenchmarkFOEvaluation(b *testing.B) {
	db, ks, _ := employeeWorkload(b, 300)
	_ = ks
	idx := eval.IndexDatabase(db)
	q := query.MustParse("forall i, n, d . (Employee(i, n, d) -> exists m, e . Employee(i, m, e))")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.EvalBoolean(q, idx)
	}
}

func BenchmarkUnionIE(b *testing.B) {
	rng := rand.New(rand.NewPCG(19, 20))
	doms := make([]core.Domain, 24)
	for i := range doms {
		doms[i] = core.MustDomain("d", "e0", "e1", "e2")
	}
	var boxes []core.Selector
	for j := 0; j < 14; j++ {
		var pins []core.Pin
		for _, i := range rng.Perm(len(doms))[:2] {
			pins = append(pins, core.Pin{Index: i, Elem: core.Element("e" + string(rune('0'+rng.IntN(3))))})
		}
		boxes = append(boxes, core.MustSelector(doms, pins...))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CountUnionIE(doms, boxes, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepairEnumeration(b *testing.B) {
	db, ks := workload.PairsDatabase(16)
	blocks := relational.Blocks(db, ks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for range relational.Repairs(blocks) {
			n++
		}
		if n != 1<<16 {
			b.Fatalf("enumerated %d repairs", n)
		}
	}
}

func BenchmarkParseQuery(b *testing.B) {
	src := "exists x, y, z . (Employee(1, x, y) & Employee(2, z, y) & !(Dept(y) -> Large(y)))"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseInstance(b *testing.B) {
	rng := rand.New(rand.NewPCG(21, 22))
	db, ks := workload.Employee(rng, 500, 5, 0.4)
	var sb []byte
	{
		s := ks.String() + db.String()
		sb = []byte(s)
	}
	b.SetBytes(int64(len(sb)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := relational.ParseInstanceString(string(sb)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad measures instance-ready time over the persistent
// store: mmap + validate + alias the arenas into Database, blocks and
// index. Compare against BenchmarkSnapshotParseIndex (the same instance
// through the text codec) for the cold-start speedup, and watch
// allocs/op: the load path is O(1) allocations regardless of size.
func BenchmarkSnapshotLoad(b *testing.B) {
	db, keys, _ := workload.MultiComponent(64, 8, 4)
	// A single-atom query so counter construction stays negligible and the
	// benchmark isolates instance readiness.
	q := query.MustParse("exists x . C0(x, 'v0')")
	path := b.TempDir() + "/bench.cqs"
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := repaircount.WriteSnapshot(f, db, keys); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := repaircount.OpenSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snap.Counter(q); err != nil {
			b.Fatal(err)
		}
		snap.Close()
	}
}

// BenchmarkSnapshotParseIndex is the text-codec counterpart of
// BenchmarkSnapshotLoad: parse plus block decomposition plus index build
// on the identical instance.
func BenchmarkSnapshotParseIndex(b *testing.B) {
	db, keys, _ := workload.MultiComponent(64, 8, 4)
	q := query.MustParse("exists x . C0(x, 'v0')")
	text := keys.String() + db.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pdb, pks, err := repaircount.ParseInstanceString(text)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := repaircount.NewCounter(pdb, pks, q); err != nil {
			b.Fatal(err)
		}
	}
}

// Guard: estimates stay sane under the bench workloads (run as a test so
// `go test` exercises the bench fixtures too).
func TestBenchFixturesSane(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 500))
	db, ks := workload.Employee(rng, 500, 5, 0.4)
	in := repairs.MustInstance(db, ks, workload.SameDeptQuery(1, 2))
	if in.TotalRepairs().Cmp(big.NewInt(0)) <= 0 {
		t.Fatal("bad total")
	}
	c, err := in.Compactor()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCountSharded(b *testing.B) {
	db, ks, q := workload.MultiComponent(8, 10, 2)
	c, err := repaircount.NewCounter(db, ks, q)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.CountSharded(8, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Plan, slice, count and merge from scratch: shard sub-instances
		// are rebuilt per count, so nothing is memoized across iterations.
		if _, err := c.CountSharded(8, 0); err != nil {
			b.Fatal(err)
		}
	}
}
