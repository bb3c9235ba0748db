package repairs

import (
	"math/big"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repaircount/internal/query"
	"repaircount/internal/relational"
	"repaircount/internal/workload"
)

// Differential suite for the factorized exact counter: both engines (box
// counters and matcher mask), sequential and work-stealing parallel, pinned
// to the enumeration ground truth across coupled, disconnected and
// degenerate instances.

// factorizedInstances covers the structural extremes: fully-coupled
// queries, disconnected per-predicate disjuncts, per-block factorization,
// irrelevant blocks, empty relevant set, and truth constants.
func factorizedInstances(t *testing.T, seed uint64) []*Instance {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 31))
	var out []*Instance

	// Example 1.1 scaled: one join query coupling everything.
	db, ks := workload.Employee(rng, 4+rng.IntN(6), 3, 0.6)
	out = append(out, MustInstance(db, ks, workload.SameDeptQuery(1, 2)))

	// Two keyed relations, varying block counts.
	db2, ks2, err := workload.Generate(rng, []workload.RelationSpec{
		{Pred: "R", KeyWidth: 1, Arity: 2, NumBlocks: 2 + rng.IntN(4),
			BlockSizes: workload.Uniform{Lo: 1, Hi: 3}, NumValues: 2},
		{Pred: "S", KeyWidth: 1, Arity: 2, NumBlocks: 2 + rng.IntN(3),
			BlockSizes: workload.Uniform{Lo: 1, Hi: 2}, NumValues: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Coupled join; disconnected per-predicate disjuncts; self-join;
	// per-block factorizing constant query.
	for _, src := range []string{
		"exists x, y, z . (R(x, y) & S(x, z))",
		"(exists x . R(x, 'v0')) | (exists y . S(y, 'v1'))",
		"exists x, y . (R(x, 'v0') & R(y, 'v1'))",
		"exists x . R(x, 'v1')",
	} {
		out = append(out, MustInstance(db2, ks2, query.MustParse(src)))
	}

	// Structured multi-component instance.
	db3, ks3, q3 := workload.MultiComponent(2+rng.IntN(2), 2, 2)
	out = append(out, MustInstance(db3, ks3, q3))

	// Irrelevant conflicting blocks only (empty relevant set), plus truth
	// constants over a conflicting database.
	db4 := relational.MustDatabase(
		relational.NewFact("Noise", "1", "a"),
		relational.NewFact("Noise", "1", "b"),
		relational.NewFact("Noise", "2", "a"),
	)
	ks4 := relational.Keys(map[string]int{"Noise": 1, "R": 1})
	out = append(out, MustInstance(db4, ks4, query.MustParse("exists x . R(x, 'a')")))
	out = append(out, MustInstance(db4, ks4, query.MustParse("true")))
	out = append(out, MustInstance(db4, ks4, query.MustParse("false")))
	// Ground query entailed by a conflicting block's singleton sibling.
	out = append(out, MustInstance(db4, ks4, query.MustParse("Noise('2', 'a')")))
	// Ground query on a conflicting block: entailed by half the repairs.
	out = append(out, MustInstance(db4, ks4, query.MustParse("Noise('1', 'a')")))
	return out
}

func TestFactorizedDifferential(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		for ii, in := range factorizedInstances(t, seed) {
			want, err := in.CountEnumUCQ(0)
			if err != nil {
				t.Fatalf("seed %d instance %d: ground truth: %v", seed, ii, err)
			}
			check := func(name string, got *big.Int, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("seed %d instance %d: %s: %v", seed, ii, name, err)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("seed %d instance %d: %s = %s, enumeration = %s", seed, ii, name, got, want)
				}
			}
			got, err := in.CountFactorized(0)
			check("CountFactorized", got, err)
			for _, workers := range []int{1, 2, 3, 8} {
				got, err := in.CountFactorizedParallel(0, workers)
				check("CountFactorizedParallel", got, err)
			}
			// Masked engine, sequential and parallel.
			got, err = in.countFactorized(0, 1, -1, EngineAuto, nil)
			check("masked sequential", got, err)
			got, err = in.countFactorized(0, 4, -1, EngineAuto, nil)
			check("masked parallel", got, err)
			// Tiny hom budget: overflow into the masked path on any
			// instance with ≥ 2 homomorphisms, exercise dedup otherwise.
			got, err = in.countFactorized(0, 2, 1, EngineAuto, nil)
			check("hom-budget overflow", got, err)
		}
	}
}

// Property: factorized and enumeration counters agree on random EP
// instances for random worker counts, on both engines.
func TestFactorizedMatchesEnumProperty(t *testing.T) {
	prop := func(seed uint64, w uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 271))
		in := randomEPInstance(rng)
		want, err := in.CountEnumUCQ(0)
		if err != nil {
			return false
		}
		got, err := in.CountFactorizedParallel(0, 1+int(w%7))
		if err != nil || got.Cmp(want) != 0 {
			return false
		}
		masked, err := in.countFactorized(0, 1+int(w%3), -1, EngineAuto, nil)
		return err == nil && masked.Cmp(want) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The factorized budget bounds the per-component work Σ_c Π|B_i|, so a
// multi-component instance far beyond the enumeration budget stays exactly
// countable — the point of the decomposition. #Q on MultiComponent(c, 2, 2)
// is 4^c − 2^c in closed form.
func TestFactorizedBeyondEnumerationBudget(t *testing.T) {
	db, ks, q := workload.MultiComponent(8, 2, 2)
	in := MustInstance(db, ks, q)
	if _, err := in.CountEnumUCQ(1000); err != ErrBudget {
		t.Fatalf("enumeration within budget 1000: err = %v", err)
	}
	want := new(big.Int).Sub(
		new(big.Int).Exp(big.NewInt(4), big.NewInt(8), nil),
		new(big.Int).Exp(big.NewInt(2), big.NewInt(8), nil))
	got, err := in.CountFactorized(1000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("factorized = %s, want %s", got, want)
	}
	// A genuinely over-budget component still errors — on a cold instance:
	// the budget bounds work actually performed, and on the warm instance
	// above the structural component memo has already absorbed it.
	if _, err := MustInstance(db, ks, q).CountFactorized(16); err != ErrBudget {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if _, err := in.CountFactorized(16); err != nil {
		t.Fatalf("memoized recount within budget 16: err = %v", err)
	}
}

// Worker count must never change the exact count, on either engine.
func TestFactorizedWorkerDeterminism(t *testing.T) {
	db, ks, q := workload.MultiComponent(4, 3, 3)
	in := MustInstance(db, ks, q)
	want, err := in.CountFactorized(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, homBudget := range []int{0, -1} {
		for _, workers := range []int{0, 1, 2, 3, 5, 16} {
			got, err := in.countFactorized(0, workers, homBudget, EngineAuto, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("homBudget %d workers %d: %s, want %s", homBudget, workers, got, want)
			}
		}
	}
}

// Regression: a forced-engine call must not poison the instance-memoized
// scratch used by the default path (the masked scratch has no box
// counters, and vice versa the default factorization differs in shape).
func TestFactorizedScratchMemoIsolation(t *testing.T) {
	db, ks, q := workload.MultiComponent(2, 2, 2)
	in := MustInstance(db, ks, q)
	masked, err := in.countFactorized(0, 1, -1, EngineAuto, nil) // masked engine first
	if err != nil {
		t.Fatal(err)
	}
	got, err := in.CountFactorized(0) // then the default box engine
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(masked) != 0 {
		t.Fatalf("box engine after masked = %s, masked = %s", got, masked)
	}
	want, err := in.CountEnumUCQ(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("count = %s, enumeration = %s", got, want)
	}
}

func TestFactorizedRejectsFO(t *testing.T) {
	db := relational.MustDatabase(
		relational.NewFact("R", "1", "a"),
		relational.NewFact("R", "1", "b"),
	)
	ks := relational.Keys(map[string]int{"R": 1})
	in := MustInstance(db, ks, query.MustParse("!R('1', 'a')"))
	if _, err := in.CountFactorized(0); err == nil {
		t.Fatal("FO query accepted")
	}
}

// The shared relevant-block split must be computed once and reused.
func TestRelevantSplitMemo(t *testing.T) {
	in := exampleInstance(t)
	s1 := in.relevant()
	s2 := in.relevant()
	if s1 != s2 {
		t.Fatal("relevant split not memoized")
	}
	preds := map[string]bool{}
	for _, p := range in.UCQ.Predicates() {
		preds[p] = true
	}
	var wantPos []int
	for i, b := range in.Blocks {
		if preds[b.Key.Pred] {
			wantPos = append(wantPos, i)
		}
	}
	if !slices.Equal(s1.relPos, wantPos) {
		t.Fatalf("relevant positions %v, want %v", s1.relPos, wantPos)
	}
	for i, p := range s1.relPos {
		if !s1.rel[i].Key.Equal(in.Blocks[p].Key) {
			t.Fatalf("relevant block %d is %v, want %v", i, s1.rel[i].Key, in.Blocks[p].Key)
		}
	}
	product := new(big.Int).Mul(s1.inner, s1.outer)
	if product.Cmp(in.TotalRepairs()) != 0 {
		t.Fatalf("inner × outer = %s, total = %s", product, in.TotalRepairs())
	}
}
