package repairs

import (
	"math/big"
	"math/rand/v2"
	"testing"

	"repaircount/internal/core"
	"repaircount/internal/eval"
	"repaircount/internal/query"
	"repaircount/internal/relational"
	"repaircount/internal/workload"
)

// The FPRAS draws only the coordinates of the compactor's read set (the
// blocks of the query's predicates). These tests pin the soundness
// argument: membership never depends on a coordinate outside the read
// set, and blocks the query cannot read change neither the draws nor the
// hit count — only |U|.

// readSetInstances is the read-set corpus: the factorized corpus, the
// structured families, and each of them padded with conflicting blocks of
// an unrelated predicate, so the read set is a strict subset.
func readSetInstances(t *testing.T, seed uint64) []*Instance {
	t.Helper()
	out := factorizedInstances(t, seed)
	db, ks, q := workload.MultiComponent(3, 3, 2)
	out = append(out, MustInstance(db, ks, q))
	db, ks, q = workload.IEHeavy(2, 6, 2)
	out = append(out, MustInstance(db, ks, q))
	db, ks, q = workload.SkewedComponents(4, 6, 1.0)
	out = append(out, MustInstance(db, ks, q))
	for _, in := range out[:len(out):len(out)] {
		pdb, pks := workload.WithFiller(in.DB, in.Keys, "Pad", 6, 3)
		out = append(out, MustInstance(pdb, pks, in.Q))
	}
	return out
}

func TestCompactorReadSetComplete(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 77))
		for ii, in := range readSetInstances(t, seed) {
			c, err := in.Compactor()
			if err != nil {
				t.Fatalf("seed %d instance %d: %v", seed, ii, err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("seed %d instance %d: %v", seed, ii, err)
			}
			read := make([]bool, len(c.Doms))
			for _, i := range c.Reads {
				read[i] = true
			}
			member := c.MemberFunc()
			tuple := make([]core.Element, len(c.Doms))
			draw := func(i int) { tuple[i] = c.Doms[i].Elems[rng.IntN(c.Doms[i].Size())] }
			for trial := 0; trial < 200; trial++ {
				for i := range tuple {
					draw(i)
				}
				want := member(tuple)
				for redraw := 0; redraw < 3; redraw++ {
					for i := range tuple {
						if !read[i] {
							draw(i)
						}
					}
					if got := member(tuple); got != want {
						t.Fatalf("seed %d instance %d (%s): member flipped from %v to %v when only unread coordinates changed",
							seed, ii, in.Q, want, got)
					}
				}
			}
		}
	}
}

// Padding an instance with blocks of an unrelated predicate leaves a
// fixed-seed run's draws, and so its hits, unchanged; the estimate scales
// exactly by the padding's Π|B_i| (a power of two here, so the big.Float
// arithmetic scales exactly too).
func TestFPRASPaddingInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	db, ks := workload.Employee(rng, 12, 3, 0.6)
	q := workload.SameDeptQuery(1, 2)
	base := MustInstance(db, ks, q)
	for _, pad := range []struct {
		name   string
		blocks int
		size   int
		factor int64
	}{
		{"singletons", 1000, 1, 1},
		{"pairs", 5, 2, 32},
	} {
		t.Run(pad.name, func(t *testing.T) {
			pdb, pks := workload.WithFiller(db, ks, "Pad", pad.blocks, pad.size)
			padded := MustInstance(pdb, pks, q)
			if len(padded.Blocks) != len(base.Blocks)+pad.blocks {
				t.Fatalf("padded instance has %d blocks, want %d", len(padded.Blocks), len(base.Blocks)+pad.blocks)
			}
			check := func(what string, b, p core.Estimate) {
				t.Helper()
				if b.Samples != p.Samples || b.Hits != p.Hits {
					t.Fatalf("%s: padded run has %d hits in %d samples, base %d in %d", what, p.Hits, p.Samples, b.Hits, b.Samples)
				}
				scaled := new(big.Float).Mul(b.Value, new(big.Float).SetInt64(pad.factor))
				if scaled.Cmp(p.Value) != 0 {
					t.Fatalf("%s: padded estimate %v, want base %v × %d", what, p.Value, b.Value, pad.factor)
				}
			}
			for _, workers := range []int{1, 3} {
				b, err := base.ApxParallelWithSamples(3000, workers, 42)
				if err != nil {
					t.Fatal(err)
				}
				p, err := padded.ApxParallelWithSamples(3000, workers, 42)
				if err != nil {
					t.Fatal(err)
				}
				if b.Hits == 0 || b.Hits == b.Samples {
					t.Fatalf("degenerate fixture: %d hits in %d samples", b.Hits, b.Samples)
				}
				check("parallel", b, p)
			}
			b, err := base.ApxWithSamples(3000, rand.New(rand.NewPCG(9, 10)))
			if err != nil {
				t.Fatal(err)
			}
			p, err := padded.ApxWithSamples(3000, rand.New(rand.NewPCG(9, 10)))
			if err != nil {
				t.Fatal(err)
			}
			check("serial", b, p)
			b, err = base.KarpLubyParallel(2000, 2, 7)
			if err != nil {
				t.Fatal(err)
			}
			p, err = padded.KarpLubyParallel(2000, 2, 7)
			if err != nil {
				t.Fatal(err)
			}
			check("karp-luby", b, p)
			// Fresh counters over one shared substrate — the way a server
			// builds one per uncached query over its snapshot — share the
			// memoized domains and draw exactly what a standalone instance
			// draws, before and after a delta through a sibling.
			live := eval.NewLiveInstance(pdb, pks, relational.NewBlockSeq(relational.Blocks(pdb, pks)), eval.IndexDatabase(pdb))
			first, err := NewLiveInstance(live, q)
			if err != nil {
				t.Fatal(err)
			}
			b, err = base.ApxParallelWithSamples(3000, 2, 42)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				fresh, err := NewLiveInstance(live, q)
				if err != nil {
					t.Fatal(err)
				}
				if &fresh.Domains()[0] != &first.Domains()[0] {
					t.Fatal("counters over one substrate rendered their own domains")
				}
				p, err := fresh.ApxParallelWithSamples(3000, 2, 42)
				if err != nil {
					t.Fatal(err)
				}
				check("shared substrate", b, p)
			}
			extra := relational.NewFact("Pad", "f0", "extra")
			if _, err := first.Apply(Insert(extra)); err != nil {
				t.Fatal(err)
			}
			mutated := pdb.Clone()
			mutated.Add(extra)
			want, err := MustInstance(mutated, pks, q).ApxParallelWithSamples(3000, 2, 42)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewLiveInstance(live, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range []*Instance{first, fresh} {
				got, err := in.ApxParallelWithSamples(3000, 2, 42)
				if err != nil {
					t.Fatal(err)
				}
				if got.Samples != want.Samples || got.Hits != want.Hits || got.Value.Cmp(want.Value) != 0 {
					t.Fatalf("after a delta: shared-substrate run %v (%d hits), standalone %v (%d hits)", got.Value, got.Hits, want.Value, want.Hits)
				}
			}
			// Padding blocks no larger than the base's leave m, and so the
			// (ε,δ) sample count, unchanged.
			bt, err := base.ApxSampleBound(0.25, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := padded.ApxSampleBound(0.25, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if bt.Cmp(pt) != 0 {
				t.Fatalf("padding moved the sample bound from %s to %s", bt, pt)
			}
			// The (ε,δ) run draws exactly the priced number of samples.
			full, err := padded.ApxParallel(0.25, 0.05, 2, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !pt.IsInt64() || int64(full.Samples) != pt.Int64() {
				t.Fatalf("FPRAS ran %d samples, priced %s", full.Samples, pt)
			}
		})
	}
}

// ApxSampleBound prices the FPRAS without building the compactor; it must
// stay bit-identical to the bound computed from the compactor's own
// domains and keywidth, which is what the FPRAS runs.
func TestApxSampleBoundMatchesCompactor(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		for ii, in := range readSetInstances(t, seed) {
			c, err := in.Compactor()
			if err != nil {
				t.Fatal(err)
			}
			for _, acc := range [][2]float64{{0.25, 0.05}, {0.1, 0.01}, {0.5, 0.3}} {
				got, err := in.ApxSampleBound(acc[0], acc[1])
				if err != nil {
					t.Fatal(err)
				}
				want := core.SampleBound(core.MaxDomainSize(c.Doms), c.K, acc[0], acc[1])
				if got.Cmp(want) != 0 {
					t.Fatalf("seed %d instance %d at %v: ApxSampleBound %s, compactor bound %s", seed, ii, acc, got, want)
				}
			}
		}
	}
	db, ks := workload.PairsDatabase(2)
	fo := MustInstance(db, ks, query.MustParse("!R('k0', 'a')"))
	if _, err := fo.ApxSampleBound(0.25, 0.05); err == nil {
		t.Fatal("ApxSampleBound priced a non-∃FO⁺ query")
	}
}
