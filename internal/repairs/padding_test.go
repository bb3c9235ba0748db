package repairs

import (
	"math/rand/v2"
	"testing"

	"repaircount/internal/core"
	"repaircount/internal/query"
	"repaircount/internal/workload"
)

// ordSlots must agree with a plain map over random ordinal sets: dense
// runs, sparse scatters and mixtures of both, in any input order.
func TestOrdSlots(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	for trial := 0; trial < 200; trial++ {
		want := map[int32]int32{}
		var ords []int32
		for len(ords) < rng.IntN(60) {
			o := int32(rng.IntN(400))
			if rng.IntN(2) == 0 {
				o = int32(len(ords)) + 1000 // a dense run
			}
			if _, dup := want[o]; dup {
				continue
			}
			want[o] = int32(len(ords))
			ords = append(ords, o)
		}
		s := newOrdSlots(ords)
		if len(s.slot) > len(ords)*(ordSpanGap+1) {
			t.Fatalf("trial %d: table of %d slots for %d ordinals", trial, len(s.slot), len(ords))
		}
		for o := int32(-2); o < 1100; o++ {
			w, ok := want[o]
			if !ok {
				w = -1
			}
			if got := s.at(o); got != w {
				t.Fatalf("trial %d: at(%d) = %d, want %d (ords %v)", trial, o, got, w, ords)
			}
		}
	}
}

// CountLambda1 reads only the pinned blocks; it must compute the same
// integer as the closed form over every domain, refuse exactly when the
// closed form does, and agree with enumeration, with and without filler
// blocks around the query's.
func TestLambda1MatchesClosedForm(t *testing.T) {
	closed := 0
	for seed := uint64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 41))
		db, ks, err := workload.Generate(rng, []workload.RelationSpec{
			{Pred: "R", KeyWidth: 1, Arity: 2, NumBlocks: 2 + rng.IntN(4),
				BlockSizes: workload.Uniform{Lo: 1, Hi: 3}, NumValues: 3},
			{Pred: "T", Arity: 1, NumBlocks: 3, BlockSizes: workload.Fixed{N: 1}, NumValues: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		pdb, pks := workload.WithFiller(db, ks, "Pad", 7, 2)
		for _, src := range []string{
			"exists x . R(x, 'v1')",
			"R('k0', 'v0')",
			"exists x . (R(x, 'v0') & T(x))",
			"(exists x . R(x, 'v2')) | R('k1', 'v1')",
			"exists x, y . (R(x, 'v0') & R(y, 'v1'))",
		} {
			for _, in := range []*Instance{MustInstance(db, ks, query.MustParse(src)), MustInstance(pdb, pks, query.MustParse(src))} {
				got, err := in.CountLambda1()
				want, wantErr := core.CountUnionOnePin(in.Domains(), in.CertificateBoxes())
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("seed %d %s: CountLambda1 error %v, closed form error %v", seed, src, err, wantErr)
				}
				if err != nil {
					continue
				}
				enum, eerr := in.CountEnumUCQ(0)
				if eerr != nil {
					t.Fatal(eerr)
				}
				if got.Cmp(want) != 0 || got.Cmp(enum) != 0 {
					t.Fatalf("seed %d %s: CountLambda1 %s, closed form %s, enumeration %s", seed, src, got, want, enum)
				}
				closed++
			}
		}
	}
	if closed < 24 {
		t.Fatalf("only %d instances took the closed form", closed)
	}
}
