package repairs

import (
	"fmt"
	"iter"
	"math/big"

	"repaircount/internal/core"
	"repaircount/internal/eval"
	"repaircount/internal/query"
)

// Compactor builds the k-compactor M(Q,Σ) of Algorithm 2 for the instance:
// solution domains are the blocks B1,...,Bn in ≺(D,Σ) order, candidate
// certificates are (disjunct, homomorphism) pairs, and the compact step
// pins exactly the keyed blocks hit by the homomorphism's image. Its
// unfold equals #CQA(Q,Σ)(D), which is the membership half of Theorem 5.1:
// #CQA(Q,Σ) ∈ Λ[kw(Q,Σ)].
//
// The compactor's membership predicate decides whether the repair
// encoded by a tuple entails the UCQ — the cross-check that ⋃ unfoldings
// is exactly the set of repairs entailing Q. It runs a compiled
// homomorphism search over the instance's interned index, restricted to
// the facts the tuple chose, so no per-sample index is built and a sample
// costs roughly one small join. MemberFactory hands every sampler its own
// copy of the predicate (the compiled matcher holds scratch state).
//
// The matcher only visits facts of the query's predicates, so membership
// reads only the coordinates of those blocks: they form the read set
// (Reads), and the per-fact lookup table (an ordSlots over their facts)
// covers only their facts. Samplers then draw a tuple in time
// proportional to the query's relevant blocks. Doms — and so m, |U| and
// the sample bound — still span every block; the domains are rendered
// once per instance version and shared by every counter on the live
// substrate (Domains).
func (in *Instance) Compactor() (*core.Compactor, error) {
	if err := in.needEP(); err != nil {
		return nil, err
	}
	doms := in.Domains()
	split := in.relevant()
	// Per relevant fact, in block order: its fact ordinal, the position of
	// its block in the domain sequence and its element encoding within
	// that domain. "Fact chosen by tuple" is then one table lookup and one
	// string compare.
	n := 0
	for _, b := range split.rel {
		n += b.Size()
	}
	ords, blockPos := make([]int32, 0, n), make([]int32, 0, n)
	elemOf := make([]core.Element, 0, n)
	for i, b := range split.rel {
		p := split.relPos[i]
		for j, f := range b.Facts {
			ord, ok := in.Idx.OrdinalOf(f)
			if !ok {
				return nil, fmt.Errorf("repairs: block fact %s outside the instance index", f)
			}
			ords = append(ords, ord)
			blockPos = append(blockPos, int32(p))
			elemOf = append(elemOf, doms[p].Elems[j])
		}
	}
	slots := newOrdSlots(ords)
	ucq := in.UCQ
	idx := in.Idx
	memberFactory := func() func([]core.Element) bool {
		m := eval.NewUCQMatcher(ucq, idx)
		// The filter closure is hoisted out of the per-sample call and reads
		// the current tuple through cur, so a membership probe allocates
		// nothing.
		var cur []core.Element
		filter := func(ord int32) bool {
			sl := slots.at(ord)
			return cur[blockPos[sl]] == elemOf[sl]
		}
		return func(tuple []core.Element) bool {
			cur = tuple
			return m.HasHomWhere(filter)
		}
	}
	k := query.KeywidthUCQ(ucq, in.Keys)
	return &core.Compactor{
		Name: fmt.Sprintf("#CQA(%s)", in.Q),
		Doms: doms,
		K:    k,
		Certificates: func() iter.Seq[core.Certificate] {
			return func(yield func(core.Certificate) bool) {
				for c := range in.Certificates() {
					if !yield(c) {
						return
					}
				}
			}
		},
		Compact: func(c core.Certificate) (core.Selector, bool) {
			// Certificates() yields only valid certificates (the check step
			// is folded into the consistent-homomorphism enumeration), so
			// every candidate compacts successfully.
			return in.SelectorFor(c.(Certificate)), true
		},
		MemberFactory: memberFactory,
		Reads:         append([]int{}, split.relPos...),
	}, nil
}

// needEP fails for queries outside ∃FO⁺, which have no Algorithm 2
// compactor.
func (in *Instance) needEP() error {
	if !in.IsEP {
		return fmt.Errorf("repairs: the Algorithm 2 compactor needs an existential positive query, have %s", in.Q)
	}
	return nil
}

// CountCompactor computes #CQA through the Algorithm 2 compactor's exact
// unfold count — a third independent exact algorithm.
func (in *Instance) CountCompactor() (*big.Int, error) {
	c, err := in.Compactor()
	if err != nil {
		return nil, err
	}
	return c.CountExact()
}
