package repairs

import (
	"fmt"
	"iter"
	"math/big"

	"repaircount/internal/core"
	"repaircount/internal/eval"
	"repaircount/internal/relational"
)

// This file implements the small certificates of the guess-check-expand
// view of #CQA (paper §4.1): a certificate is a pair (Q', h) where Q' is a
// disjunct of the UCQ and h a homomorphism with h(Q') ⊆ D and h(Q') ⊨ Σ.
// Each certificate determines an ℓ-selector over the block sequence: block
// B_i is pinned to R(t̄) iff h(Q') ∩ B_i = {R(t̄)} and Σ has an R-key.

// Certificate is one (disjunct, homomorphism) witness.
type Certificate struct {
	Disjunct int
	H        eval.Binding
}

// Certificates enumerates all certificates of the instance in a
// deterministic order (disjunct order × homomorphism order). The binding in
// the yielded certificate is cloned and safe to retain.
func (in *Instance) Certificates() iter.Seq[Certificate] {
	return func(yield func(Certificate) bool) {
		in.refresh()
		if !in.IsEP {
			return
		}
		for qi, q := range in.UCQ.Disjuncts {
			for h := range eval.ConsistentHoms(q, in.Idx, in.Keys) {
				if !yield(Certificate{Disjunct: qi, H: h.Clone()}) {
					return
				}
			}
		}
	}
}

// BlockDomains renders the block sequence B1,...,Bn as core solution
// domains: domain i is block i, its elements the canonical fact encodings
// in block order.
func BlockDomains(blocks []relational.Block) []core.Domain {
	doms := make([]core.Domain, len(blocks))
	for i, b := range blocks {
		elems := make([]core.Element, len(b.Facts))
		for j, f := range b.Facts {
			elems[j] = core.Element(f.Canonical())
		}
		doms[i] = core.Domain{Name: b.Key.Canonical(), Elems: elems}
	}
	return doms
}

// domainsKey keys the rendered block domains in the live substrate's
// per-version memo.
type domainsKey struct{}

// Domains returns the block domains of the instance. Rendering them
// builds a canonical string per fact of the database, so they are
// memoized on the live substrate per version and shared, read-only, by
// every counter over it. Callers must not mutate the result.
func (in *Instance) Domains() []core.Domain {
	in.refresh()
	if in.domsMemo == nil {
		in.domsMemo = in.live.Memo(domainsKey{}, func() any { return BlockDomains(in.Blocks) }).([]core.Domain)
	}
	return in.domsMemo
}

// SelectorFor computes the ℓ-selector σ_(Q',h) over the block sequence for
// a certificate: the pairs (i, R(t̄)) with h(Q') ∩ B_i = {R(t̄)} and Σ
// having an R-key.
func (in *Instance) SelectorFor(c Certificate) core.Selector {
	blockIdx := in.blockIndex()
	q := in.UCQ.Disjuncts[c.Disjunct]
	img := eval.Image(q, c.H)
	var sel core.Selector
	seen := map[int]bool{}
	for _, f := range img {
		if !in.Keys.HasKey(f.Pred) {
			continue
		}
		i, ok := blockIdx.Find(in.Keys, f)
		if !ok {
			panic("repairs: certificate image fact outside every block")
		}
		if seen[i] {
			// h(Q') ⊨ Σ guarantees at most one fact per block, so a repeat
			// is necessarily the same fact.
			continue
		}
		seen[i] = true
		sel = append(sel, core.Pin{Index: i, Elem: core.Element(f.Canonical())})
	}
	s, err := core.NewSelector(in.Domains(), sel...)
	if err != nil {
		panic("repairs: certificate produced invalid selector: " + err.Error())
	}
	return s
}

// blockIndex returns the key-value → block-position index the live block
// sequence maintains (shared by every counter over the substrate).
func (in *Instance) blockIndex() *relational.BlockIndex {
	in.refresh()
	return in.live.Blocks.Index()
}

// CertificateBoxes materializes the distinct boxes of all certificates.
func (in *Instance) CertificateBoxes() []core.Selector {
	var sels []core.Selector
	for c := range in.Certificates() {
		sels = append(sels, in.SelectorFor(c))
	}
	return core.SortSelectors(core.DedupeSelectors(sels))
}

// CountIE computes #CQA by inclusion–exclusion over the certificate boxes:
// the number of repairs entailing Q is |⋃_(Q',h) [B1..Bn]_σ(Q',h)| (§4.1).
func (in *Instance) CountIE(budget int) (*big.Int, error) {
	return in.countIE(budget, nil)
}

// countIE is CountIE with a cooperative stop flag polled inside the
// subset DFS.
func (in *Instance) countIE(budget int, stop *core.Stop) (*big.Int, error) {
	if !in.IsEP {
		return nil, fmt.Errorf("repairs: CountIE needs an existential positive query, have %s", in.Q)
	}
	return core.CountUnionIEStop(in.Domains(), in.CertificateBoxes(), budget, stop)
}

// CountLambda1 computes #CQA through the Λ[1] closed form (Theorem 4.4(1)
// made executable): for keywidth ≤ 1 every certificate box pins at most
// one block, and the union is |U| − ∏(|B_i| − #pinned facts of B_i),
// a linear-time product. It fails when some box pins several blocks.
//
// A block no box pins contributes the same factor |B_i| to the product
// as to |U|, so the product is evaluated as |U| / Π_pinned |B_i| ×
// Π_pinned (|B_i| − #pinned_i), with |U| the maintained repair total:
// the closed form costs time in the pinned blocks, not the database
// (core.CountUnionOnePin computes the same integer over every domain).
func (in *Instance) CountLambda1() (*big.Int, error) {
	if !in.IsEP {
		return nil, fmt.Errorf("repairs: CountLambda1 needs an existential positive query, have %s", in.Q)
	}
	boxes := in.CertificateBoxes()
	total := in.TotalRepairs()
	pinned := map[int]map[core.Element]bool{}
	for _, b := range boxes {
		switch b.Len() {
		case 0:
			// The empty selector's box is the whole universe.
			return total, nil
		case 1:
			p := b[0]
			if pinned[p.Index] == nil {
				pinned[p.Index] = map[core.Element]bool{}
			}
			pinned[p.Index][p.Elem] = true
		default:
			return nil, core.ErrNotOnePin
		}
	}
	sizes, avoid := big.NewInt(1), big.NewInt(1)
	var x big.Int
	for i, elems := range pinned {
		size := int64(in.Blocks[i].Size())
		sizes.Mul(sizes, x.SetInt64(size))
		avoid.Mul(avoid, x.SetInt64(size-int64(len(elems))))
	}
	avoid.Mul(avoid, x.Quo(total, sizes))
	return total.Sub(total, avoid), nil
}
