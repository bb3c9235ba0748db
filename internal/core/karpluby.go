package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
)

// This file implements the Karp–Luby union-of-sets estimator over the
// "complex sample space" discussed at the end of §6 and in §7.2 of the
// paper: pairs (box, tuple) rather than plain tuples. It is the estimator
// one inherits from Dalvi–Suciu [5] for disjoint-independent probabilistic
// databases, and the one that still works for SpanLL functions, where the
// natural-sample-space FPRAS of Theorem 6.2 degrades (its m^k sample bound
// is unbounded).
//
// Sampling: draw a box b with probability |box_b| / Σ|box|, then a tuple s
// uniformly inside box_b. Every pair (b,s) has probability 1/W with
// W = Σ|box|; the indicator "b is the first box (in canonical order)
// containing s" succeeds exactly once per tuple in the union, so the hit
// probability is |⋃ boxes| / W ≥ 1/(#boxes), and W·(hits/t) is unbiased.
//
// Coverage reads only coordinates that some box pins, so a trial draws
// only those (the unpinned ones of the drawn box) and leaves every other
// coordinate at a fixed element: the coverage indicator keeps its law, and
// a trial costs time in the pinned coordinates, not in the domain count.

// KarpLubyBound returns the sample count t = ⌈(2+ε)·b/ε²·ln(2/δ)⌉ that
// suffices for the (ε,δ) guarantee with b boxes (hit probability ≥ 1/b).
func KarpLubyBound(numBoxes int, eps, delta float64) *big.Int {
	if numBoxes == 0 {
		return big.NewInt(1)
	}
	factor := (2 + eps) / (eps * eps) * math.Log(2/delta)
	t := new(big.Float).Mul(big.NewFloat(float64(numBoxes)), big.NewFloat(factor))
	out, _ := t.Int(nil)
	return out.Add(out, big.NewInt(1))
}

// KarpLuby estimates |⋃ boxes| with t samples from the complex sample
// space. Boxes are deduplicated and put in canonical order internally.
func KarpLuby(doms []Domain, boxes []Selector, t int, rng *rand.Rand) (Estimate, error) {
	if t <= 0 {
		return Estimate{}, fmt.Errorf("core: sample budget must be positive, got %d", t)
	}
	kl, ok := newKarpLuby(doms, boxes)
	if !ok {
		return Estimate{Value: big.NewFloat(0), Samples: t}, nil
	}
	trial := kl.trialFunc()
	hits := 0
	for i := 0; i < t; i++ {
		if trial(rng) {
			hits++
		}
	}
	return scaledEstimate(kl.w, hits, t), nil
}

// karpLuby is the read-only state of one Karp–Luby run, shared by its
// workers.
type karpLuby struct {
	doms  []Domain
	boxes []Selector // deduplicated, canonical order
	draw  []int      // coordinates some box pins, minus one-element domains
	// Every box spans each coordinate no box pins whole, so all box sizes
	// share the factor Π|S_i| over those coordinates. Boxes are picked by
	// their size over the pinned coordinates alone (same probabilities,
	// smaller numbers): cum holds those running sums, pick their total,
	// and w = pick × the shared factor = Σ|box| scales the estimate.
	cum  []*big.Int
	pick *big.Int
	w    *big.Int
}

// newKarpLuby prepares a run over the boxes; ok is false when the union is
// empty (no boxes, or every box empty), whose estimate is 0.
func newKarpLuby(doms []Domain, boxes []Selector) (kl *karpLuby, ok bool) {
	boxes = SortSelectors(DedupeSelectors(boxes))
	pinned := make([]bool, len(doms))
	for _, b := range boxes {
		for _, p := range b {
			pinned[p.Index] = true
		}
	}
	var reads []int
	shared := big.NewInt(1)
	for i, p := range pinned {
		if p {
			reads = append(reads, i)
		} else {
			shared.Mul(shared, big.NewInt(int64(doms[i].Size())))
		}
	}
	kl = &karpLuby{doms: doms, boxes: boxes, draw: drawPositions(doms, reads),
		cum: make([]*big.Int, len(boxes)), pick: new(big.Int)}
	for bi, b := range boxes {
		size := big.NewInt(1)
		j := 0
		for _, i := range reads {
			if j < len(b) && b[j].Index == i {
				j++
				continue
			}
			size.Mul(size, big.NewInt(int64(doms[i].Size())))
		}
		kl.pick.Add(kl.pick, size)
		kl.cum[bi] = new(big.Int).Set(kl.pick)
	}
	kl.w = new(big.Int).Mul(kl.pick, shared)
	return kl, kl.w.Sign() > 0
}

// trialFunc returns a trial of the complex-sample-space estimator over its
// own tuple buffer: draw a box with probability proportional to its size,
// a tuple uniformly inside it, and report whether the drawn box is the
// first box (in canonical order) containing the tuple.
func (kl *karpLuby) trialFunc() func(*rand.Rand) bool {
	tuple := baseTuple(kl.doms)
	return func(rng *rand.Rand) bool {
		r := UniformBigInt(rng, kl.pick)
		// Binary search for the first cumulative weight exceeding r.
		lo, hi := 0, len(kl.boxes)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if kl.cum[mid].Cmp(r) > 0 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		b := kl.boxes[lo]
		// Uniform tuple inside box b on the read coordinates: b's pins
		// there, a uniform draw everywhere else. Pins on one-element
		// domains already hold in every tuple.
		j := 0
		for _, i := range kl.draw {
			for j < len(b) && b[j].Index < i {
				j++
			}
			if j < len(b) && b[j].Index == i {
				tuple[i] = b[j].Elem
				continue
			}
			elems := kl.doms[i].Elems
			tuple[i] = elems[rng.IntN(len(elems))]
		}
		// Coverage test: is b the first box containing the tuple?
		for i, other := range kl.boxes {
			if other.ContainsTuple(tuple) {
				return i == lo
			}
		}
		return false
	}
}

// KarpLubyAuto runs KarpLuby with the (ε,δ) sample bound. It works for
// unbounded (SpanLL) compactors, unlike Apx.
func (c *Compactor) KarpLubyAuto(eps, delta float64, rng *rand.Rand) (Estimate, error) {
	if err := checkEpsDelta(eps, delta); err != nil {
		return Estimate{}, err
	}
	boxes := c.Boxes()
	tBig := KarpLubyBound(len(boxes), eps, delta)
	if !tBig.IsInt64() || tBig.Int64() > MaxApxSamples {
		return Estimate{}, fmt.Errorf("core: Karp–Luby sample bound %s exceeds cap %d", tBig, MaxApxSamples)
	}
	return KarpLuby(c.Doms, boxes, int(tBig.Int64()), rng)
}
