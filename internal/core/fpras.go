package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
)

// This file implements Section 6 of the paper: the Sample routine
// (Algorithm 3) and the Apx fully polynomial-time randomized approximation
// scheme of Theorem 6.2 for functions in Λ[k].
//
// Sample draws a tuple uniformly from the natural sample space
// U = S1×...×Sn and reports whether it lies in some unfolding; the key
// inequality f(x)/|U| ≥ 1/m^k (every valid certificate leaves at most k
// coordinates pinned, so its box has at least |U|/m^k tuples) makes the
// hit probability polynomially bounded below, so
// t = (2+ε)·m^k/ε² · ln(2/δ) samples suffice by Chernoff's inequality.
//
// A trial draws only the coordinates in the compactor's read set
// (Compactor.Reads) that have more than one element; every other
// coordinate keeps a fixed element. Membership does not depend on those
// coordinates, and the drawn ones are still independent and uniform, so
// each trial's hit indicator has exactly the law of a trial over the whole
// tuple: hits/t, |U|·hits/t and the (ε,δ) guarantee are unchanged, while a
// trial costs time in the read set's size, not in n. For #CQA the read set
// is the blocks of the query's predicates, so a probe's sampling cost
// follows the blocks the query can see, not the database.

// Estimate is the outcome of a randomized counting run.
type Estimate struct {
	// Value approximates f(x).
	Value *big.Float
	// Samples is the number of trials t used.
	Samples int
	// Hits is the number of successful trials.
	Hits int
}

// Float64 returns the estimate as a float64 (may overflow to +Inf for
// astronomically large counts).
func (e Estimate) Float64() float64 {
	v, _ := e.Value.Float64()
	return v
}

// Sampler runs Algorithm 3 trials for one compactor on a reused tuple:
// each trial draws the read coordinates uniformly and independently and
// reports whether the tuple belongs to ⋃_c unfolding(M(x,c)). A Sampler
// owns its tuple and membership predicate and is not safe for concurrent
// use; parallel loops make one per worker.
type Sampler struct {
	doms   []Domain
	draw   []int // coordinates drawn per trial, ascending
	tuple  []Element
	member func([]Element) bool
}

// NewSampler returns a sampler with its own membership predicate.
func (c *Compactor) NewSampler() *Sampler {
	return newSampler(c.Doms, drawPositions(c.Doms, c.Reads), c.memberFactory()())
}

func newSampler(doms []Domain, draw []int, member func([]Element) bool) *Sampler {
	return &Sampler{doms: doms, draw: draw, tuple: baseTuple(doms), member: member}
}

// Sample runs one trial.
func (s *Sampler) Sample(rng *rand.Rand) bool {
	for _, i := range s.draw {
		elems := s.doms[i].Elems
		s.tuple[i] = elems[rng.IntN(len(elems))]
	}
	return s.member(s.tuple)
}

// drawPositions returns the coordinates a trial draws: the read set (every
// coordinate when reads is nil) without the one-element domains, whose
// coordinate holds that element in every tuple anyway.
func drawPositions(doms []Domain, reads []int) []int {
	draw := []int{}
	add := func(i int) {
		if doms[i].Size() > 1 {
			draw = append(draw, i)
		}
	}
	if reads == nil {
		for i := range doms {
			add(i)
		}
	}
	for _, i := range reads {
		add(i)
	}
	return draw
}

// baseTuple returns the tuple holding every domain's first element: the
// value of each coordinate a sampler never draws.
func baseTuple(doms []Domain) []Element {
	tuple := make([]Element, len(doms))
	for i, d := range doms {
		if d.Size() > 0 {
			tuple[i] = d.Elems[0]
		}
	}
	return tuple
}

// SampleBound returns the paper's sample count
//
//	t = ⌈ (2+ε)·m^k / ε² · ln(2/δ) ⌉
//
// as a big integer (it grows like m^k).
func SampleBound(m, k int, eps, delta float64) *big.Int {
	mk := new(big.Float).SetInt(new(big.Int).Exp(big.NewInt(int64(m)), big.NewInt(int64(k)), nil))
	factor := (2 + eps) / (eps * eps) * math.Log(2/delta)
	t := new(big.Float).Mul(mk, big.NewFloat(factor))
	out, _ := t.Int(nil)
	return out.Add(out, big.NewInt(1)) // ceil
}

// MaxApxSamples caps the number of samples Apx will actually run; the
// theoretical t is polynomial for fixed k but can still be impractically
// large for big m^k.
const MaxApxSamples = 50_000_000

// Apx is the FPRAS of Theorem 6.2 applied to the compactor: it runs
// t = (2+ε)·m^k/ε²·ln(2/δ) independent Sample trials and returns
// |U| · (hits/t). The guarantee is Pr(|Apx − f(x)| ≤ ε·f(x)) ≥ 1−δ.
// It fails if the compactor is unbounded (K = Unbounded; SpanLL functions
// need the Karp–Luby sampler instead — see §7.2) or if t exceeds
// MaxApxSamples.
func (c *Compactor) Apx(eps, delta float64, rng *rand.Rand) (Estimate, error) {
	t, err := c.apxSamples(eps, delta)
	if err != nil {
		return Estimate{}, err
	}
	return c.ApxWithSamples(t, rng)
}

// apxSamples checks (ε,δ) and returns the Theorem 6.2 sample count t,
// with m taken over every domain, failing for unbounded compactors and
// for t above MaxApxSamples.
func (c *Compactor) apxSamples(eps, delta float64) (int, error) {
	if err := checkEpsDelta(eps, delta); err != nil {
		return 0, err
	}
	if c.K < 0 {
		return 0, fmt.Errorf("core: Apx needs a bounded k-compactor; %s is unbounded (SpanLL) — use KarpLuby", c.Name)
	}
	m := MaxDomainSize(c.Doms)
	tBig := SampleBound(m, c.K, eps, delta)
	if !tBig.IsInt64() || tBig.Int64() > MaxApxSamples {
		return 0, fmt.Errorf("core: Apx sample bound %s exceeds cap %d (m=%d, k=%d)", tBig, MaxApxSamples, m, c.K)
	}
	return int(tBig.Int64()), nil
}

// ApxWithSamples runs the Algorithm 3 estimator with an explicit sample
// budget (used by the benchmark harness to compare samplers at equal
// budgets; the Theorem 6.2 guarantee holds only for t ≥ SampleBound).
func (c *Compactor) ApxWithSamples(t int, rng *rand.Rand) (Estimate, error) {
	if t <= 0 {
		return Estimate{}, fmt.Errorf("core: sample budget must be positive, got %d", t)
	}
	s := c.NewSampler()
	hits := 0
	for i := 0; i < t; i++ {
		if s.Sample(rng) {
			hits++
		}
	}
	return scaledEstimate(UniverseSize(c.Doms), hits, t), nil
}

// scaledEstimate returns the estimate size·hits/t of a t-trial run, where
// size is the sample space's size.
func scaledEstimate(size *big.Int, hits, t int) Estimate {
	est := new(big.Float).Quo(
		new(big.Float).Mul(new(big.Float).SetInt(size), big.NewFloat(float64(hits))),
		big.NewFloat(float64(t)),
	)
	return Estimate{Value: est, Samples: t, Hits: hits}
}

func checkEpsDelta(eps, delta float64) error {
	if eps <= 0 {
		return fmt.Errorf("core: ε must be positive, got %g", eps)
	}
	if delta <= 0 || delta >= 1 {
		return fmt.Errorf("core: δ must be in (0,1), got %g", delta)
	}
	return nil
}

// RelativeError returns |est − truth| / truth for a positive exact count;
// it returns +Inf when truth is zero and est is not.
func RelativeError(est *big.Float, truth *big.Int) float64 {
	t := new(big.Float).SetInt(truth)
	if truth.Sign() == 0 {
		if est.Sign() == 0 {
			return 0
		}
		return math.Inf(1)
	}
	diff := new(big.Float).Sub(est, t)
	diff.Abs(diff)
	rel, _ := new(big.Float).Quo(diff, t).Float64()
	return rel
}
