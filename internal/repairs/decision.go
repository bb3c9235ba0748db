package repairs

import (
	"math/big"
	"math/rand/v2"

	"repaircount/internal/core"
	"repaircount/internal/eval"
	"repaircount/internal/relational"
)

// HasRepairEntailing decides #CQA>0: is there a repair entailing Q?
//
// For existential positive queries this is the logspace procedure of
// Theorem 3.4, justified by Lemma 3.5: a repair entailing the UCQ exists
// iff some disjunct Q_i has a homomorphism h with h(Q_i) ⊆ D and
// h(Q_i) ⊨ Σ. Only the polynomial certificate space is searched.
//
// For arbitrary FO queries the problem is NP-complete (Theorem 3.2); we
// fall back to exhaustive search over repairs.
func (in *Instance) HasRepairEntailing() bool {
	in.refresh()
	if in.IsEP {
		if in.decisionMemo == nil {
			in.decisionMemo = eval.NewConsistentUCQMatcher(in.UCQ, in.Idx, in.Keys)
		}
		return in.decisionMemo.HasHom()
	}
	for facts := range relational.Repairs(in.Blocks) {
		if eval.EvalBoolean(in.Q, eval.NewIndex(facts)) {
			return true
		}
	}
	return false
}

// Apx runs the Theorem 6.2 FPRAS on the instance via the Algorithm 2
// compactor: Pr(|Apx − #CQA| ≤ ε·#CQA) ≥ 1−δ.
func (in *Instance) Apx(eps, delta float64, rng *rand.Rand) (core.Estimate, error) {
	c, err := in.Compactor()
	if err != nil {
		return core.Estimate{}, err
	}
	return c.Apx(eps, delta, rng)
}

// ApxWithSamples runs the Algorithm 3 estimator with an explicit budget.
func (in *Instance) ApxWithSamples(t int, rng *rand.Rand) (core.Estimate, error) {
	c, err := in.Compactor()
	if err != nil {
		return core.Estimate{}, err
	}
	return c.ApxWithSamples(t, rng)
}

// KarpLuby runs the [5]-style estimator over the certificate boxes (the
// complex sample space discussed at the end of §6).
func (in *Instance) KarpLuby(t int, rng *rand.Rand) (core.Estimate, error) {
	boxes := in.CertificateBoxes()
	return core.KarpLuby(in.Domains(), boxes, t, rng)
}

// ApxParallel runs the Theorem 6.2 FPRAS with the sampling loop sharded
// across worker goroutines (workers ≤ 0 selects GOMAXPROCS). For a fixed
// seed the estimate is identical across runs and worker counts.
func (in *Instance) ApxParallel(eps, delta float64, workers int, seed uint64) (core.Estimate, error) {
	c, err := in.Compactor()
	if err != nil {
		return core.Estimate{}, err
	}
	return c.ApxParallel(eps, delta, workers, seed)
}

// ApxParallelStop is ApxParallel with a cooperative stop flag polled
// inside the sharded sampling loop; a fired stop fails the run with
// core.ErrStopped.
func (in *Instance) ApxParallelStop(eps, delta float64, workers int, seed uint64, stop *core.Stop) (core.Estimate, error) {
	c, err := in.Compactor()
	if err != nil {
		return core.Estimate{}, err
	}
	return c.ApxParallelStop(eps, delta, workers, seed, stop)
}

// ApxSampleBound reports the Theorem 6.2 sample count t the FPRAS would
// run at the given accuracy, without drawing a sample — the serving
// layer prices an approximate probe against its budget with it. It reads
// m = max|B_i| off the live block sequence's maintained aggregate and
// k = kw(Q,Σ) off the query, the same m and k the compactor's FPRAS uses,
// without building the compactor.
func (in *Instance) ApxSampleBound(eps, delta float64) (*big.Int, error) {
	if err := in.needEP(); err != nil {
		return nil, err
	}
	in.refresh()
	return core.SampleBound(in.live.Blocks.MaxSize(), in.Keywidth(), eps, delta), nil
}

// ApxParallelWithSamples runs the Algorithm 3 estimator with an explicit
// sample budget, sharded across worker goroutines.
func (in *Instance) ApxParallelWithSamples(t, workers int, seed uint64) (core.Estimate, error) {
	c, err := in.Compactor()
	if err != nil {
		return core.Estimate{}, err
	}
	return c.ApxParallelWithSamples(t, workers, seed)
}

// KarpLubyParallel runs the Karp–Luby estimator over the certificate boxes
// with a sharded parallel sampling loop.
func (in *Instance) KarpLubyParallel(t, workers int, seed uint64) (core.Estimate, error) {
	boxes := in.CertificateBoxes()
	return core.KarpLubyParallel(in.Domains(), boxes, t, workers, seed)
}
