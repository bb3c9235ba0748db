package server

import (
	"fmt"
	"math/big"

	"repaircount"
)

// Admission modes: every count probe is priced before any enumeration
// runs. Cheap plans are answered exactly; plans beyond ExactBudget
// degrade to the FPRAS with the served (ε, δ); probes whose Theorem 6.2
// sample bound also exceeds MaxSamples — and non-∃FO⁺ queries, which
// have no FPRAS at all (Theorem 6.1) — get a structured budget error
// instead of an unbounded computation.
const (
	AdmitExact  = "exact"
	AdmitApprox = "approx"
	AdmitReject = "reject"
)

// Admission is a priced probe: the mode the ladder chose and the numbers
// that justified it, reported back to the client either way.
type Admission struct {
	Mode        string
	Engine      repaircount.EngineKind
	PlannedCost *big.Int // planner-priced exact work (repair count for non-EP)
	SampleBound *big.Int // Theorem 6.2 bound, when the FPRAS rung was priced
	Reason      string   // human-readable refusal, when Mode == AdmitReject
}

// Ladder is the admission policy: the budgets the rungs are priced
// against and the accuracy served on the FPRAS rung.
type Ladder struct {
	ExactBudget int64
	MaxSamples  int64
	Eps, Delta  float64
}

// Price runs the admission ladder for one counter against the current
// instance version.
func (l Ladder) Price(c *repaircount.Counter) Admission {
	plan, err := c.ExplainPlan(repaircount.EngineAuto)
	if err != nil {
		return Admission{Mode: AdmitReject, Reason: err.Error()}
	}
	adm := Admission{Engine: plan.Engine}
	if plan.Engine == repaircount.EngineEnumFO {
		// Outside ∃FO⁺ the only engine enumerates every repair, and
		// Theorem 6.1 rules out an FPRAS, so the ladder has exactly one
		// rung: the repair count itself must fit the exact budget.
		total := c.Total()
		adm.PlannedCost = new(big.Int).Set(total)
		if total.IsInt64() && total.Int64() <= l.ExactBudget {
			adm.Mode = AdmitExact
			return adm
		}
		adm.Mode = AdmitReject
		adm.Reason = fmt.Sprintf(
			"non-EP query needs %s full-repair evaluations (exact budget %d) and no FPRAS exists outside existential positive FO",
			total, l.ExactBudget)
		return adm
	}
	// Planned exact work Σ_c min(2^{n_c}, IE_c); closed-form engines
	// (always-true, safe plan, Λ[1]) price at zero.
	adm.PlannedCost = big.NewInt(plan.Budget)
	if plan.AlwaysTrue || plan.Budget <= l.ExactBudget {
		adm.Mode = AdmitExact
		return adm
	}
	return l.PriceApprox(c, adm)
}

// PriceEntry prices a probe through a cache entry's admission memo with
// cross-version reuse. The ladder's rungs are consulted in order:
//
//  1. the (epoch, version) memo serves exact repeats;
//  2. across a version bump, a memoized AdmitExact admission whose plan
//     fingerprint (Counter.PlanFingerprint) is unchanged is reused and
//     re-pinned to the new version — the exact rung is priced purely from
//     the ExplainPlan report the fingerprint digests, so re-running the
//     ladder cannot change the verdict;
//  3. everything else re-prices from scratch.
//
// Only exact admissions travel across versions: the FPRAS rung's sample
// bound depends on the active domain, which the plan fingerprint does not
// digest, so approx and reject verdicts are always re-priced. The caller
// holds the entry lock.
func (l Ladder) PriceEntry(ent *CacheEntry, c *repaircount.Counter, epoch, version uint64) Admission {
	if adm, ok := ent.Admission(epoch, version); ok {
		return adm
	}
	fp, fpOK := c.PlanFingerprint()
	if fpOK {
		if adm, ok := ent.AdmissionForPlan(epoch, fp); ok && adm.Mode == AdmitExact {
			ent.StoreAdmissionPlan(epoch, version, fp, adm)
			return adm
		}
	}
	adm := l.Price(c)
	if fpOK {
		ent.StoreAdmissionPlan(epoch, version, fp, adm)
	} else {
		ent.StoreAdmission(epoch, version, adm)
	}
	return adm
}

// PriceCost admits the exact rung on an externally computed cost, for
// topologies where the planned work is not the local plan's total: the
// cluster coordinator prices its partition query on the fleet critical
// path (the max over workers of their components' summed cost), since
// shards count in parallel. It reports false when the cost exceeds the
// exact budget; the probe is then priced by Price like any other.
func (l Ladder) PriceCost(cost int64) (Admission, bool) {
	adm := Admission{Mode: AdmitExact, Engine: repaircount.EngineAuto, PlannedCost: big.NewInt(cost)}
	return adm, cost <= l.ExactBudget
}

// PriceApprox prices the FPRAS rung: admit when the Theorem 6.2 sample
// bound for the served (ε, δ) fits MaxSamples, else reject with both
// numbers. Also used to re-price a probe whose exact run hit a runtime
// ErrBudget despite its plan.
func (l Ladder) PriceApprox(c *repaircount.Counter, adm Admission) Admission {
	bound, err := c.ApproxSampleBound(l.Eps, l.Delta)
	if err != nil {
		adm.Mode = AdmitReject
		adm.Reason = fmt.Sprintf("exact work exceeds budget %d and the sampler is unavailable: %v", l.ExactBudget, err)
		return adm
	}
	adm.SampleBound = bound
	if bound.IsInt64() && bound.Int64() <= l.MaxSamples {
		adm.Mode = AdmitApprox
		return adm
	}
	adm.Mode = AdmitReject
	adm.Reason = fmt.Sprintf(
		"planned exact work exceeds budget %d and the (eps=%g, delta=%g) sample bound %s exceeds the cap %d",
		l.ExactBudget, l.Eps, l.Delta, bound, l.MaxSamples)
	return adm
}

// BudgetError renders a rejected admission as the structured 429 body.
func (l Ladder) BudgetError(adm Admission) APIError {
	e := APIError{
		Code:        "budget_exceeded",
		Message:     adm.Reason,
		ExactBudget: l.ExactBudget,
		MaxSamples:  l.MaxSamples,
	}
	if adm.PlannedCost != nil {
		e.PlannedCost = adm.PlannedCost.String()
	}
	if adm.SampleBound != nil {
		e.SampleBound = adm.SampleBound.String()
	}
	return e
}
