package main

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"net/http"
	"sort"

	"repaircount"
	"repaircount/internal/workload"
)

// The oracle checks every answered probe outside the timed phase.
// Counts, decisions and totals at the initial state come from the closed
// forms of instance.go; at a later state (an update-mix answer whose
// version covers some ops) they come from an in-process Counter on a
// pristine copy of the snapshot with that prefix of the update stream
// replayed. Probability intervals must be bit-identical to in-process
// ProbabilityOf under the same annotations. FPRAS estimates must lie
// within the reported ε of the exact count.

type oracle struct {
	in       *instance
	snapPath string // pristine copy of the served snapshot
	anns     map[string]float64
	ops      []workload.Update // every op the daemon was sent, in order
}

// verdicts for sample.verdict.
const (
	okAnswer   = "ok"
	okRefusal  = "ok-refused"
	badAnswer  = "wrong"
	badRefusal = "refused"
	badStatus  = "status"
	badNet     = "transport"
	badVersion = "unmapped-version"
)

func failedVerdict(v string) bool { return v != okAnswer && v != okRefusal }

// judge sets every sample's verdict.
func (o *oracle) judge(samples []*sample) error {
	var pending []*sample
	for _, s := range samples {
		switch {
		case s.err != nil:
			s.verdict = badNet
		case s.status == http.StatusTooManyRequests:
			if s.p.expect == "reject" {
				s.verdict = okRefusal
			} else {
				s.verdict = badRefusal
			}
		case s.status != http.StatusOK:
			s.verdict = badStatus
		case s.p.expect == "reject":
			s.verdict = badAnswer
		case s.prefix < 0:
			s.verdict = badVersion
		default:
			pending = append(pending, s)
		}
	}
	// Initial-state answers with a closed form need no replay.
	var replay []*sample
	for _, s := range pending {
		if s.prefix == 0 && s.p.want != nil && s.p.ep != "prob" {
			s.verdict = verdict(o.check(s, s.p.want))
			continue
		}
		replay = append(replay, s)
	}
	if len(replay) == 0 {
		return nil
	}
	return o.replay(replay)
}

func verdict(ok bool) string {
	if ok {
		return okAnswer
	}
	return badAnswer
}

// check compares one answer with the exact count (or total) it must show.
func (o *oracle) check(s *sample, want *big.Int) bool {
	r := s.rep
	switch s.p.ep {
	case "total":
		return r.Total == want.String()
	case "decide":
		return r.Entailed != nil && *r.Entailed == (want.Sign() > 0)
	case "count":
		switch r.Mode {
		case "exact":
			return r.Count == want.String()
		case "approx":
			est, ok := new(big.Float).SetString(r.Estimate)
			if !ok || r.Eps <= 0 {
				return false
			}
			w := new(big.Float).SetInt(want)
			diff := new(big.Float).Sub(est, w)
			diff.Abs(diff)
			return diff.Cmp(w.Mul(w, big.NewFloat(r.Eps))) <= 0
		}
	}
	return false
}

// replay walks the update stream forward once, answering every pending
// sample at the state its version names.
func (o *oracle) replay(samples []*sample) error {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].prefix < samples[j].prefix })
	snap, err := repaircount.OpenSnapshot(o.snapPath)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	defer snap.Close()
	counters := map[*probe]*repaircount.Counter{}
	applied := 0
	type key struct {
		p      *probe
		prefix int
	}
	counts := map[key]*big.Int{}
	probs := map[key]repaircount.Interval{}
	for _, s := range samples {
		for applied < s.prefix {
			if applied >= len(o.ops) {
				return fmt.Errorf("oracle: answer covers %d ops, only %d were sent", s.prefix, len(o.ops))
			}
			op := o.ops[applied]
			d := repaircount.Insert(op.Fact)
			if op.Del {
				d = repaircount.Delete(op.Fact)
			}
			if _, err := snap.Apply(d); err != nil {
				return fmt.Errorf("oracle: replaying op %d: %w", applied, err)
			}
			applied++
		}
		k := key{s.p, s.prefix}
		if s.p.ep == "total" {
			s.verdict = verdict(o.check(s, snap.TotalRepairs()))
			continue
		}
		c := counters[s.p]
		if c == nil {
			q, err := repaircount.ParseQuery(s.p.q)
			if err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			if c, err = snap.Counter(q); err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			counters[s.p] = c
		}
		if s.p.ep == "prob" {
			iv, ok := probs[k]
			if !ok {
				if iv, err = c.ProbabilityOf(c.FactWeights(o.anns)); err != nil {
					return fmt.Errorf("oracle: prob %q: %w", s.p.q, err)
				}
				probs[k] = iv
			}
			lo, hi := s.rep.ProbLo, s.rep.ProbHi
			s.verdict = verdict(lo != nil && hi != nil &&
				math.Float64bits(*lo) == math.Float64bits(iv.Lo) && math.Float64bits(*hi) == math.Float64bits(iv.Hi))
			continue
		}
		n, ok := counts[k]
		if !ok {
			if n, _, err = c.CountCtx(context.Background(), 1); err != nil {
				return fmt.Errorf("oracle: count %q: %w", s.p.q, err)
			}
			counts[k] = n
		}
		s.verdict = verdict(o.check(s, n))
	}
	return nil
}

// selfCheck pins the closed forms against in-process exact counts on the
// initial snapshot, so an oracle bug cannot pass for a program bug.
func (o *oracle) selfCheck(probes []*probe) error {
	snap, err := repaircount.OpenSnapshot(o.snapPath)
	if err != nil {
		return err
	}
	defer snap.Close()
	if got := snap.TotalRepairs(); got.Cmp(o.in.total) != 0 {
		return fmt.Errorf("oracle self-check: total %s, closed form %s", got, o.in.total)
	}
	for _, p := range probes {
		if p.want == nil || p.q == "" || p.expect != "exact" {
			continue
		}
		q, err := repaircount.ParseQuery(p.q)
		if err != nil {
			return err
		}
		c, err := snap.Counter(q)
		if err != nil {
			return err
		}
		n, _, err := c.CountCtx(context.Background(), 1)
		if err != nil {
			return err
		}
		if n.Cmp(p.want) != 0 {
			return fmt.Errorf("oracle self-check: %q counts %s, closed form %s", p.q, n, p.want)
		}
	}
	return nil
}
