package repairs

import (
	"repaircount/internal/relational"
)

// This file implements the versioned-mutation surface of an Instance. A
// Delta is one fact insert or delete; Apply threads deltas through the
// shared live substrate (database, maintained block sequence, evaluation
// index — see eval.LiveInstance), and refresh flushes the instance's
// memoized and compiled structures when the substrate version moved. The
// per-component count memo (compMemo) deliberately survives: it is keyed
// by (engine, component structure), not version, which is what makes a
// recount after a delta replan — and pay for — only the touched
// components.

// Delta is one instance mutation: the insertion or deletion of a fact.
type Delta struct {
	Del  bool
	Fact relational.Fact
}

// Insert builds an insertion delta.
func Insert(f relational.Fact) Delta { return Delta{Fact: f} }

// Delete builds a deletion delta.
func Delete(f relational.Fact) Delta { return Delta{Del: true, Fact: f} }

// Apply performs the deltas in order against the live substrate and
// returns how many of them changed the instance (duplicate inserts and
// deletes of absent facts are no-ops). It fails on an arity clash, with
// every delta before the clash applied. Counting methods called after
// Apply — on this instance or any other sharing the substrate — see the
// new state; CountFactorized and the FPRAS remain valid to call between
// deltas.
func (in *Instance) Apply(deltas ...Delta) (int, error) {
	applied := 0
	for _, d := range deltas {
		changed, err := in.live.Apply(d.Del, d.Fact)
		if changed {
			applied++
		}
		if err != nil {
			in.refresh()
			return applied, err
		}
	}
	in.refresh()
	return applied, nil
}

// Version returns the monotonically increasing version of the live
// substrate (the number of successful mutations since construction).
func (in *Instance) Version() uint64 { return in.live.Version() }

// ResetComponentMemo drops the structural per-component memos — counts and
// compiled circuits — and the observed-reuse signal. The memos are sound
// across deltas (they are keyed by component structure, not version), so
// the only reasons to drop them are bounding memory and benchmarking cold
// enumeration.
func (in *Instance) ResetComponentMemo() {
	in.compMemo = nil
	in.circMemo = nil
	in.memoReuse = 0
}

// refresh resynchronizes the instance with the live substrate: when the
// version moved, the block-sequence view is re-read and every memoized or
// compiled structure tied to the old state is flushed. The structural
// component memo is kept — it is version-independent by construction.
func (in *Instance) refresh() {
	v := in.live.Version()
	if v == in.memoVer {
		return
	}
	in.memoVer = v
	in.Blocks = in.live.Blocks.Seq()
	in.domsMemo = nil
	in.decisionMemo = nil
	in.relSplitMemo = nil
	in.factMemo = nil
	in.deltaMemo = nil
}
