package core

import (
	"fmt"
	"iter"
)

// Certificate is a candidate small certificate: any value whose validity
// and compaction the problem defines. The paper bounds certificates to
// O(log |x|) bits, which makes the candidate space polynomial; here the
// Certificates enumerator plays that role directly.
type Certificate any

// Compactor is Definition 4.1 made executable: a (logspace) k-compactor for
// one input instance x. It exposes the solution domains S1,...,Sn computed
// from x, enumerates candidate certificates, and maps each candidate to
// either ϵ (invalid) or a compact representation of the box [S1..Sn]_σc —
// returned as the selector σc, with EncodeCompact providing the paper's
// exact string shape.
//
// unfold_M(x) = |⋃_c unfolding(M(x,c))| is computed by CountExact /
// CountExactEnum and approximated by Apx (Theorem 6.2).
type Compactor struct {
	// Name identifies the problem instance for diagnostics.
	Name string
	// Doms are the solution domains S1,...,Sn.
	Doms []Domain
	// K bounds the selector length (kw for #CQA). K = Unbounded selects the
	// SpanLL variant (§7.2) where selectors may pin any number of
	// coordinates.
	K int
	// Certificates enumerates the candidate certificates; it may be called
	// multiple times and must yield the same sequence each time.
	Certificates func() iter.Seq[Certificate]
	// Compact implements the check+compact steps: it returns the selector
	// determined by a valid certificate, or ok=false for ϵ.
	Compact func(Certificate) (Selector, bool)
	// Member, if non-nil, reports whether a solution tuple lies in
	// ⋃_c unfolding(M(x,c)) directly (e.g. "does this repair entail Q").
	// When Member and MemberFactory are both nil, membership is decided
	// against the materialized boxes.
	Member func(tuple []Element) bool
	// MemberFactory, if non-nil, returns a fresh membership predicate that
	// shares no mutable state with any other; samplers call it once each
	// and it takes precedence over Member. A predicate built from scratch
	// state (a compiled matcher) must come as a factory; a stateless Member
	// may leave it nil.
	MemberFactory func() func(tuple []Element) bool
	// Reads lists, in ascending order, the coordinates whose value can
	// change the membership answer; nil means every coordinate. Samplers
	// draw only these coordinates and hold every other one at its domain's
	// first element, so a Reads that omits a coordinate membership depends
	// on biases every estimate. UniverseSize and the sample bound still
	// range over all of Doms.
	Reads []int
}

// Validate checks structural invariants: domains valid, every certificate's
// selector valid for the domains and within the K bound. It materializes
// all boxes, so it is meant for tests and small instances.
func (c *Compactor) Validate() error {
	if err := ValidateDomains(c.Doms); err != nil {
		return fmt.Errorf("core: compactor %s: %w", c.Name, err)
	}
	for j, i := range c.Reads {
		if i < 0 || i >= len(c.Doms) || (j > 0 && i <= c.Reads[j-1]) {
			return fmt.Errorf("core: compactor %s: read set %v is not an ascending list of coordinates below %d", c.Name, c.Reads, len(c.Doms))
		}
	}
	for cert := range c.Certificates() {
		sel, ok := c.Compact(cert)
		if !ok {
			continue
		}
		if _, err := NewSelector(c.Doms, sel...); err != nil {
			return fmt.Errorf("core: compactor %s: certificate %v: %w", c.Name, cert, err)
		}
		if c.K >= 0 && sel.Len() > c.K {
			return fmt.Errorf("core: compactor %s: certificate %v selects %d coordinates, exceeding k = %d", c.Name, cert, sel.Len(), c.K)
		}
		// The encoded string must be a member of the paper's shape.
		if err := ValidateCompact(c.Doms, c.K, EncodeCompact(c.Doms, sel)); err != nil {
			return fmt.Errorf("core: compactor %s: certificate %v: %w", c.Name, cert, err)
		}
	}
	return nil
}

// Boxes materializes the distinct boxes induced by the valid certificates,
// in canonical selector order.
func (c *Compactor) Boxes() []Selector {
	var sels []Selector
	for cert := range c.Certificates() {
		if sel, ok := c.Compact(cert); ok {
			sels = append(sels, sel)
		}
	}
	return SortSelectors(DedupeSelectors(sels))
}

// MemberFunc returns a membership predicate: a fresh one from
// MemberFactory when set, else Member, else a test against the
// materialized boxes.
func (c *Compactor) MemberFunc() func([]Element) bool {
	return c.memberFactory()()
}

// memberFactory returns the source of membership predicates, in
// MemberFunc's order of preference. Member without a factory is shared by
// every caller, so it must be safe for concurrent use; the boxes test is
// stateless and shared safely.
func (c *Compactor) memberFactory() func() func([]Element) bool {
	if c.MemberFactory != nil {
		return c.MemberFactory
	}
	if c.Member == nil {
		boxes := c.Boxes()
		shared := func(tuple []Element) bool {
			for _, b := range boxes {
				if b.ContainsTuple(tuple) {
					return true
				}
			}
			return false
		}
		return func() func([]Element) bool { return shared }
	}
	return func() func([]Element) bool { return c.Member }
}

// HasSolution reports whether unfold_M(x) > 0: some certificate is valid.
// This is the paper's "small certificate ⟹ decision in L" argument
// (Theorem 4.3): only the certificate space is searched, never the
// exponential solution space.
func (c *Compactor) HasSolution() bool {
	for cert := range c.Certificates() {
		if _, ok := c.Compact(cert); ok {
			return true
		}
	}
	return false
}

// EffectiveK returns the bound actually achieved by the instance's boxes
// (max selector length), which never exceeds K for a valid k-compactor.
func (c *Compactor) EffectiveK() int {
	k := 0
	for _, b := range c.Boxes() {
		if b.Len() > k {
			k = b.Len()
		}
	}
	return k
}
