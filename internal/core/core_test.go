package core

import (
	"iter"
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func doms3() []Domain {
	return []Domain{
		MustDomain("S1", "a1", "a2"),
		MustDomain("S2", "b1", "b2", "b3"),
		MustDomain("S3", "c1", "c2"),
	}
}

func TestDomainValidation(t *testing.T) {
	if _, err := NewDomain("empty"); err == nil {
		t.Fatalf("empty domain accepted")
	}
	if _, err := NewDomain("dup", "x", "x"); err == nil {
		t.Fatalf("duplicate element accepted")
	}
	if _, err := NewDomain("blank", "x", ""); err == nil {
		t.Fatalf("empty element accepted")
	}
	d := MustDomain("ok", "x", "y")
	if d.Index("y") != 1 || d.Index("z") != -1 {
		t.Fatalf("Index broken")
	}
}

func TestUniverseSizeAndMax(t *testing.T) {
	ds := doms3()
	if got := UniverseSize(ds); got.Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("|U| = %s, want 12", got)
	}
	if MaxDomainSize(ds) != 3 {
		t.Fatalf("m = %d, want 3", MaxDomainSize(ds))
	}
	if got := UniverseSize(nil); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("empty product must be 1, got %s", got)
	}
}

func TestSelectorValidation(t *testing.T) {
	ds := doms3()
	if _, err := NewSelector(ds, Pin{0, "a1"}, Pin{2, "c2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSelector(ds, Pin{0, "nope"}); err == nil {
		t.Fatalf("element outside domain accepted")
	}
	if _, err := NewSelector(ds, Pin{5, "a1"}); err == nil {
		t.Fatalf("index out of range accepted")
	}
	if _, err := NewSelector(ds, Pin{0, "a1"}, Pin{0, "a2"}); err == nil {
		t.Fatalf("duplicate index accepted")
	}
	// Pins get sorted.
	s := MustSelector(ds, Pin{2, "c1"}, Pin{0, "a2"})
	if s[0].Index != 0 || s[1].Index != 2 {
		t.Fatalf("pins not sorted: %v", s)
	}
}

func TestSelectorMergeAndBoxSize(t *testing.T) {
	ds := doms3()
	s := MustSelector(ds, Pin{0, "a1"})
	u := MustSelector(ds, Pin{1, "b2"})
	merged, ok := s.Merge(u)
	if !ok || merged.Len() != 2 {
		t.Fatalf("merge failed: %v %v", merged, ok)
	}
	if got := merged.BoxSize(ds); got.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("box size = %s, want 2", got)
	}
	conflict := MustSelector(ds, Pin{0, "a2"})
	if _, ok := s.Merge(conflict); ok {
		t.Fatalf("conflicting merge accepted")
	}
	if got := Selector(nil).BoxSize(ds); got.Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("empty selector box = %s, want |U| = 12", got)
	}
}

func TestSelectorContainsTuple(t *testing.T) {
	ds := doms3()
	s := MustSelector(ds, Pin{0, "a1"}, Pin{2, "c2"})
	if !s.ContainsTuple([]Element{"a1", "b3", "c2"}) {
		t.Fatalf("tuple agreeing with pins rejected")
	}
	if s.ContainsTuple([]Element{"a2", "b3", "c2"}) {
		t.Fatalf("tuple disagreeing with pin accepted")
	}
}

func TestEncodeParseCompactRoundTrip(t *testing.T) {
	ds := doms3()
	sels := []Selector{
		nil,
		MustSelector(ds, Pin{0, "a2"}),
		MustSelector(ds, Pin{0, "a1"}, Pin{2, "c1"}),
		MustSelector(ds, Pin{0, "a1"}, Pin{1, "b2"}, Pin{2, "c1"}),
	}
	for _, s := range sels {
		enc := EncodeCompact(ds, s)
		got, valid, err := ParseCompact(ds, Unbounded, enc)
		if err != nil || !valid {
			t.Fatalf("parse %q: %v %v", enc, valid, err)
		}
		if got.Canonical() != s.Canonical() {
			t.Fatalf("round trip changed selector: %q vs %q", got.Canonical(), s.Canonical())
		}
	}
	// The paper's shape example: full listings between '#'.
	enc := EncodeCompact(ds, MustSelector(ds, Pin{1, "b1"}))
	want := "#a1$a2#$b1$#c1$c2#"
	if enc != want {
		t.Fatalf("encoding = %q, want %q", enc, want)
	}
}

func TestParseCompactEpsilonAndErrors(t *testing.T) {
	ds := doms3()
	if _, valid, err := ParseCompact(ds, 2, ""); err != nil || valid {
		t.Fatalf("ε must parse as invalid-output: %v %v", valid, err)
	}
	bad := []string{
		"a1$b1",                  // wrong arity
		"a1$b1$c1$c2",            // wrong arity
		"zz$#b1$b2$b3#$#c1$c2#",  // pinned element not in domain
		"#a1#$#b1$b2$b3#$c1",     // full listing missing elements
		"#a2$a1#$#b1$b2$b3#$c1",  // full listing out of order
		"#a1$a2#$#b1$b2$b3#$c1$", // trailing separator
		"#a1$a2$#b1$b2$b3#$c1",   // unterminated listing
	}
	for _, s := range bad {
		if _, _, err := ParseCompact(ds, Unbounded, s); err == nil {
			t.Errorf("ParseCompact(%q) accepted, want error", s)
		}
	}
	// k-bound enforcement.
	full := EncodeCompact(ds, MustSelector(ds, Pin{0, "a1"}, Pin{1, "b1"}))
	if _, _, err := ParseCompact(ds, 1, full); err == nil {
		t.Fatalf("selector of length 2 accepted with k = 1")
	}
	if _, valid, err := ParseCompact(ds, 2, full); err != nil || !valid {
		t.Fatalf("selector of length 2 rejected with k = 2: %v", err)
	}
}

func TestCompactEscaping(t *testing.T) {
	ds := []Domain{
		MustDomain("weird", "a$b", "c#d", "e%f"),
		MustDomain("plain", "x"),
	}
	s := MustSelector(ds, Pin{0, "a$b"})
	enc := EncodeCompact(ds, s)
	got, valid, err := ParseCompact(ds, Unbounded, enc)
	if err != nil || !valid || got.Canonical() != s.Canonical() {
		t.Fatalf("escaped round trip failed: %q -> %v %v %v", enc, got, valid, err)
	}
	s2 := MustSelector(ds, Pin{1, "x"})
	enc2 := EncodeCompact(ds, s2)
	got2, valid, err := ParseCompact(ds, Unbounded, enc2)
	if err != nil || !valid || got2.Canonical() != s2.Canonical() {
		t.Fatalf("escaped full-listing round trip failed: %q: %v %v", enc2, valid, err)
	}
}

// toyCompactor builds a compactor whose certificates are the given
// selectors (all valid).
func toyCompactor(name string, ds []Domain, k int, sels []Selector) *Compactor {
	return &Compactor{
		Name: name,
		Doms: ds,
		K:    k,
		Certificates: func() iter.Seq[Certificate] {
			return func(yield func(Certificate) bool) {
				for i := range sels {
					if !yield(i) {
						return
					}
				}
			}
		},
		Compact: func(c Certificate) (Selector, bool) {
			return sels[c.(int)], true
		},
	}
}

func TestCountUnionBasic(t *testing.T) {
	ds := doms3()
	// Two overlapping boxes: pin0=a1 (size 6) and pin2=c1 (size 6),
	// intersection size 3 → union 9.
	boxes := []Selector{
		MustSelector(ds, Pin{0, "a1"}),
		MustSelector(ds, Pin{2, "c1"}),
	}
	ie, err := CountUnionIE(ds, boxes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ie.Cmp(big.NewInt(9)) != 0 {
		t.Fatalf("IE union = %s, want 9", ie)
	}
	en, err := CountUnionEnum(ds, boxes, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if en.Cmp(ie) != 0 {
		t.Fatalf("enum disagrees: %s vs %s", en, ie)
	}
	// Duplicate boxes must not change the count.
	ie2, err := CountUnionIE(ds, append(boxes, boxes[0]), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ie2.Cmp(ie) != 0 {
		t.Fatalf("duplicates changed IE count: %s", ie2)
	}
	// No boxes: empty union.
	zero, err := CountUnionIE(ds, nil, 0)
	if err != nil || zero.Sign() != 0 {
		t.Fatalf("empty union = %s, %v", zero, err)
	}
}

func TestCountUnionEmptySelector(t *testing.T) {
	ds := doms3()
	// A box with the empty selector is the whole universe.
	u, err := CountUnionIE(ds, []Selector{nil, MustSelector(ds, Pin{0, "a1"})}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("union with universe box = %s, want 12", u)
	}
}

// randomBoxes builds random selectors over random small domains.
func randomBoxes(rng *rand.Rand) ([]Domain, []Selector) {
	n := 1 + rng.IntN(4)
	ds := make([]Domain, n)
	for i := range ds {
		sz := 1 + rng.IntN(3)
		elems := make([]Element, sz)
		for j := range elems {
			elems[j] = Element(string(rune('a'+i)) + string(rune('0'+j)))
		}
		ds[i] = MustDomain("D", elems...)
	}
	nb := rng.IntN(6)
	boxes := make([]Selector, 0, nb)
	for b := 0; b < nb; b++ {
		var pins []Pin
		for i := range ds {
			if rng.IntN(2) == 0 {
				pins = append(pins, Pin{i, ds[i].Elems[rng.IntN(ds[i].Size())]})
			}
		}
		boxes = append(boxes, MustSelector(ds, pins...))
	}
	return ds, boxes
}

// Property: inclusion–exclusion and enumeration agree on random boxes.
func TestCountUnionIEAgreesWithEnumProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 23))
		ds, boxes := randomBoxes(rng)
		ie, err := CountUnionIE(ds, boxes, 0)
		if err != nil {
			return false
		}
		en, err := CountUnionEnum(ds, boxes, nil, 0)
		if err != nil {
			return false
		}
		return ie.Cmp(en) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactorValidateAndCounts(t *testing.T) {
	ds := doms3()
	sels := []Selector{
		MustSelector(ds, Pin{0, "a1"}, Pin{1, "b1"}),
		MustSelector(ds, Pin{1, "b2"}),
	}
	c := toyCompactor("toy", ds, 2, sels)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	exact, err := c.CountExact()
	if err != nil {
		t.Fatal(err)
	}
	en, err := c.CountExactEnum()
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cmp(en) != 0 {
		t.Fatalf("IE %s vs enum %s", exact, en)
	}
	// box1: 2 tuples (a1,b1,*); box2: 4 tuples (*,b2,*); disjoint → 6.
	if exact.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("exact = %s, want 6", exact)
	}
	if !c.HasSolution() {
		t.Fatalf("HasSolution must be true")
	}
	if c.EffectiveK() != 2 {
		t.Fatalf("EffectiveK = %d", c.EffectiveK())
	}
	// A compactor exceeding its K bound fails validation.
	bad := toyCompactor("bad", ds, 1, sels)
	if err := bad.Validate(); err == nil {
		t.Fatalf("K violation not caught")
	}
}

func TestCompactorNoCertificates(t *testing.T) {
	ds := doms3()
	c := toyCompactor("none", ds, 0, nil)
	exact, err := c.CountExact()
	if err != nil || exact.Sign() != 0 {
		t.Fatalf("want 0, got %s %v", exact, err)
	}
	if c.HasSolution() {
		t.Fatalf("HasSolution must be false")
	}
}

func TestApxAccuracy(t *testing.T) {
	ds := doms3()
	sels := []Selector{
		MustSelector(ds, Pin{0, "a1"}, Pin{1, "b1"}),
		MustSelector(ds, Pin{1, "b2"}),
		MustSelector(ds, Pin{2, "c2"}),
	}
	c := toyCompactor("apx", ds, 2, sels)
	exact, err := c.CountExact()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(42, 42))
	est, err := c.Apx(0.1, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rel := RelativeError(est.Value, exact); rel > 0.1 {
		t.Fatalf("relative error %.4f exceeds ε = 0.1 (est %v, exact %s)", rel, est.Value, exact)
	}
	if est.Samples <= 0 || est.Hits <= 0 || est.Hits > est.Samples {
		t.Fatalf("bad sample accounting: %+v", est)
	}
}

func TestApxRejectsUnboundedAndBadParams(t *testing.T) {
	ds := doms3()
	c := toyCompactor("unb", ds, Unbounded, nil)
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := c.Apx(0.1, 0.1, rng); err == nil {
		t.Fatalf("Apx accepted an unbounded compactor")
	}
	c2 := toyCompactor("ok", ds, 0, nil)
	if _, err := c2.Apx(-1, 0.1, rng); err == nil {
		t.Fatalf("Apx accepted ε ≤ 0")
	}
	if _, err := c2.Apx(0.1, 1.5, rng); err == nil {
		t.Fatalf("Apx accepted δ ≥ 1")
	}
}

func TestSampleBoundGrowsLikeMk(t *testing.T) {
	t2 := SampleBound(2, 2, 0.1, 0.1)
	t4 := SampleBound(2, 4, 0.1, 0.1)
	// Quadrupling m^k must roughly quadruple t.
	ratio := new(big.Float).Quo(new(big.Float).SetInt(t4), new(big.Float).SetInt(t2))
	r, _ := ratio.Float64()
	if r < 3.5 || r > 4.5 {
		t.Fatalf("t(m^4)/t(m^2) = %.2f, want ≈ 4", r)
	}
}

func TestKarpLubyAgreesWithExact(t *testing.T) {
	ds := doms3()
	sels := []Selector{
		MustSelector(ds, Pin{0, "a1"}, Pin{1, "b1"}),
		MustSelector(ds, Pin{1, "b2"}),
		MustSelector(ds, Pin{0, "a2"}, Pin{2, "c1"}),
	}
	c := toyCompactor("kl", ds, 2, sels)
	exact, err := c.CountExact()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	est, err := c.KarpLubyAuto(0.1, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rel := RelativeError(est.Value, exact); rel > 0.1 {
		t.Fatalf("Karp–Luby relative error %.4f > 0.1 (est %v, exact %s)", rel, est.Value, exact)
	}
	// Zero boxes → zero estimate, no error.
	empty, err := KarpLuby(ds, nil, 10, rng)
	if err != nil || empty.Value.Sign() != 0 {
		t.Fatalf("empty union estimate = %v, %v", empty.Value, err)
	}
}

func TestUniformBigInt(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	n := big.NewInt(10)
	counts := make([]int, 10)
	const trials = 10000
	for i := 0; i < trials; i++ {
		v := UniformBigInt(rng, n)
		if v.Sign() < 0 || v.Cmp(n) >= 0 {
			t.Fatalf("UniformBigInt out of range: %s", v)
		}
		counts[v.Int64()]++
	}
	for d, c := range counts {
		if c < trials/20 || c > trials/5 {
			t.Fatalf("digit %d sampled %d/%d times; far from uniform", d, c, trials)
		}
	}
	// A large modulus still lands in range.
	big1 := new(big.Int).Lsh(big.NewInt(1), 130)
	v := UniformBigInt(rng, big1)
	if v.Sign() < 0 || v.Cmp(big1) >= 0 {
		t.Fatalf("large UniformBigInt out of range")
	}
}

func TestEnumerateUniverse(t *testing.T) {
	ds := doms3()
	n := 0
	last := ""
	for tuple := range EnumerateUniverse(ds) {
		n++
		cur := string(tuple[0]) + "|" + string(tuple[1]) + "|" + string(tuple[2])
		if cur <= last && n > 1 {
			t.Fatalf("universe enumeration not lexicographic: %q after %q", cur, last)
		}
		last = cur
	}
	if n != 12 {
		t.Fatalf("enumerated %d tuples, want 12", n)
	}
	// Empty sequence: exactly one empty tuple.
	n = 0
	for range EnumerateUniverse(nil) {
		n++
	}
	if n != 1 {
		t.Fatalf("empty universe yields %d tuples, want 1", n)
	}
}

// Property: Apx with the theorem's sample bound achieves ε-relative error
// in at least a (1−δ)-fraction of trials, over a batch of fixed seeds.
func TestApxGuaranteeStatistical(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	plain := doms3()
	// The padded space adds coordinates no box pins, excluded from the
	// read set: the sampler never draws them, yet m and |U| span them.
	padded := append(doms3(),
		MustDomain("P1", "p1", "p2"),
		MustDomain("P2", "q1", "q2", "q3"),
		MustDomain("P3", "r1"),
		MustDomain("P4", "s1", "s2", "s3"),
	)
	for _, tc := range []struct {
		name  string
		ds    []Domain
		reads []int
	}{
		{"plain", plain, nil},
		{"padded", padded, []int{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sels := []Selector{
				MustSelector(tc.ds, Pin{0, "a1"}, Pin{1, "b3"}),
				MustSelector(tc.ds, Pin{1, "b2"}, Pin{2, "c1"}),
			}
			c := toyCompactor("stat", tc.ds, 2, sels)
			c.Reads = tc.reads
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			exact, err := c.CountExact()
			if err != nil {
				t.Fatal(err)
			}
			const eps, delta = 0.2, 0.2
			const trials = 60
			ok := 0
			for seed := 0; seed < trials; seed++ {
				rng := rand.New(rand.NewPCG(uint64(seed), 1000))
				est, err := c.Apx(eps, delta, rng)
				if err != nil {
					t.Fatal(err)
				}
				if RelativeError(est.Value, exact) <= eps {
					ok++
				}
			}
			// Expect ≥ (1−δ)·trials successes; allow slack for statistical noise
			// (the bound is conservative in practice, so this rarely binds).
			if ok < int(float64(trials)*(1-2*delta)) {
				t.Fatalf("ε-accuracy in %d/%d trials; guarantee 1−δ = %.2f violated badly", ok, trials, 1-delta)
			}
		})
	}
}

// A sampler draws exactly the read coordinates with more than one
// element, uniformly, and holds every other coordinate at its domain's
// first element.
func TestSamplerDrawsOnlyReads(t *testing.T) {
	ds := append(doms3(), MustDomain("one", "o1"), MustDomain("S5", "e1", "e2", "e3"))
	seen := make([]map[Element]int, len(ds))
	for i := range seen {
		seen[i] = map[Element]int{}
	}
	c := toyCompactor("reads", ds, 2, nil)
	c.Reads = []int{1, 3}
	c.Member = func(tuple []Element) bool {
		for i, e := range tuple {
			seen[i][e]++
		}
		return tuple[1] == "b1"
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := drawPositions(ds, c.Reads); len(got) != 1 || got[0] != 1 {
		t.Fatalf("draw positions %v, want [1] (coordinate 3 has one element)", got)
	}
	const n = 3000
	est, err := c.ApxWithSamples(n, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range seen {
		switch {
		case i == 1:
			for _, e := range ds[1].Elems {
				if m[e] < n/5 {
					t.Fatalf("read coordinate drew %s %d times in %d trials", e, m[e], n)
				}
			}
		case len(m) != 1 || m[ds[i].Elems[0]] != n:
			t.Fatalf("unread coordinate %d took values %v", i, m)
		}
	}
	if want := UniverseSize(ds); est.Value.Cmp(new(big.Float).Quo(
		new(big.Float).Mul(new(big.Float).SetInt(want), big.NewFloat(float64(est.Hits))), big.NewFloat(n))) != 0 {
		t.Fatalf("estimate %v is not |U|·hits/t over the full space", est.Value)
	}
	for _, bad := range [][]int{{5}, {-1}, {2, 1}, {1, 1}} {
		c.Reads = bad
		if err := c.Validate(); err == nil {
			t.Fatalf("read set %v accepted", bad)
		}
	}
}

// Karp–Luby draws only coordinates some box pins: coordinates no box pins
// change neither a fixed-seed run's hits nor anything but W's factor.
func TestKarpLubyPaddingInvariance(t *testing.T) {
	base := doms3()
	padded := append(doms3(), MustDomain("P1", "p1", "p2"), MustDomain("P2", "q1", "q2", "q3", "q4"))
	boxes := func(ds []Domain) []Selector {
		return []Selector{
			MustSelector(ds, Pin{0, "a1"}, Pin{1, "b1"}),
			MustSelector(ds, Pin{1, "b2"}),
			MustSelector(ds, Pin{0, "a2"}, Pin{2, "c1"}),
		}
	}
	for _, workers := range []int{0, 1, 3} {
		run := func(ds []Domain) Estimate {
			var est Estimate
			var err error
			if workers == 0 {
				est, err = KarpLuby(ds, boxes(ds), 4000, rand.New(rand.NewPCG(3, 3)))
			} else {
				est, err = KarpLubyParallel(ds, boxes(ds), 4000, workers, 11)
			}
			if err != nil {
				t.Fatal(err)
			}
			return est
		}
		b, p := run(base), run(padded)
		if b.Hits != p.Hits || b.Hits == b.Samples {
			t.Fatalf("workers %d: padded hits %d, base %d of %d", workers, p.Hits, b.Hits, b.Samples)
		}
		if scaled := new(big.Float).Mul(b.Value, big.NewFloat(8)); scaled.Cmp(p.Value) != 0 {
			t.Fatalf("workers %d: padded estimate %v, want 8 × %v", workers, p.Value, b.Value)
		}
	}
}
