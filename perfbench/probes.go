package main

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"strings"
)

// A probe is one request of a workload's stream. Count probes carry the
// admission rung the workload expects by construction (the planned cost is
// recomputed from the documented cost model, never asked of the daemon);
// a 429 on a probe expected to be admitted is a failure.
type probe struct {
	ep     string // "count", "decide", "prob" or "total"
	q      string // query text ("" for total)
	kind   string // generator shape: factorized, safeplan, lambda1, approx, nonep
	expect string // count only: "exact", "approx" or "reject"
	want   *big.Int
}

func (p *probe) path() string {
	if p.ep == "total" {
		return "/v1/total"
	}
	return "/v1/" + p.ep + "?q=" + urlQuery(p.q)
}

// gen draws fresh probe texts from the instance. Every text it returns is
// new: a text is never reused across kinds or endpoints, and the ground
// shapes never reuse a predicate set, so count fingerprints of different
// probes rarely coincide.
type gen struct {
	in      *instance
	rng     *rand.Rand
	texts   map[string]bool
	sets    map[string]bool
	approxN int

	small []*component // every component except the big S ones
	bigs  []*component
}

func newGen(in *instance, seed, stream uint64) *gen {
	g := &gen{in: in, rng: rand.New(rand.NewPCG(seed, stream)), texts: map[string]bool{}, sets: map[string]bool{}}
	for i := range in.comps {
		c := &in.comps[i]
		switch {
		case c.big:
			g.bigs = append(g.bigs, c)
		default:
			g.small = append(g.small, c)
		}
	}
	return g
}

// pick draws k distinct components from pool.
func (g *gen) pick(pool []*component, k int) []*component {
	idx := g.rng.Perm(len(pool))[:k]
	out := make([]*component, k)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

func (g *gen) exhausted(try int, what string) {
	if try == attempts {
		panic(fmt.Sprintf("perfbench: no fresh %s probe left in this instance", what))
	}
}

func (g *gen) fresh(text string) bool {
	if g.texts[text] {
		return false
	}
	g.texts[text] = true
	return true
}

func (g *gen) freshSet(tag string, comps []*component) bool {
	k := tag + ":" + sortedPreds(comps)
	if g.sets[k] {
		return false
	}
	g.sets[k] = true
	return true
}

func union(comps []*component) string {
	var ds []string
	for _, c := range comps {
		ds = append(ds, c.disjuncts()...)
	}
	return strings.Join(ds, " | ")
}

func costOf(comps []*component) float64 {
	s := 0.0
	for _, c := range comps {
		s += c.plannedCost()
	}
	return s
}

// circuitCost is the compile-forced plan cost /v1/prob is admitted on: a
// cold component prices at min(Gray walk, the 2^20 node budget).
func circuitCost(comps []*component) float64 {
	s := 0.0
	for _, c := range comps {
		s += min(float64(prod(c.sizes).Int64()), 1<<20)
	}
	return s
}

// Per-probe cost caps (in planned Gray states) for the exact shapes: far
// under the exact budget, and narrow enough that each seed's streams cost
// about the same.
const (
	maxExactCost = 4000
	maxProbCost  = 2000
)

// attempts bounds the rejection sampling of one fresh probe; running out
// means the instance is too small for the stream, a harness bug.
const attempts = 100000

// factorized: the disjunction of 1..4 small components, each counted by the
// planned per-component engines (Gray walk or component IE).
func (g *gen) factorized(ep string) *probe {
	for try := 0; ; try++ {
		g.exhausted(try, "factorized "+ep)
		comps := g.pick(g.small, 1+g.rng.IntN(4))
		if ep == "prob" && circuitCost(comps) > maxProbCost {
			continue
		}
		if costOf(comps) > maxExactCost || !g.freshSet(ep+"f", comps) {
			continue
		}
		q := union(comps)
		if !g.fresh(ep + q) {
			continue
		}
		return &probe{ep: ep, q: q, kind: "factorized", expect: "exact", want: g.in.countUnion(comps)}
	}
}

// groundAtoms draws k atoms on k distinct small components.
func (g *gen) groundAtoms(k int) []atom {
	comps := g.pick(g.small, k)
	atoms := make([]atom, k)
	for i, c := range comps {
		b := g.rng.IntN(len(c.sizes))
		atoms[i] = atom{c: c, b: b, v: g.rng.IntN(c.sizes[b])}
	}
	return atoms
}

func atomComps(atoms []atom) []*component {
	out := make([]*component, len(atoms))
	for i, a := range atoms {
		out[i] = a.c
	}
	return out
}

func joinAtoms(atoms []atom, op string) string {
	s := make([]string, len(atoms))
	for i, a := range atoms {
		s[i] = a.String()
	}
	return strings.Join(s, op)
}

// ground: a conjunction (self-join-free CQ: the safe plan) or a
// disjunction (keywidth 1: the Λ[1] closed form) of three ground atoms.
func (g *gen) ground(ep string, and bool) *probe {
	kind, op := "lambda1", " | "
	if and {
		kind, op = "safeplan", " & "
	}
	for try := 0; ; try++ {
		g.exhausted(try, kind+" "+ep)
		atoms := g.groundAtoms(3)
		if !g.freshSet(ep+kind, atomComps(atoms)) {
			continue
		}
		q := joinAtoms(atoms, op)
		if !g.fresh(ep + q) {
			continue
		}
		return &probe{ep: ep, q: q, kind: kind, expect: "exact", want: g.in.countGround(atoms, and)}
	}
}

// approx: one big S component, its variables renamed per probe so every
// text is fresh. The planned exact work exceeds the budget; the
// keywidth-2 shape keeps the FPRAS sample bound small (keywidth adds up
// across disjuncts, so no other component joins).
func (g *gen) approx() *probe {
	c := g.bigs[g.rng.IntN(len(g.bigs))]
	g.approxN++
	x, y := fmt.Sprintf("x%d", g.approxN), fmt.Sprintf("y%d", g.approxN)
	q := fmt.Sprintf("(exists %s, %s . (%s(%s, 'v0') & %s(%s, 'v1')))", x, y, c.pred, x, c.pred, y)
	g.fresh("count" + q)
	comps := []*component{c}
	return &probe{ep: "count", q: q, kind: "approx", expect: "approx", want: g.in.countUnion(comps)}
}

// nonEP: a ground atom and a negated one. Outside ∃FO⁺ there is no FPRAS
// and the repair count is far over any budget, so the daemon must refuse.
func (g *gen) nonEP() *probe {
	for try := 0; ; try++ {
		g.exhausted(try, "nonep")
		atoms := g.groundAtoms(2)
		q := fmt.Sprintf("%s & !%s", atoms[0], atoms[1])
		if !g.fresh("count" + q) {
			continue
		}
		return &probe{ep: "count", q: q, kind: "nonep", expect: "reject"}
	}
}

// mixEntry is one probe shape of a workload mix and how many of it the
// mix holds.
type mixEntry struct {
	n    int
	make func(g *gen) *probe
}

// coldBlock is the composition of every 40 consecutive probe-cold probes:
// 24 exact counts, 1 FPRAS count, 1 refused non-∃FO⁺ count, 7 decides and
// 7 probabilities. exact_share is computed over whole blocks, so it is
// 24/25 by design on correct code.
var coldBlock = []mixEntry{
	{16, func(g *gen) *probe { return g.factorized("count") }},
	{4, func(g *gen) *probe { return g.ground("count", true) }},
	{4, func(g *gen) *probe { return g.ground("count", false) }},
	{1, func(g *gen) *probe { return g.approx() }},
	{1, func(g *gen) *probe { return g.nonEP() }},
	{3, func(g *gen) *probe { return g.factorized("decide") }},
	{2, func(g *gen) *probe { return g.ground("decide", true) }},
	{2, func(g *gen) *probe { return g.ground("decide", false) }},
	{7, func(g *gen) *probe { return g.factorized("prob") }},
}

const coldBlockLen = 40

// coldStream is the probe-cold input: n probes (whole blocks), each block
// shuffled. The texts never repeat.
func coldStream(in *instance, seed uint64, blocks int) []*probe {
	g := newGen(in, seed, 0xc01d)
	out := make([]*probe, 0, blocks*coldBlockLen)
	for b := 0; b < blocks; b++ {
		var blk []*probe
		for _, e := range coldBlock {
			for i := 0; i < e.n; i++ {
				blk = append(blk, e.make(g))
			}
		}
		g.rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		out = append(out, blk...)
	}
	return out
}

// Hot working set: 96 distinct probes over all four endpoints, far under
// the daemon's 512 cache entries.
const hotSetSize = 96

var hotMix = []mixEntry{
	{32, func(g *gen) *probe { return g.factorized("count") }},
	{8, func(g *gen) *probe { return g.ground("count", true) }},
	{8, func(g *gen) *probe { return g.ground("count", false) }},
	{12, func(g *gen) *probe { return g.factorized("decide") }},
	{6, func(g *gen) *probe { return g.ground("decide", true) }},
	{6, func(g *gen) *probe { return g.ground("decide", false) }},
	{23, func(g *gen) *probe { return g.factorized("prob") }},
	{1, func(g *gen) *probe { return &probe{ep: "total", kind: "total", want: g.in.total} }},
}

// hotSet builds the working set in Zipf rank order. The kinds interleave
// at fixed ranks (the smoothest spread of hotMix's proportions), so every
// seed puts the same endpoint and shape at the same rank and only the
// query details vary.
func hotSet(in *instance, seed uint64) []*probe {
	g := newGen(in, seed, 0x407)
	taken := make([]int, len(hotMix))
	var set []*probe
	for len(set) < hotSetSize {
		best := -1
		for i, e := range hotMix {
			if taken[i] < e.n && (best < 0 || float64(2*taken[i]+1)/float64(e.n) < float64(2*taken[best]+1)/float64(hotMix[best].n)) {
				best = i
			}
		}
		taken[best]++
		set = append(set, hotMix[best].make(g))
	}
	return set
}

// zipfStream draws n indexes into the hot set: rank r has weight 1/(r+1)^1.1.
func zipfStream(seed uint64, setSize, n int) []int32 {
	rng := rand.New(rand.NewPCG(seed, 0x21bf))
	z := rand.NewZipf(rng, 1.1, 1, uint64(setSize-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// warmProbes are the probe-cold warm-up: one block of the cold mix drawn
// from its own stream (so no timed text repeats), building the daemon's
// lazy state on every endpoint and rung before timing.
func warmProbes(in *instance, seed uint64) []*probe {
	g := newGen(in, seed, 0x3a53)
	var out []*probe
	for _, e := range coldBlock {
		for i := 0; i < e.n; i++ {
			out = append(out, e.make(g))
		}
	}
	return out
}
