package main

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"repaircount/internal/relational"
)

// The benchmark instance combines the three structured families of
// internal/workload in one database, each component with its own seeded
// block-size vector:
//
//   - C components (MultiComponent shape): 4 blocks of 2..4 facts, entailed
//     when some block picks 'v0' and some block picks 'v1';
//   - P components (IEHeavy shape): size-2 blocks and a few ground boxes,
//     each pinning block 0 plus one contiguous segment to 'v0';
//   - S components (SkewedComponents shape): size-2 blocks, entailed like C.
//
// Distinct size vectors keep count fingerprints of different queries
// apart, so a fresh query is a genuine cache miss rather than an alias of
// an earlier one. A key-unique filler relation F (blocks of one fact)
// gives the snapshot realistic bulk without inflating any count.

type family byte

const (
	famC family = 'C'
	famP family = 'P'
	famS family = 'S'
)

// component is one query-interaction component: predicate pred with block
// b keyed k<b> holding values v0..v<sizes[b]-1>.
type component struct {
	fam   family
	pred  string
	sizes []int
	boxes int // P only: number of ground boxes
	big   bool
}

// Sizing. A big S component's Gray walk prices far over the exact budget
// (and its boxes make inclusion–exclusion costlier still), so a query
// touching one lands on the FPRAS rung; every other component prices well
// under the budget.
const (
	numC      = 24
	numSmallP = 12
	numBigS   = 4
	numS      = 8
	numFiller = 1000

	// exactBudget is the daemon's -exact-budget.
	exactBudget = 200_000
)

type instance struct {
	comps  []component
	byPred map[string]*component
	filler int
	total  *big.Int // |rep| = product of every block size
}

func newInstance(seed uint64) *instance {
	rng := rand.New(rand.NewPCG(seed, 0x1257))
	in := &instance{byPred: map[string]*component{}, filler: numFiller}
	seen := map[string]bool{}
	add := func(c component) bool {
		key := fmt.Sprint(c.fam, c.sizes, c.boxes)
		if seen[key] {
			return false
		}
		seen[key] = true
		c.pred = string(c.fam) + strconv.Itoa(len(in.comps))
		in.comps = append(in.comps, c)
		return true
	}
	for n := 0; n < numC; {
		sizes := make([]int, 4)
		for i := range sizes {
			sizes[i] = 2 + rng.IntN(3)
		}
		if add(component{fam: famC, sizes: sizes}) {
			n++
		}
	}
	for n := 0; n < numSmallP; {
		blocks := 8 + rng.IntN(6)
		if add(component{fam: famP, sizes: twos(blocks), boxes: 2 + rng.IntN(3)}) {
			n++
		}
	}
	for n := 0; n < numBigS; {
		if add(component{fam: famS, sizes: twos(19 + rng.IntN(4)), big: true}) {
			n++
		}
	}
	for n := 0; n < numS; {
		if add(component{fam: famS, sizes: twos(4 + rng.IntN(8))}) {
			n++
		}
	}
	in.total = big.NewInt(1)
	for i := range in.comps {
		c := &in.comps[i]
		in.byPred[c.pred] = c
		in.total.Mul(in.total, prod(c.sizes))
	}
	return in
}

func twos(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = 2
	}
	return s
}

func prod(sizes []int) *big.Int {
	p := big.NewInt(1)
	for _, s := range sizes {
		p.Mul(p, big.NewInt(int64(s)))
	}
	return p
}

// facts lists the component facts (without the filler) in a fixed order.
func (in *instance) facts() []relational.Fact {
	var out []relational.Fact
	for _, c := range in.comps {
		for b, s := range c.sizes {
			for v := 0; v < s; v++ {
				out = append(out, relational.NewFact(c.pred, key(b), val(v)))
			}
		}
	}
	return out
}

func key(b int) relational.Const { return relational.Const("k" + strconv.Itoa(b)) }
func val(v int) relational.Const { return relational.Const("v" + strconv.Itoa(v)) }

// database builds the full instance, filler included.
func (in *instance) database() (*relational.Database, *relational.KeySet) {
	db := relational.MustDatabase()
	keys := map[string]int{"F": 1}
	for _, f := range in.facts() {
		db.Add(f)
		keys[f.Pred] = 1
	}
	for i := 0; i < in.filler; i++ {
		id := strconv.Itoa(i)
		db.Add(relational.NewFact("F", relational.Const("f"+id), relational.Const("x"+id)))
	}
	return db, relational.Keys(keys)
}

// componentDB is the instance without the filler: the update stream is
// drawn over it so every op touches a predicate the probes read.
func (in *instance) componentDB() (*relational.Database, *relational.KeySet) {
	db := relational.MustDatabase()
	keys := map[string]int{}
	for _, f := range in.facts() {
		db.Add(f)
		keys[f.Pred] = 1
	}
	return db, relational.Keys(keys)
}

// segments partitions blocks 1..n-1 into k contiguous near-equal runs (the
// IEHeavy box layout).
func segments(n, k int) [][]int {
	rest := n - 1
	segs := make([][]int, k)
	next := 1
	for j := 0; j < k; j++ {
		m := rest / k
		if j < rest%k {
			m++
		}
		for i := 0; i < m; i++ {
			segs[j] = append(segs[j], next)
			next++
		}
	}
	return segs
}

// disjuncts renders the component's query disjuncts.
func (c *component) disjuncts() []string {
	if c.fam != famP {
		return []string{fmt.Sprintf("(exists x, y . (%s(x, 'v0') & %s(y, 'v1')))", c.pred, c.pred)}
	}
	var out []string
	for _, seg := range segments(len(c.sizes), c.boxes) {
		atoms := []string{fmt.Sprintf("%s('k0', 'v0')", c.pred)}
		for _, b := range seg {
			atoms = append(atoms, fmt.Sprintf("%s('k%d', 'v0')", c.pred, b))
		}
		out = append(out, "("+strings.Join(atoms, " & ")+")")
	}
	return out
}

// nonEntailing is the component's closed-form #¬Q_c (the IEHeavyCount and
// SkewedComponentsCount derivations, generalised to per-block sizes): a C
// or S component avoids its disjunct iff no block picks 'v0' or no block
// picks 'v1'; a P component iff block 0 picks 'v1' or every segment has a
// 'v1'.
func (c *component) nonEntailing() *big.Int {
	if c.fam == famP {
		n := new(big.Int).Lsh(big.NewInt(1), uint(len(c.sizes)-1))
		broken := big.NewInt(1)
		for _, seg := range segments(len(c.sizes), c.boxes) {
			t := new(big.Int).Lsh(big.NewInt(1), uint(len(seg)))
			broken.Mul(broken, t.Sub(t, big.NewInt(1)))
		}
		return n.Add(n, broken)
	}
	less1, less2 := big.NewInt(1), big.NewInt(1)
	for _, s := range c.sizes {
		less1.Mul(less1, big.NewInt(int64(s-1)))
		less2.Mul(less2, big.NewInt(int64(s-2)))
	}
	n := new(big.Int).Lsh(less1, 1)
	return n.Sub(n, less2)
}

// plannedCost is the planner's cost of the component (min of the Gray
// walk and the inclusion–exclusion pass, in Gray states), recomputed here
// from the cost model the repairs package documents so that each probe's
// expected admission rung is fixed by construction, not by asking the
// program under test.
func (c *component) plannedCost() float64 {
	gray := 1.0
	for _, s := range c.sizes {
		gray *= float64(s)
	}
	boxes := c.boxes
	if c.fam != famP {
		// Every ordered pair of distinct blocks is a box.
		boxes = len(c.sizes) * (len(c.sizes) - 1)
	}
	ie := 8 * (float64(uint64(1)<<min(boxes, 62)) - 1)
	return min(gray, ie)
}

// atom is one ground atom of a component: block b picks value v.
type atom struct {
	c    *component
	b, v int
}

func (a atom) String() string { return fmt.Sprintf("%s('k%d', 'v%d')", a.c.pred, a.b, a.v) }

// countGround is the closed-form count of a conjunction (and=true) or a
// disjunction of ground atoms over pairwise distinct blocks.
func (in *instance) countGround(atoms []atom, and bool) *big.Int {
	touched := big.NewInt(1)
	for _, a := range atoms {
		touched.Mul(touched, big.NewInt(int64(a.c.sizes[a.b])))
	}
	rest := new(big.Int).Quo(in.total, touched)
	if and {
		return rest // one choice per touched block
	}
	avoid := big.NewInt(1)
	for _, a := range atoms {
		avoid.Mul(avoid, big.NewInt(int64(a.c.sizes[a.b]-1)))
	}
	n := new(big.Int).Sub(touched, avoid)
	return n.Mul(n, rest)
}

// countUnion is the closed-form count of the disjunction of the given
// components' disjuncts: #Q = |rep| − Π_c #¬Q_c · |rep| / Π_c |space_c|.
func (in *instance) countUnion(comps []*component) *big.Int {
	non, space := big.NewInt(1), big.NewInt(1)
	for _, c := range comps {
		non.Mul(non, c.nonEntailing())
		space.Mul(space, prod(c.sizes))
	}
	non.Mul(non, new(big.Int).Quo(in.total, space))
	return non.Sub(in.total, non)
}

// sortedPreds names a component set canonically.
func sortedPreds(comps []*component) string {
	names := make([]string, len(comps))
	for i, c := range comps {
		names[i] = c.pred
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
