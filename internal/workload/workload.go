// Package workload generates the synthetic inputs used by the test suite,
// the examples and the benchmark harness: random inconsistent databases
// with controlled block-size distributions, the Employee scenario of the
// paper's Example 1.1 scaled up, query families of prescribed keywidth,
// random positive kDNF instances, hypergraph coloring instances, random
// graphs and random 3CNF formulas. All generators are deterministic given
// the caller's *rand.Rand.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"repaircount/internal/problems/coloring"
	"repaircount/internal/problems/dnf"
	"repaircount/internal/problems/graphs"
	"repaircount/internal/problems/sat"
	"repaircount/internal/query"
	"repaircount/internal/relational"
)

// Dist samples positive integers (block sizes).
type Dist interface {
	Sample(rng *rand.Rand) int
	String() string
}

// Fixed always returns N.
type Fixed struct{ N int }

// Sample implements Dist.
func (d Fixed) Sample(*rand.Rand) int { return d.N }
func (d Fixed) String() string        { return fmt.Sprintf("fixed(%d)", d.N) }

// Uniform returns integers uniformly in [Lo, Hi].
type Uniform struct{ Lo, Hi int }

// Sample implements Dist.
func (d Uniform) Sample(rng *rand.Rand) int {
	if d.Hi <= d.Lo {
		return d.Lo
	}
	return d.Lo + rng.IntN(d.Hi-d.Lo+1)
}
func (d Uniform) String() string { return fmt.Sprintf("uniform(%d..%d)", d.Lo, d.Hi) }

// Zipf returns 1 + a Zipf(s, v)-distributed value capped at Max: a few
// heavy blocks, a long tail of small ones — the shape of real dirty data.
type Zipf struct {
	S, V float64
	Max  int
}

// Sample implements Dist.
func (d Zipf) Sample(rng *rand.Rand) int {
	z := rand.NewZipf(rng, d.S, d.V, uint64(d.Max-1))
	return 1 + int(z.Uint64())
}
func (d Zipf) String() string { return fmt.Sprintf("zipf(s=%g,max=%d)", d.S, d.Max) }

// RelationSpec describes one generated relation.
type RelationSpec struct {
	Pred string
	// KeyWidth 0 declares no key (all facts certain). The generated key is
	// always the first attribute when KeyWidth = 1 (the common case).
	KeyWidth int
	// Arity is the total number of attributes (≥ KeyWidth, ≥ 1).
	Arity int
	// NumBlocks is the number of distinct key values (or facts when
	// unkeyed).
	NumBlocks int
	// BlockSizes samples the number of conflicting facts per block.
	BlockSizes Dist
	// NumValues is the size of the non-key value alphabet.
	NumValues int
}

// Generate builds a random database and key set from the specs.
func Generate(rng *rand.Rand, specs []RelationSpec) (*relational.Database, *relational.KeySet, error) {
	db := relational.MustDatabase()
	ks := relational.NewKeySet()
	for _, s := range specs {
		if s.Arity < 1 || s.KeyWidth < 0 || s.KeyWidth > s.Arity {
			return nil, nil, fmt.Errorf("workload: bad spec %+v", s)
		}
		if s.KeyWidth > 0 {
			if err := ks.Add(s.Pred, s.KeyWidth); err != nil {
				return nil, nil, err
			}
		}
		for b := 0; b < s.NumBlocks; b++ {
			size := s.BlockSizes.Sample(rng)
			if size < 1 {
				size = 1
			}
			if s.KeyWidth == 0 {
				size = 1 // unkeyed facts have no conflicts by construction
			}
			seen := map[string]bool{}
			for j := 0; j < size; j++ {
				args := make([]relational.Const, s.Arity)
				for a := 0; a < s.KeyWidth; a++ {
					args[a] = relational.Const("k" + strconv.Itoa(b))
				}
				for a := s.KeyWidth; a < s.Arity; a++ {
					args[a] = valueConst(rng.IntN(max(1, s.NumValues)))
				}
				if s.KeyWidth == 0 && s.Arity > 0 {
					// Make unkeyed facts distinct per block index.
					args[0] = relational.Const("u" + strconv.Itoa(b))
				}
				f := relational.Fact{Pred: s.Pred, Args: args}
				if seen[f.Canonical()] {
					continue // duplicate within block: block ends up smaller
				}
				seen[f.Canonical()] = true
				if err := db.Add(f); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return db, ks, nil
}

func valueConst(i int) relational.Const {
	return relational.Const("v" + strconv.Itoa(i))
}

// WithFiller returns copies of db and ks extended by nBlocks blocks of
// blockSize facts each over a fresh predicate pred, keyed on its first
// position: blocks no query over the other predicates reads. With
// blockSize 1 they are key-unique facts that leave |rep| unchanged and only
// lengthen the block sequence, the shape of a database whose query touches
// few of its blocks.
func WithFiller(db *relational.Database, ks *relational.KeySet, pred string, nBlocks, blockSize int) (*relational.Database, *relational.KeySet) {
	out, outKeys := db.Clone(), ks.Clone()
	outKeys.MustAdd(pred, 1)
	for b := 0; b < nBlocks; b++ {
		for j := 0; j < blockSize; j++ {
			out.Add(relational.NewFact(pred, relational.Const("f"+strconv.Itoa(b)), valueConst(j)))
		}
	}
	return out, outKeys
}

// PairsDatabase builds the scaling workload of experiments E2/E11: n
// blocks R(ki, 'a'|'b') of size 2 each, so the database has exactly 2^n
// repairs.
func PairsDatabase(n int) (*relational.Database, *relational.KeySet) {
	db := relational.MustDatabase()
	for i := 0; i < n; i++ {
		k := relational.Const("k" + strconv.Itoa(i))
		db.Add(relational.Fact{Pred: "R", Args: []relational.Const{k, "a"}})
		db.Add(relational.Fact{Pred: "R", Args: []relational.Const{k, "b"}})
	}
	return db, relational.Keys(map[string]int{"R": 1})
}

// Employee is the Example 1.1 scenario scaled: Employee(id, name, dept)
// with key(Employee) = {1}. A conflictRate fraction of employees have 2–3
// conflicting tuples (uncertain name or department).
func Employee(rng *rand.Rand, nEmployees, nDepts int, conflictRate float64) (*relational.Database, *relational.KeySet) {
	db := relational.MustDatabase()
	names := []relational.Const{"Alice", "Bob", "Carol", "Dan", "Eve", "Frank", "Grace", "Tim"}
	for id := 1; id <= nEmployees; id++ {
		idc := relational.IntConst(id)
		name := names[rng.IntN(len(names))]
		dept := deptConst(rng.IntN(nDepts))
		db.Add(relational.NewFact("Employee", idc, name, dept))
		if rng.Float64() < conflictRate {
			// A conflicting tuple: same id, different name or department.
			n2, d2 := name, dept
			if rng.IntN(2) == 0 {
				d2 = deptConst(rng.IntN(nDepts))
			} else {
				n2 = names[rng.IntN(len(names))]
			}
			if n2 != name || d2 != dept {
				db.Add(relational.NewFact("Employee", idc, n2, d2))
			}
			if rng.IntN(4) == 0 {
				db.Add(relational.NewFact("Employee", idc, names[rng.IntN(len(names))], deptConst(rng.IntN(nDepts))))
			}
		}
	}
	return db, relational.Keys(map[string]int{"Employee": 1})
}

func deptConst(i int) relational.Const {
	depts := []relational.Const{"HR", "IT", "Sales", "Legal", "R&D", "Ops"}
	return depts[i%len(depts)]
}

// SameDeptQuery asks whether employees id1 and id2 work in the same
// department (the query of Example 1.1).
func SameDeptQuery(id1, id2 int) query.Formula {
	src := fmt.Sprintf(
		"exists x, y, z . (Employee(%d, x, y) & Employee(%d, z, y))", id1, id2)
	return query.MustParse(src)
}

// MultiComponent builds a structured instance whose query-interaction
// graph has exactly nComponents independent components: predicates
// C0..C{n−1}, each with blocksPer conflict blocks of blockSize facts, and a
// query whose i-th disjunct joins two Ci blocks on their chosen values. The
// full repair space is blockSize^(nComponents·blocksPer) but each component
// couples only its own blocksPer blocks — the workload the factorized exact
// counter is built for, used by its benchmarks and differential tests.
func MultiComponent(nComponents, blocksPer, blockSize int) (*relational.Database, *relational.KeySet, query.Formula) {
	if blockSize < 2 {
		panic("workload: MultiComponent needs blockSize ≥ 2")
	}
	db := relational.MustDatabase()
	keys := map[string]int{}
	var disjuncts []string
	for c := 0; c < nComponents; c++ {
		pred := "C" + strconv.Itoa(c)
		keys[pred] = 1
		for b := 0; b < blocksPer; b++ {
			k := relational.Const("k" + strconv.Itoa(b))
			for v := 0; v < blockSize; v++ {
				db.Add(relational.Fact{Pred: pred, Args: []relational.Const{k, valueConst(v)}})
			}
		}
		disjuncts = append(disjuncts,
			fmt.Sprintf("(exists x, y . (%s(x, 'v0') & %s(y, 'v1')))", pred, pred))
	}
	q := query.MustParse(strings.Join(disjuncts, " | "))
	return db, relational.Keys(keys), q
}

// SkewedComponents builds a MultiComponent-style instance with a power-law
// component-size distribution — the adversarial case for the shard
// planner's cost bin-packing. Component i (predicate S{i}, key width 1)
// has b_i = max(2, ⌊maxBlocks / (i+1)^skew⌋) conflict blocks of size 2
// (choices 'v0'/'v1'), so component 0 dominates and the tail is tiny: a
// block-count-balanced partition would serialize the fleet behind the head
// component, while cost-balancing isolates it on its own shard. The query
// is the MultiComponent disjunction (component i entails iff some S{i}
// block picks 'v0' and another picks 'v1').
func SkewedComponents(nComponents, maxBlocks int, skew float64) (*relational.Database, *relational.KeySet, query.Formula) {
	if nComponents < 1 || maxBlocks < 2 || skew < 0 {
		panic("workload: SkewedComponents needs nComponents >= 1, maxBlocks >= 2 and skew >= 0")
	}
	db := relational.MustDatabase()
	keys := map[string]int{}
	var disjuncts []string
	for c := 0; c < nComponents; c++ {
		pred := "S" + strconv.Itoa(c)
		keys[pred] = 1
		for b := 0; b < skewedBlocks(c, maxBlocks, skew); b++ {
			k := relational.Const("k" + strconv.Itoa(b))
			for v := 0; v < 2; v++ {
				db.Add(relational.Fact{Pred: pred, Args: []relational.Const{k, valueConst(v)}})
			}
		}
		disjuncts = append(disjuncts,
			fmt.Sprintf("(exists x, y . (%s(x, 'v0') & %s(y, 'v1')))", pred, pred))
	}
	q := query.MustParse(strings.Join(disjuncts, " | "))
	return db, relational.Keys(keys), q
}

// skewedBlocks is the power-law block count of component i.
func skewedBlocks(i, maxBlocks int, skew float64) int {
	b := int(float64(maxBlocks) / math.Pow(float64(i+1), skew))
	if b < 2 {
		b = 2
	}
	return b
}

// SkewedComponentsCount returns #CQA of SkewedComponents in closed form.
// Component i avoids its disjunct iff all b_i blocks pick 'v0' or all pick
// 'v1', so #¬Q_c = 2 regardless of b_i and
// #Q = 2^{Σ_i b_i} − 2^{nComponents}.
func SkewedComponentsCount(nComponents, maxBlocks int, skew float64) *big.Int {
	total := 0
	for c := 0; c < nComponents; c++ {
		total += skewedBlocks(c, maxBlocks, skew)
	}
	n := new(big.Int).Lsh(big.NewInt(1), uint(total))
	return n.Sub(n, new(big.Int).Lsh(big.NewInt(1), uint(nComponents)))
}

// IEHeavy builds a structured instance in the few-boxes/large-component
// regime — the workload the exact-counting planner's component-local
// inclusion–exclusion engine exists for. Each of nComponents predicates
// P0..P{n−1} has blocksPer conflict blocks of size 2 (choices 'v0'/'v1'),
// and the query gives the component exactly nBoxes homomorphic-image
// boxes: ground disjunct j pins block 0 and the j-th contiguous segment of
// the remaining blocks to 'v0', so every box shares block 0 (the blocks
// form one connected component) while the segments partition the rest. The
// component's Gray walk costs 2^blocksPer states, its IE pass at most
// 2^nBoxes − 1 subset nodes, so forced Gray enumeration blows the budget
// at sizes the planner counts in microseconds. Requires
// 1 ≤ nBoxes < blocksPer.
func IEHeavy(nComponents, blocksPer, nBoxes int) (*relational.Database, *relational.KeySet, query.Formula) {
	if nComponents < 1 || blocksPer < 2 || nBoxes < 1 || nBoxes >= blocksPer {
		panic("workload: IEHeavy needs nComponents >= 1, blocksPer >= 2 and 1 <= nBoxes < blocksPer")
	}
	db := relational.MustDatabase()
	keys := map[string]int{}
	var disjuncts []string
	for c := 0; c < nComponents; c++ {
		pred := "P" + strconv.Itoa(c)
		keys[pred] = 1
		for b := 0; b < blocksPer; b++ {
			k := relational.Const("k" + strconv.Itoa(b))
			db.Add(relational.Fact{Pred: pred, Args: []relational.Const{k, "v0"}})
			db.Add(relational.Fact{Pred: pred, Args: []relational.Const{k, "v1"}})
		}
		for _, seg := range ieHeavySegments(blocksPer, nBoxes) {
			atoms := []string{fmt.Sprintf("%s('k0', 'v0')", pred)}
			for _, b := range seg {
				atoms = append(atoms, fmt.Sprintf("%s('k%d', 'v0')", pred, b))
			}
			disjuncts = append(disjuncts, "("+strings.Join(atoms, " & ")+")")
		}
	}
	q := query.MustParse(strings.Join(disjuncts, " | "))
	return db, relational.Keys(keys), q
}

// ieHeavySegments partitions blocks 1..blocksPer−1 into nBoxes contiguous
// near-equal runs, one per box.
func ieHeavySegments(blocksPer, nBoxes int) [][]int {
	rest := blocksPer - 1
	segs := make([][]int, nBoxes)
	next := 1
	for j := 0; j < nBoxes; j++ {
		n := rest / nBoxes
		if j < rest%nBoxes {
			n++
		}
		for i := 0; i < n; i++ {
			segs[j] = append(segs[j], next)
			next++
		}
	}
	return segs
}

// IEHeavyCount returns #CQA of IEHeavy(nComponents, blocksPer, nBoxes) in
// closed form. Per component, a choice vector avoids every box iff block 0
// picks 'v1' (2^{blocksPer−1} vectors) or block 0 picks 'v0' and every
// box's segment contains some 'v1' (Π_j (2^{s_j} − 1), segments disjoint),
// so #¬Q_c = 2^{blocksPer−1} + Π_j (2^{s_j} − 1) and
// #Q = 2^{nComponents·blocksPer} − (#¬Q_c)^{nComponents}.
func IEHeavyCount(nComponents, blocksPer, nBoxes int) *big.Int {
	nonent := new(big.Int).Lsh(big.NewInt(1), uint(blocksPer-1))
	broken := big.NewInt(1)
	for _, seg := range ieHeavySegments(blocksPer, nBoxes) {
		t := new(big.Int).Lsh(big.NewInt(1), uint(len(seg)))
		broken.Mul(broken, t.Sub(t, big.NewInt(1)))
	}
	nonent.Add(nonent, broken)
	total := new(big.Int).Lsh(big.NewInt(1), uint(nComponents*blocksPer))
	return total.Sub(total, nonent.Exp(nonent, big.NewInt(int64(nComponents)), nil))
}

// KeywidthQuery builds, together with its key set, a query of keywidth
// exactly k: ⋀ᵢ Ri('k0', 'hit') over k distinct keyed relations — each
// atom is satisfied only by the repair picking the designated witness fact
// of block k0, so on KeywidthDatabase instances the entailment probability
// is exactly blockSize^-k (the worst case driving the FPRAS sample bound).
func KeywidthQuery(k int) (query.Formula, *relational.KeySet) {
	ks := relational.NewKeySet()
	var conj []query.Formula
	for i := 1; i <= k; i++ {
		pred := "R" + strconv.Itoa(i)
		ks.MustAdd(pred, 1)
		conj = append(conj, query.AtomF{Atom: query.NewAtom(pred, query.C("k0"), query.C("hit"))})
	}
	if k == 0 {
		return query.Truth{Val: true}, ks
	}
	return query.Conj(conj...), ks
}

// KeywidthDatabase builds a database for KeywidthQuery(k): each Ri has
// extraBlocks+1 blocks of the given size; in block 'k0' exactly one fact
// carries the matching witness value 'hit'.
func KeywidthDatabase(rng *rand.Rand, k, blockSize, extraBlocks int) *relational.Database {
	db := relational.MustDatabase()
	for i := 1; i <= k; i++ {
		pred := "R" + strconv.Itoa(i)
		for b := 0; b <= extraBlocks; b++ {
			key := relational.Const("k" + strconv.Itoa(b))
			for j := 0; j < blockSize; j++ {
				val := relational.Const("miss" + strconv.Itoa(j))
				if b == 0 && j == 0 {
					val = "hit"
				}
				db.Add(relational.Fact{Pred: pred, Args: []relational.Const{key, val}})
			}
		}
	}
	return db
}

// Update is one operation of an update stream: the insertion (Del=false)
// or deletion (Del=true) of a fact.
type Update struct {
	Del  bool
	Fact relational.Fact
}

// UpdateStream generates n interleaved insert/delete operations that are
// valid against db evolving under the stream: every delete targets a fact
// live at that point, every insert is of a fact absent at that point.
// Roughly half the operations are deletes (when facts remain); of the
// inserts, a conflictRate fraction land in the conflict block of an
// existing fact (same key, fresh non-key values — raising that block's
// repair count), the rest open fresh blocks. The stream exercises every
// incremental-maintenance path: block growth, block birth, block shrink
// and block death. Deterministic for a fixed rng.
func UpdateStream(rng *rand.Rand, db *relational.Database, ks *relational.KeySet, n int, conflictRate float64) []Update {
	live := append([]relational.Fact(nil), db.FactsUnsorted()...)
	preds := make([]string, 0, len(db.Schema()))
	arity := db.Schema()
	for p := range arity {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	out := make([]Update, 0, n)
	fresh := 0
	for len(out) < n {
		if len(live) > 0 && rng.IntN(2) == 0 {
			j := rng.IntN(len(live))
			out = append(out, Update{Del: true, Fact: live[j]})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		var f relational.Fact
		if base, ok := pickConflictBase(rng, live, ks, conflictRate); ok {
			kw, _ := ks.Width(base.Pred)
			args := append([]relational.Const(nil), base.Args...)
			for a := kw; a < len(args); a++ {
				args[a] = relational.Const("uv" + strconv.Itoa(fresh))
			}
			fresh++
			f = relational.Fact{Pred: base.Pred, Args: args}
		} else {
			var pred string
			var ar int
			if len(preds) > 0 {
				pred = preds[rng.IntN(len(preds))]
				ar = arity[pred]
			} else {
				pred, ar = "U", 2
			}
			args := make([]relational.Const, ar)
			for a := range args {
				args[a] = relational.Const("uk" + strconv.Itoa(fresh))
			}
			fresh++
			f = relational.Fact{Pred: pred, Args: args}
		}
		out = append(out, Update{Fact: f})
		live = append(live, f)
	}
	return out
}

// pickConflictBase selects a live fact whose block an insert can join with
// a genuinely conflicting tuple: the predicate needs a key narrower than
// its arity (a fully-keyed fact admits no distinct block-mate).
func pickConflictBase(rng *rand.Rand, live []relational.Fact, ks *relational.KeySet, rate float64) (relational.Fact, bool) {
	if len(live) == 0 || rng.Float64() >= rate {
		return relational.Fact{}, false
	}
	for try := 0; try < 8; try++ {
		f := live[rng.IntN(len(live))]
		if w, ok := ks.Width(f.Pred); ok && w < len(f.Args) {
			return f, true
		}
	}
	return relational.Fact{}, false
}

// Probe is one admission probe for the serve daemon: a query text and the
// outcome the admission ladder must choose for it under the stream's
// stated exact budget — "exact", "approx" or "reject".
type Probe struct {
	Expect string
	Query  string
}

// ProbeStream builds a MultiComponent base instance (nComponents
// components, blocksPer size-2 blocks each) plus a probe stream covering
// every rung of the serve admission ladder, with the exact budget the
// outcomes are guaranteed under:
//
//   - exact — ground atoms, closed-form under the safe plan at zero
//     priced work, admitted under any budget;
//   - approx — the full cross-component disjunction, whose planned exact
//     work is at least 2^blocksPer per component and therefore exceeds
//     the returned budget of nComponents, degrading to the FPRAS;
//   - reject — a negation, outside existential positive FO: no FPRAS
//     exists, and with 2^(nComponents·blocksPer) repairs the enumeration
//     fallback also exceeds the budget, so the probe must be refused.
func ProbeStream(nComponents, blocksPer int) (*relational.Database, *relational.KeySet, int64, []Probe) {
	return ProbeStreamDistinct(nComponents, blocksPer, 0)
}

// ProbeStreamDistinct is ProbeStream with a query working-set knob:
// distinct > 0 replaces the default one-exact-probe-per-component set
// with exactly `distinct` DISTINCT ground-atom exact probes, cycling
// through components, keys and values — so cache hit rates under a
// mixed probe stream are shaped deterministically. The instance has
// nComponents·blocksPer·2 distinct ground atoms; asking for more
// panics. distinct == 0 keeps the default set.
func ProbeStreamDistinct(nComponents, blocksPer, distinct int) (*relational.Database, *relational.KeySet, int64, []Probe) {
	if nComponents < 1 || blocksPer < 2 {
		panic("workload: ProbeStream needs nComponents >= 1 and blocksPer >= 2")
	}
	if distinct > nComponents*blocksPer*2 {
		panic(fmt.Sprintf("workload: ProbeStreamDistinct can shape at most %d distinct ground-atom probes (nComponents*blocksPer*2), asked for %d",
			nComponents*blocksPer*2, distinct))
	}
	db, ks, _ := MultiComponent(nComponents, blocksPer, 2)
	budget := int64(nComponents)
	var probes []Probe
	if distinct > 0 {
		for i := 0; i < distinct; i++ {
			c := i % nComponents
			b := (i / nComponents) % blocksPer
			v := i / (nComponents * blocksPer)
			probes = append(probes, Probe{Expect: "exact", Query: fmt.Sprintf("C%d('k%d', 'v%d')", c, b, v)})
		}
	} else {
		for c := 0; c < nComponents; c++ {
			probes = append(probes, Probe{Expect: "exact", Query: fmt.Sprintf("C%d('k0', 'v0')", c)})
		}
	}
	var parts []string
	for c := 0; c < nComponents; c++ {
		parts = append(parts, fmt.Sprintf("(exists x, y . (C%d(x, 'v0') & C%d(y, 'v1')))", c, c))
	}
	probes = append(probes, Probe{Expect: "approx", Query: strings.Join(parts, " | ")})
	probes = append(probes, Probe{Expect: "reject", Query: "!C0('k0', 'v0')"})
	return db, ks, budget, probes
}

// FormatProbes writes a probe stream: an "# exact-budget: N" header the
// consumer must configure the daemon with, then one "expect<TAB>query"
// line per probe.
func FormatProbes(w io.Writer, exactBudget int64, probes []Probe) error {
	if _, err := fmt.Fprintf(w, "# exact-budget: %d\n", exactBudget); err != nil {
		return err
	}
	for _, p := range probes {
		if _, err := fmt.Fprintf(w, "%s\t%s\n", p.Expect, p.Query); err != nil {
			return err
		}
	}
	return nil
}

// FormatUpdates writes an update stream in the text op format consumed by
// repairctl apply: one op per line, "+ Fact" for inserts and "- Fact" for
// deletes, facts in the codec syntax.
func FormatUpdates(w io.Writer, ops []Update) error {
	for _, op := range ops {
		sign := "+"
		if op.Del {
			sign = "-"
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", sign, op.Fact.Canonical()); err != nil {
			return err
		}
	}
	return nil
}

// ParseUpdates reads the text op format back (blank lines and # comments
// are skipped).
func ParseUpdates(r io.Reader) ([]Update, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var ops []Update
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var del bool
		switch {
		case strings.HasPrefix(line, "+"):
		case strings.HasPrefix(line, "-"):
			del = true
		default:
			return nil, fmt.Errorf("workload: line %d: want '+ Fact' or '- Fact', got %q", lineNo, line)
		}
		f, err := relational.ParseFact(strings.TrimSpace(line[1:]))
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", lineNo, err)
		}
		ops = append(ops, Update{Del: del, Fact: f})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: read: %w", err)
	}
	return ops, nil
}

// ProbAnnotation is one per-fact probability annotation of a prob stream:
// the fact and its non-negative weight. Within one conflict block the
// weights normalize to the block's choice distribution (the disjoint-
// independent probabilistic-database reading; see internal/probdb and the
// weighted counters of internal/repairs).
type ProbAnnotation struct {
	Fact   relational.Fact
	Weight float64
}

// ProbStream annotates every fact of db with a deterministic pseudo-random
// dyadic weight k/16, k ∈ 1..16. Dyadic weights are exact in float64 AND
// in big.Rat, so a stream round-trips through its text form bit-exactly
// and the interval-arithmetic weighted counters can be pinned against
// exact rational ground truth without representation slack. Facts are
// visited in canonical order, so the stream is deterministic for a fixed
// rng.
func ProbStream(rng *rand.Rand, db *relational.Database) []ProbAnnotation {
	facts := db.Facts()
	out := make([]ProbAnnotation, len(facts))
	for i, f := range facts {
		out[i] = ProbAnnotation{Fact: f, Weight: float64(1+rng.IntN(16)) / 16}
	}
	return out
}

// FormatProbAnnotations writes a prob stream in the text format consumed
// by `repairctl serve -probs`: one "weight<TAB>fact" line per annotation,
// the weight rendered with strconv 'g'/-1 so parsing recovers the exact
// float64.
func FormatProbAnnotations(w io.Writer, anns []ProbAnnotation) error {
	for _, a := range anns {
		if _, err := fmt.Fprintf(w, "%s\t%s\n", strconv.FormatFloat(a.Weight, 'g', -1, 64), a.Fact.Canonical()); err != nil {
			return err
		}
	}
	return nil
}

// ParseProbAnnotations reads the prob-stream text format back (blank
// lines and # comments are skipped). Weights must be finite and ≥ 0; a
// duplicate annotation for one fact is an error rather than a silent
// last-writer-wins.
func ParseProbAnnotations(r io.Reader) ([]ProbAnnotation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var anns []ProbAnnotation
	seen := map[string]bool{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		weight, fact, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("workload: line %d: want 'weight<TAB>Fact', got %q", lineNo, line)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(weight), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad weight: %w", lineNo, err)
		}
		if math.IsInf(x, 0) || math.IsNaN(x) || x < 0 {
			return nil, fmt.Errorf("workload: line %d: weight %v out of range (want finite ≥ 0)", lineNo, x)
		}
		f, err := relational.ParseFact(strings.TrimSpace(fact))
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", lineNo, err)
		}
		if seen[f.Canonical()] {
			return nil, fmt.Errorf("workload: line %d: duplicate annotation for %s", lineNo, f)
		}
		seen[f.Canonical()] = true
		anns = append(anns, ProbAnnotation{Fact: f, Weight: x})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: read: %w", err)
	}
	return anns, nil
}

// AnnotationMap renders a prob stream as the canonical-fact-text → weight
// map the Counter.FactWeights facade consumes.
func AnnotationMap(anns []ProbAnnotation) map[string]float64 {
	m := make(map[string]float64, len(anns))
	for _, a := range anns {
		m[a.Fact.Canonical()] = a.Weight
	}
	return m
}

// RandomCNF builds a random 3CNF formula.
func RandomCNF(rng *rand.Rand, nVars, nClauses int) sat.CNF {
	f := sat.CNF{NumVars: nVars}
	for c := 0; c < nClauses; c++ {
		var cl sat.Clause
		for j := 0; j < 3; j++ {
			cl[j] = sat.Literal{Var: rng.IntN(nVars), Neg: rng.IntN(2) == 0}
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// RandomDisjDNF builds a random #DisjPoskDNF instance with the given
// number of classes, maximum class size, clause width and clause count.
func RandomDisjDNF(rng *rand.Rand, nClasses, maxClassSize, width, nClauses int) *dnf.Instance {
	var p dnf.Partition
	n := 0
	for c := 0; c < nClasses; c++ {
		sz := 1 + rng.IntN(maxClassSize)
		var class []int
		for j := 0; j < sz; j++ {
			class = append(class, n)
			n++
		}
		p = append(p, class)
	}
	f := dnf.Formula{NumVars: n, Width: width}
	for c := 0; c < nClauses; c++ {
		sz := 1 + rng.IntN(max(1, width))
		clause := make(dnf.Clause, 0, sz)
		for j := 0; j < sz; j++ {
			clause = append(clause, rng.IntN(n))
		}
		f.Clauses = append(f.Clauses, clause)
	}
	return dnf.MustInstance(f, p)
}

// RandomGraph builds a G(n, p)-style random graph.
func RandomGraph(rng *rand.Rand, n int, p float64) graphs.Graph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return graphs.Graph{N: n, Edges: edges}
}

// RandomColoring builds a random #kForbColoring instance.
func RandomColoring(rng *rand.Rand, nVertices, k, nEdges, nColors, maxForbidden int) *coloring.Instance {
	palette := make([]coloring.Color, nColors)
	for i := range palette {
		palette[i] = coloring.Color("col" + strconv.Itoa(i))
	}
	colors := make([][]coloring.Color, nVertices)
	for v := range colors {
		colors[v] = append([]coloring.Color{}, palette[:1+rng.IntN(nColors)]...)
	}
	var edges [][]int
	for e := 0; e < nEdges; e++ {
		edges = append(edges, rng.Perm(nVertices)[:k])
	}
	h := coloring.Hypergraph{N: nVertices, K: k, Edges: edges}
	forb := make([][]coloring.Forbidden, len(edges))
	for ei := range forb {
		for f := 0; f < 1+rng.IntN(max(1, maxForbidden)); f++ {
			nu := make(coloring.Forbidden, k)
			for j := range nu {
				nu[j] = palette[rng.IntN(nColors)]
			}
			forb[ei] = append(forb[ei], nu)
		}
	}
	return coloring.MustInstance(h, colors, forb)
}
