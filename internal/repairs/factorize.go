package repairs

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"

	"repaircount/internal/eval"
	"repaircount/internal/relational"
)

// This file builds the component factorization behind CountFactorized: the
// decomposition of the relevant conflict blocks into connected components
// of the query-interaction graph. A repair entails the UCQ iff some
// homomorphism of some disjunct lands inside it, and every homomorphic
// image lives inside one component, so the non-entailment predicate ¬Q
// factorizes over components:
//
//	#¬Q = Π_c #¬Q_c      and      #Q = Π_i |B_i| − Π_c #¬Q_c.
//
// The enumeration cost drops from Π_c 2^{n_c} (one odometer over every
// block) to Σ_c 2^{n_c} (one odometer per component) — the decomposition
// exploited by Calautti–Livshits–Pieris for practical exact counting.
//
// Two interaction graphs are available. The precise one connects the blocks
// co-occurring in the image of one Σ-consistent homomorphism (enumerated
// over the shared interned index); as a by-product every image becomes a
// "box": the set of (block, choice) pairs a repair must pick for that
// homomorphism to land inside it, which feeds the counter-based delta
// engine in delta.go. When the homomorphism space is too large to
// materialize, a coarser sound over-approximation is used instead — blocks
// whose predicates co-occur in one disjunct are connected — and the delta
// engine falls back to probing the compiled matcher through a mutable
// allowed-ordinal mask.

// relevantSplit classifies the canonical block sequence by query relevance:
// UCQ truth depends only on facts whose predicate occurs in the query, so
// counts over the irrelevant blocks factor out as Π|B_i|. The canonical
// order sorts blocks by predicate first, so the relevant blocks are one
// contiguous range per query predicate, found by binary search on the
// live block sequence; the irrelevant blocks are never visited — their
// factor is the maintained repair total divided by the relevant one. The
// split therefore costs time in the query's blocks, not the database's.
// Computed once per instance version and shared by the exact, parallel
// and factorized counters.
type relevantSplit struct {
	rel    []relational.Block
	relPos []int    // positions of rel in the block sequence, ascending
	inner  *big.Int // Π sizes over rel
	outer  *big.Int // Π sizes over the irrelevant blocks: total / inner
}

// relevant memoizes the relevant/irrelevant block split. Valid only for
// existential positive instances (the UCQ rewriting names the predicates).
func (in *Instance) relevant() *relevantSplit {
	in.refresh()
	if in.relSplitMemo == nil {
		// Predicates() is sorted, as is the canonical block order, so the
		// ranges — and relPos — come out ascending.
		preds := in.UCQ.Predicates()
		ranges := make([][2]int, len(preds))
		n := 0
		for i, p := range preds {
			lo, hi := in.live.Blocks.PredRange(p)
			ranges[i] = [2]int{lo, hi}
			n += hi - lo
		}
		s := &relevantSplit{rel: make([]relational.Block, 0, n), relPos: make([]int, 0, n)}
		for _, r := range ranges {
			s.rel = append(s.rel, in.Blocks[r[0]:r[1]]...)
			for i := r[0]; i < r[1]; i++ {
				s.relPos = append(s.relPos, i)
			}
		}
		s.inner = relational.NumRepairsOfBlocks(s.rel)
		s.outer = new(big.Int).Quo(in.live.Blocks.Total(), s.inner)
		in.relSplitMemo = s
	}
	return in.relSplitMemo
}

// defaultHomBudget caps how many Σ-consistent homomorphisms the box
// extraction will materialize before falling back to the masked engine.
const defaultHomBudget = 1 << 20

// component is one connected component of the block interaction graph,
// ready for delta enumeration. Digits index the component's conflicting
// blocks; digit d has radix sizes[d] and its choices own the slot range
// [slotOff[d], slotOff[d+1]).
type component struct {
	blocks  []int32 // member positions into factorization.conf, digit order
	sizes   []int32 // per-digit block size (every size ≥ 2)
	slotOff []int32 // digit → first slot; slot = slotOff[d] + choice
	ords    []int32 // slot → fact ordinal in the instance index
	space   int64   // Π sizes, saturated at MaxInt64

	// Box-engine tables (nil on the masked path): box b requires the
	// (digit, choice) pairs reqDigit/reqChoice[boxOff[b]:boxOff[b+1]], and
	// touch[slot] lists the boxes requiring that slot.
	numBoxes  int
	boxOff    []int32
	reqDigit  []int32
	reqChoice []int32
	touch     [][]int32
}

// factorization is the memoized component decomposition of one instance.
type factorization struct {
	split         *relevantSplit
	conf          []relational.Block // relevant blocks with ≥ 2 facts
	confOff       []int32            // conf block ci's facts are confOrds[confOff[ci]:confOff[ci+1]]
	confOrds      []int32            // fact ordinals of the conf blocks, block by block
	alwaysTrue    bool               // some homomorphism uses only always-present facts
	masked        bool               // hom budget exceeded: predicate-level components + matcher-mask engine
	comps         []component
	untouched     *big.Int // Π sizes of conflicting blocks in no box (they never affect Q)
	untouchedConf []int32  // conf positions of those box-free blocks
	baseMask      []uint64 // masked path only: all facts allowed except those of the conf blocks
}

// factorization returns (building and memoizing on first use) the component
// decomposition. homBudget 0 selects defaultHomBudget (memoized); any other
// value bypasses the memo, and a negative value skips box extraction
// entirely, forcing the masked engine (used by tests).
func (in *Instance) factorization(homBudget int) *factorization {
	in.refresh()
	if homBudget != 0 {
		return newFactorization(in, homBudget)
	}
	if in.factMemo == nil {
		in.factMemo = newFactorization(in, defaultHomBudget)
	}
	return in.factMemo
}

func newFactorization(in *Instance, homBudget int) *factorization {
	f := &factorization{split: in.relevant(), untouched: big.NewInt(1)}
	// Map fact ordinals of conflicting relevant facts to (block, choice)
	// through a table over those facts alone; every other fact is present
	// in every repair.
	nConf, nFacts := 0, 0
	for _, b := range f.split.rel {
		if b.Size() > 1 {
			nConf++
			nFacts += b.Size()
		}
	}
	f.conf = make([]relational.Block, 0, nConf)
	f.confOff = make([]int32, 1, nConf+1)
	f.confOrds = make([]int32, 0, nFacts)
	confBlock := make([]int32, 0, nFacts)
	confChoice := make([]int32, 0, nFacts)
	for _, b := range f.split.rel {
		if b.Size() < 2 {
			continue
		}
		ci := int32(len(f.conf))
		f.conf = append(f.conf, b)
		for j, fact := range b.Facts {
			ord, ok := in.Idx.OrdinalOf(fact)
			if !ok {
				panic(fmt.Sprintf("repairs: block fact %s missing from instance index", fact))
			}
			f.confOrds = append(f.confOrds, ord)
			confBlock = append(confBlock, ci)
			confChoice = append(confChoice, int32(j))
		}
		f.confOff = append(f.confOff, int32(len(f.confOrds)))
	}
	confSlot := newOrdSlots(f.confOrds)

	// Extract one box per distinct Σ-consistent homomorphic image: the
	// (block, choice) pairs the image pins among the conflicting relevant
	// blocks. An image pinning nothing lies inside the always-present facts,
	// so every repair entails the query.
	type box struct {
		blocks  []int32 // global conflicting-block positions, ascending
		choices []int32
	}
	var boxes []box
	dedup := map[uint64][]int32{} // req hash → box ids
	var req [][2]int32
	homs := 0
	if homBudget < 0 {
		f.masked = true
	}
	for _, q := range in.UCQ.Disjuncts {
		if f.masked {
			break
		}
		for ords := range eval.ConsistentHomImageOrds(q, in.Idx, in.Keys) {
			homs++
			if homs > homBudget {
				f.masked = true
				break
			}
			req = req[:0]
			for _, ord := range ords {
				if sl := confSlot.at(ord); sl >= 0 {
					req = append(req, [2]int32{confBlock[sl], confChoice[sl]})
				}
			}
			if len(req) == 0 {
				f.alwaysTrue = true
				break
			}
			sort.Slice(req, func(i, j int) bool {
				if req[i][0] != req[j][0] {
					return req[i][0] < req[j][0]
				}
				return req[i][1] < req[j][1]
			})
			w := 1
			for i := 1; i < len(req); i++ {
				if req[i] != req[i-1] {
					req[w] = req[i]
					w++
				}
			}
			req = req[:w]
			h := uint64(14695981039346656037)
			for _, r := range req {
				h = (h ^ uint64(uint32(r[0]))) * 1099511628211
				h = (h ^ uint64(uint32(r[1]))) * 1099511628211
			}
			found := false
			for _, bi := range dedup[h] {
				if boxEqual(boxes[bi].blocks, boxes[bi].choices, req) {
					found = true
					break
				}
			}
			if !found {
				b := box{blocks: make([]int32, len(req)), choices: make([]int32, len(req))}
				for i, r := range req {
					b.blocks[i] = r[0]
					b.choices[i] = r[1]
				}
				dedup[h] = append(dedup[h], int32(len(boxes)))
				boxes = append(boxes, b)
			}
		}
		if f.alwaysTrue || f.masked {
			break
		}
	}
	if f.alwaysTrue {
		return f
	}

	if f.masked {
		// Coarse components: blocks whose predicates co-occur in a disjunct
		// interact. Sound because a homomorphism of one disjunct only uses
		// facts of that disjunct's predicates. First probe whether the
		// always-present facts alone entail the query (the masked analogue
		// of an empty box).
		f.baseMask = make([]uint64, (in.Idx.NumFacts()+63)/64)
		for i := range f.baseMask {
			f.baseMask[i] = ^uint64(0)
		}
		for _, ord := range f.confOrds {
			f.baseMask[ord/64] &^= 1 << (uint(ord) % 64)
		}
		if eval.NewUCQMatcher(in.UCQ, in.Idx).HasHomMasked(f.baseMask) {
			f.alwaysTrue = true
			return f
		}
		predID := map[string]int{}
		for _, b := range f.conf {
			if _, ok := predID[b.Key.Pred]; !ok {
				predID[b.Key.Pred] = len(predID)
			}
		}
		uf := relational.NewUnionFind(len(predID))
		for _, q := range in.UCQ.Disjuncts {
			first := -1
			for _, a := range q.Atoms {
				id, ok := predID[a.Pred]
				if !ok {
					continue
				}
				if first < 0 {
					first = id
				} else {
					uf.Union(first, id)
				}
			}
		}
		predComps := uf.Components()
		compOf := make([]int32, len(predID))
		for ci, preds := range predComps {
			for _, p := range preds {
				compOf[p] = int32(ci)
			}
		}
		groups := make([][]int32, len(predComps))
		for ci, b := range f.conf {
			g := compOf[predID[b.Key.Pred]]
			groups[g] = append(groups[g], int32(ci))
		}
		for _, g := range groups {
			f.comps = append(f.comps, f.buildComponent(g))
		}
		return f
	}

	// Precise components: union the blocks of every box, then lay each
	// component out with its boxes remapped to local digits. Blocks are
	// only ever unioned through boxes, so a box-free component is a single
	// block the query never inspects: its choices multiply directly into
	// the non-entailment product.
	uf := relational.NewUnionFind(len(f.conf))
	for _, b := range boxes {
		for _, ci := range b.blocks {
			uf.Union(int(b.blocks[0]), int(ci))
		}
	}
	members := uf.Components()
	blockComp := make([]int32, len(f.conf))
	for id, blocks := range members {
		for _, ci := range blocks {
			blockComp[ci] = int32(id)
		}
	}
	compBoxes := make([][]int32, len(members))
	for bi, b := range boxes {
		id := blockComp[b.blocks[0]]
		compBoxes[id] = append(compBoxes[id], int32(bi))
	}
	for id := range members {
		if len(compBoxes[id]) == 0 {
			for _, ci := range members[id] {
				f.untouched.Mul(f.untouched, big.NewInt(int64(f.conf[ci].Size())))
				f.untouchedConf = append(f.untouchedConf, ci)
			}
			continue
		}
		local := make(map[int32]int32, len(members[id])) // global block → digit
		for d, ci := range members[id] {
			local[ci] = int32(d)
		}
		c := f.buildComponent(members[id])
		c.numBoxes = len(compBoxes[id])
		c.boxOff = make([]int32, c.numBoxes+1)
		nReq := 0
		for _, bi := range compBoxes[id] {
			nReq += len(boxes[bi].blocks)
		}
		c.reqDigit = make([]int32, 0, nReq)
		c.reqChoice = make([]int32, 0, nReq)
		c.touch = make([][]int32, c.slotOff[len(c.sizes)])
		for k, bi := range compBoxes[id] {
			b := boxes[bi]
			for i := range b.blocks {
				d := local[b.blocks[i]]
				c.reqDigit = append(c.reqDigit, d)
				c.reqChoice = append(c.reqChoice, b.choices[i])
				slot := c.slotOff[d] + b.choices[i]
				c.touch[slot] = append(c.touch[slot], int32(k))
			}
			c.boxOff[k+1] = int32(len(c.reqDigit))
		}
		f.comps = append(f.comps, c)
	}
	return f
}

// buildComponent lays out the digits, slots and fact ordinals of one
// component over the given conflicting-block positions.
func (f *factorization) buildComponent(blocks []int32) component {
	c := component{
		blocks:  blocks,
		sizes:   make([]int32, len(blocks)),
		slotOff: make([]int32, len(blocks)+1),
		space:   1,
	}
	for d, ci := range blocks {
		c.sizes[d] = int32(f.conf[ci].Size())
		c.slotOff[d+1] = c.slotOff[d] + c.sizes[d]
		c.space = mulSat(c.space, int64(c.sizes[d]))
	}
	c.ords = make([]int32, 0, c.slotOff[len(blocks)])
	for _, ci := range blocks {
		c.ords = append(c.ords, f.confOrds[f.confOff[ci]:f.confOff[ci+1]]...)
	}
	return c
}

// compFP is the structural fingerprint of a component: two independent
// FNV-1a streams over the engine kind, the digit radices and the box
// requirement tables. Both box-path engines' per-component non-entailment
// counts #¬Q_c are pure functions of that structure — the Gray walk counts
// choice vectors avoiding every box, component-local IE sums signed box
// intersections, and neither looks at fact identities — so equal
// fingerprints mean equal counts, across deltas and even across instances.
// The engine kind is mixed in so forced-engine runs (differential tests,
// the planned-IE-vs-forced-Gray benchmark gate) never serve each other's
// memo entries: a forced Gray walk must pay for its enumeration even when
// the planner's IE pass already knows the answer. 128 bits make an
// accidental collision on the handful of components per instance
// astronomically unlikely.
type compFP [2]uint64

func (c *component) fingerprint(engine EngineKind) compFP {
	const (
		off1  = uint64(14695981039346656037)
		off2  = uint64(0x9e3779b97f4a7c15)
		prime = uint64(1099511628211)
	)
	h1, h2 := off1^uint64(engine), off2^uint64(engine)
	mix := func(v uint64) {
		h1 = (h1 ^ v) * prime
		h2 = (h2 ^ (v + 0x9e3779b97f4a7c15)) * prime
	}
	cols := [][]int32{c.sizes, c.boxOff, c.reqDigit, c.reqChoice}
	for _, col := range cols {
		mix(uint64(len(col)))
		for _, v := range col {
			mix(uint64(uint32(v)))
		}
	}
	return compFP{h1, h2}
}

func boxEqual(blocks, choices []int32, req [][2]int32) bool {
	if len(blocks) != len(req) {
		return false
	}
	for i, r := range req {
		if blocks[i] != r[0] || choices[i] != r[1] {
			return false
		}
	}
	return true
}

// mulSat multiplies non-negative int64s, saturating at MaxInt64.
func mulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// ordSlots numbers a set of fact ordinals densely: at(ord) is the position
// of ord in the list the table was built from, or -1 when ord is not in
// it. The table covers only runs of nearby ordinals — one per predicate's
// canonical range, plus facts inserted since the index was built — so it
// is sized by the set, not by the instance index, which is what keeps a
// probe's lookup tables proportional to the blocks its query reads.
type ordSlots struct {
	spans []ordSpan // ascending, disjoint
	slot  []int32
}

// ordSpan maps the ordinals [lo, hi) to slot[off+ord-lo].
type ordSpan struct{ lo, hi, off int32 }

// ordSpanGap is the widest run of absent ordinals a span bridges (with -1
// entries) rather than starting a new span.
const ordSpanGap = 16

func newOrdSlots(ords []int32) ordSlots {
	byOrd := make([]int32, len(ords))
	for i := range byOrd {
		byOrd[i] = int32(i)
	}
	less := func(a, b int32) int { return cmp.Compare(ords[a], ords[b]) }
	if !slices.IsSortedFunc(byOrd, less) {
		slices.SortFunc(byOrd, less)
	}
	var t ordSlots
	size := int32(0)
	for i := 0; i < len(byOrd); {
		j := i + 1
		for j < len(byOrd) && ords[byOrd[j]]-ords[byOrd[j-1]] <= ordSpanGap {
			j++
		}
		sp := ordSpan{lo: ords[byOrd[i]], hi: ords[byOrd[j-1]] + 1, off: size}
		t.spans = append(t.spans, sp)
		size += sp.hi - sp.lo
		i = j
	}
	t.slot = make([]int32, size)
	for i := range t.slot {
		t.slot[i] = -1
	}
	si := 0
	for _, p := range byOrd {
		for ords[p] >= t.spans[si].hi {
			si++
		}
		sp := t.spans[si]
		t.slot[sp.off+ords[p]-sp.lo] = p
	}
	return t
}

// at returns the position of ord in the indexed list, or -1.
func (t *ordSlots) at(ord int32) int32 {
	lo, hi := 0, len(t.spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.spans[m].hi <= ord {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(t.spans) || ord < t.spans[lo].lo {
		return -1
	}
	sp := &t.spans[lo]
	return t.slot[sp.off+ord-sp.lo]
}
