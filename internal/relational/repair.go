package relational

import (
	"iter"
	"math/big"
)

// NumRepairs returns |rep(D,Σ)| = ∏_i |B_i| (paper §2.1). Computing the
// total number of repairs is in FP; the count is returned as a big integer
// because it is exponential in the number of conflicting blocks.
func NumRepairs(d *Database, ks *KeySet) *big.Int {
	return NumRepairsOfBlocks(Blocks(d, ks))
}

// NumRepairsOfBlocks returns ∏_i |B_i| for a precomputed block sequence.
func NumRepairsOfBlocks(blocks []Block) *big.Int {
	n := big.NewInt(1)
	var size big.Int
	for _, b := range blocks {
		if b.Size() != 1 {
			n.Mul(n, size.SetInt64(int64(b.Size())))
		}
	}
	return n
}

// Repairs iterates over all repairs of D w.r.t. Σ in the canonical
// lexicographic order induced by ≺(D,Σ) and the within-block fact order.
// Each yielded slice has one fact per block, in block order; the slice is
// reused between iterations and must be copied if retained.
//
// This is an odometer over the cartesian product Π_i B_i, the construction
// rep(D,Σ) = {{α1,...,αn} : ⟨α1,...,αn⟩ ∈ Π(D,Σ)} of the paper.
func Repairs(blocks []Block) iter.Seq[[]Fact] {
	return func(yield func([]Fact) bool) {
		n := len(blocks)
		choice := make([]int, n)
		cur := make([]Fact, n)
		for {
			for i := range blocks {
				cur[i] = blocks[i].Facts[choice[i]]
			}
			if !yield(cur) {
				return
			}
			// advance odometer (last block varies fastest)
			i := n - 1
			for ; i >= 0; i-- {
				choice[i]++
				if choice[i] < blocks[i].Size() {
					break
				}
				choice[i] = 0
			}
			if i < 0 {
				return
			}
		}
	}
}

// RepairDatabases iterates repairs as *Database values (copies), convenient
// for evaluation code; prefer Repairs for hot loops.
func RepairDatabases(d *Database, ks *KeySet) iter.Seq[*Database] {
	blocks := Blocks(d, ks)
	return func(yield func(*Database) bool) {
		for facts := range Repairs(blocks) {
			cp := make([]Fact, len(facts))
			copy(cp, facts)
			if !yield(Subset(cp)) {
				return
			}
		}
	}
}

// IsRepairOf reports whether r is a repair of d w.r.t. ks: r ⊆ d, r ⊨ Σ,
// and r is ⊆-maximal among consistent subsets of d. Under primary keys
// maximality is equivalent to containing one fact from every block.
func IsRepairOf(r, d *Database, ks *KeySet) bool {
	for _, f := range r.FactsUnsorted() {
		if !d.Contains(f) {
			return false
		}
	}
	if !r.Satisfies(ks) {
		return false
	}
	// One fact per block of d: count distinct key values present in r.
	blocks := Blocks(d, ks)
	bi := NewBlockIndex(blocks)
	present := make([]bool, len(blocks))
	n := 0
	for _, f := range r.FactsUnsorted() {
		i, ok := bi.Find(ks, f)
		if !ok {
			return false
		}
		if !present[i] {
			present[i] = true
			n++
		}
	}
	return n == len(blocks)
}

// RandomRepair draws a repair uniformly at random: an independent uniform
// pick from each block. pick(i, n) must return an integer in [0, n). The
// uniform distribution over rep(D,Σ) factorizes over blocks because repairs
// correspond bijectively to Π_i B_i.
func RandomRepair(blocks []Block, pick func(i, n int) int) []Fact {
	out := make([]Fact, len(blocks))
	for i, b := range blocks {
		out[i] = b.Facts[pick(i, b.Size())]
	}
	return out
}
