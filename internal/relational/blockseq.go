package relational

import (
	"math/big"
	"sort"
	"sync"
)

// BlockSeq is an incrementally maintained canonical block sequence: the
// partition ≺(D,Σ) of Blocks, kept up to date under single-fact inserts and
// deletes instead of being recomputed per instance. Inserting a fact
// touches only its own block (found through the maintained BlockIndex);
// a fact with a fresh key value splices a new block into its canonical
// position, and deleting the last fact of a block splices the block out,
// so the sequence always equals what Blocks would compute from scratch —
// the invariant the FPRAS sampling determinism and the factorized counter
// rely on across deltas.
//
// Block fact slices may alias shared arenas (the snapshot loader's mapped
// columns, the Blocks fact arena); the first mutation of a block replaces
// its slice with a private copy, never writing through the original.
//
// Besides the sequence it answers the block aggregates the counting layer
// needs without walking every block: Π|B_i| (Total) and max|B_i|
// (MaxSize), from a block-size histogram maintained under Insert/Remove,
// and the contiguous range of one predicate's blocks (PredRange).
//
// A BlockSeq is not safe for concurrent mutation.
type BlockSeq struct {
	blocks []Block
	// bi is the lazily built, then incrementally maintained index. biMu
	// guards only the first build: concurrent read-only users (counters
	// sharing one loaded snapshot) may race to Index, while mutation is
	// single-threaded by the type's contract.
	biMu    sync.Mutex
	bi      *BlockIndex
	version uint64

	// aggMu guards the aggregates, which concurrent readers build lazily.
	// hist[s] is the number of blocks of size s, with no trailing zeros
	// (so max|B_i| = len(hist)−1); it is built on first use and then
	// maintained per mutation. total is Π|B_i| at version totalVer.
	aggMu    sync.Mutex
	hist     []int
	total    *big.Int
	totalVer uint64
}

// NewBlockSeq wraps an existing canonical block sequence (as produced by
// Blocks or the snapshot loader). The slice is borrowed; the caller must
// not mutate it independently afterwards.
func NewBlockSeq(blocks []Block) *BlockSeq {
	return &BlockSeq{blocks: blocks}
}

// Seq returns the current block sequence in canonical ≺(D,Σ) order. The
// slice is invalidated by the next structural mutation (block added or
// removed); re-read it after every Insert/Remove.
func (s *BlockSeq) Seq() []Block { return s.blocks }

// Len returns the number of blocks.
func (s *BlockSeq) Len() int { return len(s.blocks) }

// Version returns a counter incremented by every successful mutation.
func (s *BlockSeq) Version() uint64 { return s.version }

// Index returns the maintained key-value → position index over the
// sequence, building it on first use. Safe for concurrent read-only
// callers.
func (s *BlockSeq) Index() *BlockIndex {
	s.biMu.Lock()
	if s.bi == nil {
		s.bi = NewBlockIndex(s.blocks)
	}
	bi := s.bi
	s.biMu.Unlock()
	return bi
}

// PredRange returns the positions [lo, hi) of pred's blocks. The canonical
// order sorts blocks by predicate first, so they are one contiguous range
// (empty, lo == hi, when pred has no facts).
func (s *BlockSeq) PredRange(pred string) (lo, hi int) {
	lo = sort.Search(len(s.blocks), func(i int) bool { return s.blocks[i].Key.Pred >= pred })
	hi = lo + sort.Search(len(s.blocks)-lo, func(i int) bool { return s.blocks[lo+i].Key.Pred > pred })
	return lo, hi
}

// Total returns |rep(D,Σ)| = Π|B_i|, computed once per version from the
// block-size histogram (Π_s s^{#blocks of size s}). The result is shared
// by every caller at this version and must not be mutated. Safe for
// concurrent read-only callers.
func (s *BlockSeq) Total() *big.Int {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	if s.total != nil && s.totalVer == s.version {
		return s.total
	}
	s.ensureHist()
	t := big.NewInt(1)
	var base, exp, pow big.Int
	for size := 2; size < len(s.hist); size++ {
		if n := s.hist[size]; n > 0 {
			pow.Exp(base.SetInt64(int64(size)), exp.SetInt64(int64(n)), nil)
			t.Mul(t, &pow)
		}
	}
	s.total, s.totalVer = t, s.version
	return t
}

// MaxSize returns max_i |B_i| (0 for an empty sequence): the m of the
// FPRAS sample bound. Safe for concurrent read-only callers.
func (s *BlockSeq) MaxSize() int {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	s.ensureHist()
	return max(len(s.hist)-1, 0)
}

// ensureHist builds the block-size histogram on first use. Caller holds
// aggMu.
func (s *BlockSeq) ensureHist() {
	if s.hist != nil {
		return
	}
	s.hist = []int{}
	for _, b := range s.blocks {
		s.histAdd(b.Size(), 1)
	}
}

// noteResize records that one block changed size from `from` to `to`
// (0 stands for a block that did not or no longer exists). A histogram not
// built yet is left for ensureHist.
func (s *BlockSeq) noteResize(from, to int) {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	if s.hist == nil {
		return
	}
	if from > 0 {
		s.histAdd(from, -1)
	}
	if to > 0 {
		s.histAdd(to, 1)
	}
}

// histAdd adjusts the count of blocks of the given size, keeping the
// histogram free of trailing zeros. Caller holds aggMu.
func (s *BlockSeq) histAdd(size, delta int) {
	for len(s.hist) <= size {
		s.hist = append(s.hist, 0)
	}
	s.hist[size] += delta
	for len(s.hist) > 0 && s.hist[len(s.hist)-1] == 0 {
		s.hist = s.hist[:len(s.hist)-1]
	}
}

// Insert adds fact f to the partition: into its existing block (keeping
// the block's canonical fact order) or, for a fresh key value, as a new
// block at its canonical position. It reports whether the sequence changed
// (false: the fact is already present).
func (s *BlockSeq) Insert(ks *KeySet, f Fact) bool {
	kv := ks.KeyValue(f)
	if pos, ok := s.Index().FindKey(kv); ok {
		b := &s.blocks[pos]
		i := sort.Search(len(b.Facts), func(i int) bool { return !b.Facts[i].Less(f) })
		if i < len(b.Facts) && b.Facts[i].Equal(f) {
			return false
		}
		// Copy-on-write: the old slice may subslice a shared arena.
		facts := make([]Fact, 0, len(b.Facts)+1)
		facts = append(facts, b.Facts[:i]...)
		facts = append(facts, f)
		facts = append(facts, b.Facts[i:]...)
		b.Facts = facts
		s.noteResize(len(facts)-1, len(facts))
		s.version++
		return true
	}
	pos := sort.Search(len(s.blocks), func(i int) bool { return kv.Less(s.blocks[i].Key) })
	s.blocks = append(s.blocks, Block{})
	copy(s.blocks[pos+1:], s.blocks[pos:])
	s.blocks[pos] = Block{Key: kv, Facts: []Fact{f}}
	s.noteSpliceIn(pos)
	s.noteResize(0, 1)
	s.version++
	return true
}

// Remove deletes fact f from the partition, splicing its block out when f
// was the block's last fact. It reports whether the fact was present.
func (s *BlockSeq) Remove(ks *KeySet, f Fact) bool {
	pos, ok := s.Index().FindKey(ks.KeyValue(f))
	if !ok {
		return false
	}
	b := &s.blocks[pos]
	i := b.Index(f)
	if i < 0 {
		return false
	}
	if len(b.Facts) == 1 {
		key := b.Key
		copy(s.blocks[pos:], s.blocks[pos+1:])
		s.blocks[len(s.blocks)-1] = Block{}
		s.blocks = s.blocks[:len(s.blocks)-1]
		s.noteSpliceOut(pos, key)
		s.noteResize(1, 0)
		s.version++
		return true
	}
	facts := make([]Fact, 0, len(b.Facts)-1)
	facts = append(facts, b.Facts[:i]...)
	facts = append(facts, b.Facts[i+1:]...)
	b.Facts = facts
	s.noteResize(len(facts)+1, len(facts))
	s.version++
	return true
}

// noteSpliceIn updates the maintained index for a new block at pos: every
// stored position ≥ pos shifts up by one, then the new key is added.
func (s *BlockSeq) noteSpliceIn(pos int) {
	if s.bi == nil {
		return
	}
	s.bi.blocks = s.blocks
	for _, ords := range s.bi.buckets {
		for i, o := range ords {
			if int(o) >= pos {
				ords[i] = o + 1
			}
		}
	}
	h := hashKeyValue(s.blocks[pos].Key)
	s.bi.buckets[h] = append(s.bi.buckets[h], int32(pos))
}

// noteSpliceOut updates the maintained index for the removal of the block
// with the given key, formerly at pos: its entry is dropped and every
// stored position > pos shifts down. Called after the splice.
func (s *BlockSeq) noteSpliceOut(pos int, key KeyValue) {
	if s.bi == nil {
		return
	}
	s.bi.blocks = s.blocks
	h := hashKeyValue(key)
	ords := s.bi.buckets[h]
	for i, o := range ords {
		if int(o) == pos {
			ords = append(ords[:i], ords[i+1:]...)
			break
		}
	}
	if len(ords) == 0 {
		delete(s.bi.buckets, h)
	} else {
		s.bi.buckets[h] = ords
	}
	for _, bords := range s.bi.buckets {
		for i, o := range bords {
			if int(o) > pos {
				bords[i] = o - 1
			}
		}
	}
}
