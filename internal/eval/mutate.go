package eval

import (
	"sort"
	"sync"

	"repaircount/internal/relational"
)

// This file implements delta maintenance of the evaluation index and the
// LiveInstance coordinator that applies one fact insert or delete across
// the whole substrate — database, canonical block sequence, index — as a
// single versioned mutation.
//
// The maintenance contract is ordinal stability: an insert appends a fresh
// ordinal, a delete tombstones an existing one, and the interned columns
// (facts, predicate IDs, argument arena) are strictly append-only. That is
// what lets snapshot-loaded indexes — whose columns alias a read-only
// mapped file — be mutated safely (appending past the borrowed capacity
// reallocates; nothing ever writes through the mapping), and what keeps
// every ordinal-keyed structure built before the delta meaningful after
// it. The redundant access paths are maintained eagerly per delta:
//
//   - membership buckets: the fact hash of the touched ordinal is added or
//     removed, so OrdinalOf/Contains stay exact;
//   - posting lists: a new ordinal is appended to the list of each of its
//     (position, constant) slots — new ordinals exceed all existing ones,
//     so ascending order is preserved — and a deleted ordinal is copied
//     out of each list (copy, not splice: the list may alias a snapshot
//     section);
//   - per-predicate candidates: the first mutation touching a predicate
//     materializes its live ordinal list (predCands), which overrides the
//     contiguous canonical range from then on;
//   - active domain: a per-constant refcount of live argument slots keeps
//     dom exactly equal to the domain of a freshly built index;
//   - key partitions: every memoized partition is extended with the new
//     ordinal's group (deletes need no work — tombstoned ordinals are
//     unreachable through any candidate list).
//
// Structures compiled against the index (UCQMatcher, compactors, the
// factorization) are not patched: they are cheap to recompile and the
// counting layer flushes them on version change.

// InsertFact adds a fact to the index, maintaining every access path
// incrementally. It returns the fact's ordinal and whether the index
// changed (false: the fact was already present, live).
func (idx *Index) InsertFact(f relational.Fact) (int32, bool) {
	idx.ensureBuckets()
	idx.ensurePostings()
	idx.ensureDomUses()
	if ord, ok := idx.OrdinalOf(f); ok {
		return ord, false
	}
	ord := int32(len(idx.facts))
	start := len(idx.arena)
	pid, arena := idx.in.InternFact(f, idx.arena)
	idx.arena = arena
	idx.offs = append(idx.offs, int32(len(arena)))
	idx.facts = append(idx.facts, f)
	idx.fpred = append(idx.fpred, pid)
	args := idx.arena[start:]
	idx.buckets[hashFact(pid, args)] = append(idx.buckets[hashFact(pid, args)], ord)
	for pos, cid := range args {
		k := postingKey{pred: pid, pos: uint16(pos), cid: cid}
		idx.postings[k] = append(idx.postings[k], ord)
	}
	idx.addPredCand(pid, ord)
	idx.noteDomUse(args, +1)
	idx.mu.Lock()
	for ks, p := range idx.keyParts {
		p.extend(idx, ks, ord)
	}
	idx.mu.Unlock()
	idx.byPredStale = true
	idx.version++
	return ord, true
}

// RemoveFact tombstones a fact, maintaining every access path
// incrementally. It returns the fact's (now dead) ordinal and whether the
// fact was present.
func (idx *Index) RemoveFact(f relational.Fact) (int32, bool) {
	idx.ensureBuckets()
	idx.ensurePostings()
	idx.ensureDomUses()
	ord, ok := idx.OrdinalOf(f)
	if !ok {
		return 0, false
	}
	pid := idx.fpred[ord]
	args := idx.argsOf(ord)
	h := hashFact(pid, args)
	idx.buckets[h] = removeOrdScan(idx.buckets[h], ord)
	w := int(ord) >> 6
	for len(idx.dead) <= w {
		idx.dead = append(idx.dead, 0)
	}
	idx.dead[w] |= 1 << (uint32(ord) & 63)
	idx.nDead++
	for pos, cid := range args {
		k := postingKey{pred: pid, pos: uint16(pos), cid: cid}
		if list := removeOrdCopy(idx.postings[k], ord); len(list) > 0 {
			idx.postings[k] = list
		} else {
			delete(idx.postings, k)
		}
	}
	idx.removePredCand(pid, ord)
	idx.noteDomUse(args, -1)
	idx.byPredStale = true
	idx.version++
	return ord, true
}

// ensureDomUses builds the per-constant live-use refcounts on the first
// mutation.
func (idx *Index) ensureDomUses() {
	if idx.domUses != nil {
		return
	}
	uses := make([]int32, idx.in.NumConsts())
	for ord := range idx.facts {
		if !idx.aliveOrd(int32(ord)) {
			continue
		}
		for _, cid := range idx.argsOf(int32(ord)) {
			uses[cid]++
		}
	}
	idx.domUses = uses
}

// noteDomUse adjusts the refcounts of one fact's argument slots, inserting
// a constant into the sorted domain when its count rises from zero and
// removing it when the count returns to zero.
func (idx *Index) noteDomUse(args []uint32, delta int32) {
	for _, cid := range args {
		for int(cid) >= len(idx.domUses) {
			idx.domUses = append(idx.domUses, 0)
		}
		idx.domUses[cid] += delta
		c := idx.in.ConstAt(cid)
		switch {
		case delta > 0 && idx.domUses[cid] == 1:
			// First live use: insert into the sorted domain.
			i := sort.Search(len(idx.dom), func(i int) bool { return idx.dom[i] >= c })
			if i < len(idx.dom) && idx.dom[i] == c {
				continue
			}
			idx.dom = append(idx.dom, "")
			copy(idx.dom[i+1:], idx.dom[i:])
			idx.dom[i] = c
		case delta < 0 && idx.domUses[cid] == 0:
			// Last live use gone: remove from the sorted domain.
			i := sort.Search(len(idx.dom), func(i int) bool { return idx.dom[i] >= c })
			if i < len(idx.dom) && idx.dom[i] == c {
				copy(idx.dom[i:], idx.dom[i+1:])
				idx.dom = idx.dom[:len(idx.dom)-1]
			}
		}
	}
}

// addPredCand records a freshly appended live ordinal of pred,
// materializing the predicate's live candidate list on first touch.
func (idx *Index) addPredCand(pid uint32, ord int32) {
	if idx.predCands == nil {
		idx.predCands = map[uint32][]int32{}
	}
	list, ok := idx.predCands[pid]
	if !ok {
		list = idx.liveRange(pid)
	}
	idx.predCands[pid] = append(list, ord) // new ordinals exceed all existing
}

// removePredCand drops a (just tombstoned) ordinal of pred from the
// predicate's live candidate list, materializing it on first touch.
func (idx *Index) removePredCand(pid uint32, ord int32) {
	if idx.predCands == nil {
		idx.predCands = map[uint32][]int32{}
	}
	list, ok := idx.predCands[pid]
	if !ok {
		// liveRange already excludes ord: it was tombstoned above.
		idx.predCands[pid] = idx.liveRange(pid)
		return
	}
	idx.predCands[pid] = removeOrdCopy(list, ord)
}

// liveRange materializes the live ordinals of the predicate's contiguous
// canonical range.
func (idx *Index) liveRange(pid uint32) []int32 {
	r := idx.predRange[pid]
	list := make([]int32, 0, r[1]-r[0]+1)
	for o := r[0]; o < r[1]; o++ {
		if idx.aliveOrd(o) {
			list = append(list, o)
		}
	}
	return list
}

// removeOrdCopy returns a copy of the ascending list without ord (the list
// itself is never written: it may alias a read-only snapshot section).
func removeOrdCopy(list []int32, ord int32) []int32 {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= ord })
	if i == len(list) || list[i] != ord {
		return list
	}
	out := make([]int32, 0, len(list)-1)
	out = append(out, list[:i]...)
	return append(out, list[i+1:]...)
}

// removeOrdScan is removeOrdCopy for lists in no particular order (the
// membership buckets, whose ordinals were permuted by the canonical sort).
func removeOrdScan(list []int32, ord int32) []int32 {
	for i, o := range list {
		if o == ord {
			out := make([]int32, 0, len(list)-1)
			out = append(out, list[:i]...)
			return append(out, list[i+1:]...)
		}
	}
	return list
}

// LiveInstance is the versioned mutable instance: one database plus key
// set with its maintained canonical block sequence and evaluation index,
// mutated in lockstep. It is the single shared substrate behind every
// counter built on one instance — counters detect staleness of their
// compiled/memoized structures by comparing Version — and the replay
// target of the snapshot store's delta journal. Mutation is not safe
// concurrently with other mutations or with counting.
type LiveInstance struct {
	DB     *relational.Database
	Keys   *relational.KeySet
	Blocks *relational.BlockSeq
	Idx    *Index

	// memos holds the Memo values built at version memoVer.
	memoMu  sync.Mutex
	memoVer uint64
	memos   map[any]any
}

// NewLiveInstance bundles an existing coherent substrate: blocks must be
// the canonical sequence ≺(D,Σ) of (db, ks) and idx must index exactly the
// live facts of db.
func NewLiveInstance(db *relational.Database, ks *relational.KeySet, blocks *relational.BlockSeq, idx *Index) *LiveInstance {
	return &LiveInstance{DB: db, Keys: ks, Blocks: blocks, Idx: idx}
}

// Version returns the monotonically increasing instance version (the
// number of successful mutations since construction).
func (li *LiveInstance) Version() uint64 { return li.Idx.Version() }

// Memo returns the value memoized under key at the current version,
// building it with build on first use. It serves read-only structures
// derived from the whole substrate — the ones every counter would derive
// identically, such as the rendered block domains — once per version to
// all counters sharing the instance instead of once per counter. Keys are
// values of caller-defined unexported types, so packages cannot collide;
// values must be treated as read-only. build runs under the memo's lock,
// so it must not call Memo. Safe for concurrent readers; the next
// mutation invalidates every memo.
func (li *LiveInstance) Memo(key any, build func() any) any {
	li.memoMu.Lock()
	defer li.memoMu.Unlock()
	if v := li.Version(); li.memos == nil || li.memoVer != v {
		li.memos, li.memoVer = map[any]any{}, v
	}
	x, ok := li.memos[key]
	if !ok {
		x = build()
		li.memos[key] = x
	}
	return x
}

// Apply performs one mutation — insert (del=false) or delete (del=true) of
// fact f — across the database, the block sequence and the index. It
// reports whether the instance changed (duplicate inserts and misses are
// no-ops) and fails only on an arity clash.
func (li *LiveInstance) Apply(del bool, f relational.Fact) (bool, error) {
	if del {
		if !li.DB.Delete(f) {
			return false, nil
		}
		li.Blocks.Remove(li.Keys, f)
		li.Idx.RemoveFact(f)
		return true, nil
	}
	added, err := li.DB.Insert(f)
	if err != nil || !added {
		return false, err
	}
	li.Blocks.Insert(li.Keys, f)
	li.Idx.InsertFact(f)
	return true, nil
}
