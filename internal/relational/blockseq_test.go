package relational

import (
	"math/rand/v2"
	"strconv"
	"testing"
)

// TestBlockSeqDifferential drives a random insert/delete stream through a
// database plus maintained BlockSeq and asserts, after every operation,
// that the maintained sequence equals the from-scratch decomposition —
// order, keys and within-block fact order — and that the maintained
// BlockIndex resolves every key to the right position, and that the
// maintained aggregates (Total, MaxSize, PredRange) equal a walk over the
// from-scratch blocks.
func TestBlockSeqDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 3))
	ks := Keys(map[string]int{"R": 1, "S": 2})
	db := MustDatabase()
	seed := []Fact{
		{Pred: "R", Args: []Const{"a", "x"}},
		{Pred: "R", Args: []Const{"a", "y"}},
		{Pred: "R", Args: []Const{"b", "x"}},
		{Pred: "S", Args: []Const{"a", "b", "1"}},
		{Pred: "T", Args: []Const{"t1"}}, // unkeyed
	}
	for _, f := range seed {
		if err := db.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	bs := NewBlockSeq(Blocks(db, ks))
	bs.Index() // build early so every splice exercises index maintenance
	bs.Total() // likewise the block-size histogram

	randomFact := func() Fact {
		switch rng.IntN(3) {
		case 0:
			return Fact{Pred: "R", Args: []Const{
				Const("a" + strconv.Itoa(rng.IntN(3))),
				Const("x" + strconv.Itoa(rng.IntN(3)))}}
		case 1:
			return Fact{Pred: "S", Args: []Const{
				Const("a" + strconv.Itoa(rng.IntN(2))),
				Const("b" + strconv.Itoa(rng.IntN(2))),
				Const("c" + strconv.Itoa(rng.IntN(3)))}}
		default:
			return Fact{Pred: "T", Args: []Const{Const("t" + strconv.Itoa(rng.IntN(4)))}}
		}
	}

	var live []Fact
	live = append(live, seed...)
	for step := 0; step < 200; step++ {
		if rng.IntN(2) == 0 && len(live) > 0 {
			f := live[rng.IntN(len(live))]
			if !db.Delete(f) {
				t.Fatalf("step %d: live fact %v missing from db", step, f)
			}
			if !bs.Remove(ks, f) {
				t.Fatalf("step %d: live fact %v missing from block seq", step, f)
			}
			for i := range live {
				if live[i].Equal(f) {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		} else {
			f := randomFact()
			added, err := db.Insert(f)
			if err != nil {
				t.Fatal(err)
			}
			if bs.Insert(ks, f) != added {
				t.Fatalf("step %d: block seq and db disagree on whether %v is new", step, f)
			}
			if added {
				live = append(live, f)
			}
		}

		want := Blocks(db, ks)
		got := bs.Seq()
		if len(got) != len(want) {
			t.Fatalf("step %d: %d maintained blocks vs %d canonical", step, len(got), len(want))
		}
		for i := range got {
			if !got[i].Key.Equal(want[i].Key) {
				t.Fatalf("step %d: block %d key %v vs canonical %v", step, i, got[i].Key, want[i].Key)
			}
			if len(got[i].Facts) != len(want[i].Facts) {
				t.Fatalf("step %d: block %d size %d vs canonical %d", step, i, len(got[i].Facts), len(want[i].Facts))
			}
			for j := range got[i].Facts {
				if !got[i].Facts[j].Equal(want[i].Facts[j]) {
					t.Fatalf("step %d: block %d fact %d %v vs canonical %v", step, i, j, got[i].Facts[j], want[i].Facts[j])
				}
			}
			pos, ok := bs.Index().FindKey(got[i].Key)
			if !ok || pos != i {
				t.Fatalf("step %d: index resolves %v to (%d, %v), want (%d, true)", step, got[i].Key, pos, ok, i)
			}
		}
		if _, ok := bs.Index().FindKey(KeyValue{Pred: "R", Vals: []Const{"nope"}}); ok {
			t.Fatalf("step %d: index resolves an absent key", step)
		}
		if got, want := bs.Total(), NumRepairsOfBlocks(want); got.Cmp(want) != 0 {
			t.Fatalf("step %d: maintained total %s vs canonical %s", step, got, want)
		}
		if got, want := bs.MaxSize(), MaxBlockSize(want); got != want {
			t.Fatalf("step %d: maintained max block size %d vs canonical %d", step, got, want)
		}
		for _, pred := range []string{"A", "R", "S", "T", "U"} {
			lo, hi := bs.PredRange(pred)
			wantLo := 0
			for wantLo < len(want) && want[wantLo].Key.Pred < pred {
				wantLo++
			}
			wantHi := wantLo
			for wantHi < len(want) && want[wantHi].Key.Pred == pred {
				wantHi++
			}
			if lo != wantLo || hi != wantHi {
				t.Fatalf("step %d: PredRange(%s) = [%d, %d), want [%d, %d)", step, pred, lo, hi, wantLo, wantHi)
			}
		}
	}
}

// TestDatabaseTombstones pins Database delete semantics: length, canonical
// fact listing, domain, membership and block decomposition all reflect
// only the live facts, and a deleted fact can be re-inserted.
func TestDatabaseTombstones(t *testing.T) {
	ks := Keys(map[string]int{"R": 1})
	db := MustDatabase()
	a := Fact{Pred: "R", Args: []Const{"k", "a"}}
	b := Fact{Pred: "R", Args: []Const{"k", "b"}}
	for _, f := range []Fact{a, b} {
		if err := db.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if !db.Delete(b) {
		t.Fatal("delete of present fact failed")
	}
	if db.Delete(b) {
		t.Fatal("double delete succeeded")
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
	if db.Contains(b) || !db.Contains(a) {
		t.Fatal("membership ignores the tombstone")
	}
	if facts := db.Facts(); len(facts) != 1 || !facts[0].Equal(a) {
		t.Fatalf("Facts = %v", facts)
	}
	if dom := db.Dom(); len(dom) != 2 { // k, a — b's constant is gone
		t.Fatalf("Dom = %v, want [a k]", dom)
	}
	if blocks := Blocks(db, ks); len(blocks) != 1 || blocks[0].Size() != 1 {
		t.Fatalf("Blocks = %v", blocks)
	}
	if !db.Satisfies(ks) {
		t.Fatal("single live fact per key should satisfy Σ")
	}
	if added, err := db.Insert(b); err != nil || !added {
		t.Fatalf("re-insert after delete: added=%v err=%v", added, err)
	}
	if db.Len() != 2 || !db.Contains(b) {
		t.Fatal("re-inserted fact not visible")
	}
}
