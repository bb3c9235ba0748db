package workload

import (
	"math/big"
	"math/rand/v2"
	"strings"
	"testing"

	"repaircount/internal/relational"
	"repaircount/internal/repairs"
)

func TestGenerateRespectsSpec(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	db, ks, err := Generate(rng, []RelationSpec{
		{Pred: "R", KeyWidth: 1, Arity: 2, NumBlocks: 5, BlockSizes: Fixed{N: 3}, NumValues: 10},
		{Pred: "U", KeyWidth: 0, Arity: 1, NumBlocks: 4, BlockSizes: Fixed{N: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	blocks := relational.Blocks(db, ks)
	rBlocks := 0
	for _, b := range blocks {
		if b.Key.Pred == "R" {
			rBlocks++
			if b.Size() > 3 || b.Size() < 1 {
				t.Fatalf("R block size %d outside [1,3]", b.Size())
			}
		}
		if b.Key.Pred == "U" && b.Size() != 1 {
			t.Fatalf("unkeyed block size %d, want 1", b.Size())
		}
	}
	if rBlocks != 5 {
		t.Fatalf("R blocks = %d, want 5", rBlocks)
	}
	if !ks.HasKey("R") || ks.HasKey("U") {
		t.Fatalf("key set wrong: %v", ks)
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	if _, _, err := Generate(rng, []RelationSpec{{Pred: "R", KeyWidth: 3, Arity: 2, NumBlocks: 1, BlockSizes: Fixed{N: 1}}}); err == nil {
		t.Fatalf("key wider than arity accepted")
	}
}

func TestDistributions(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	if (Fixed{N: 7}).Sample(rng) != 7 {
		t.Fatalf("Fixed broken")
	}
	for i := 0; i < 100; i++ {
		v := (Uniform{Lo: 2, Hi: 5}).Sample(rng)
		if v < 2 || v > 5 {
			t.Fatalf("Uniform out of range: %d", v)
		}
		z := (Zipf{S: 1.5, V: 1, Max: 8}).Sample(rng)
		if z < 1 || z > 8 {
			t.Fatalf("Zipf out of range: %d", z)
		}
	}
}

func TestPairsDatabase(t *testing.T) {
	db, ks := PairsDatabase(10)
	if got := relational.NumRepairs(db, ks); got.Cmp(new(big.Int).Lsh(big.NewInt(1), 10)) != 0 {
		t.Fatalf("pairs database must have 2^10 repairs, got %s", got)
	}
}

func TestWithFiller(t *testing.T) {
	db, ks := PairsDatabase(3)
	fdb, fks := WithFiller(db, ks, "F", 5, 2)
	if db.Len() != 6 || ks.HasKey("F") {
		t.Fatal("WithFiller modified its inputs")
	}
	if got := fdb.Len(); got != 16 {
		t.Fatalf("filler database has %d facts, want 16", got)
	}
	if got := relational.NumRepairs(fdb, fks); got.Cmp(big.NewInt(1<<8)) != 0 {
		t.Fatalf("filler database must have 2^3·2^5 repairs, got %s", got)
	}
}

func TestEmployeeScenario(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	db, ks := Employee(rng, 50, 4, 0.4)
	if db.Len() < 50 {
		t.Fatalf("employee database too small: %d", db.Len())
	}
	q := SameDeptQuery(1, 2)
	in := repairs.MustInstance(db, ks, q)
	n, _, err := in.CountExact()
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(in.TotalRepairs()) > 0 {
		t.Fatalf("count exceeds total")
	}
}

func TestKeywidthFamily(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for k := 0; k <= 4; k++ {
		q, ks := KeywidthQuery(k)
		db := KeywidthDatabase(rng, k, 3, 2)
		in := repairs.MustInstance(db, ks, q)
		if got := in.Keywidth(); got != k {
			t.Fatalf("kw = %d, want %d", got, k)
		}
		n, _, err := in.CountExact()
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 && n.Sign() == 0 {
			t.Fatalf("k=%d: count must be positive (hit witness present)", k)
		}
		// Each Ri has a hit in exactly 1 of 3 facts of block k0:
		// P(Q) = (1/3)^k, total = 3^(3k) → count = 3^(3k)·3^-k = 3^(2k).
		want := new(big.Int).Exp(big.NewInt(3), big.NewInt(int64(2*k)), nil)
		if n.Cmp(want) != 0 {
			t.Fatalf("k=%d: count = %s, want %s", k, n, want)
		}
	}
}

func TestIEHeavyFamily(t *testing.T) {
	// Structure: each component contributes blocksPer size-2 blocks, all
	// facts are query-relevant, and the closed form matches enumeration
	// (pinned from the repairs side too, via the planner differential).
	db, ks, q := IEHeavy(2, 5, 2)
	if got := db.Len(); got != 2*5*2 {
		t.Fatalf("facts = %d, want 20", got)
	}
	in := repairs.MustInstance(db, ks, q)
	n, _, err := in.CountExact()
	if err != nil {
		t.Fatal(err)
	}
	if want := IEHeavyCount(2, 5, 2); n.Cmp(want) != 0 {
		t.Fatalf("count = %s, closed form = %s", n, want)
	}
	// nBoxes = 1: only the all-'v0' vector entails per component, so
	// #¬Q_c = 2^B − 1.
	db1, ks1, q1 := IEHeavy(1, 3, 1)
	n1, _, err := repairs.MustInstance(db1, ks1, q1).CountExact()
	if err != nil {
		t.Fatal(err)
	}
	if n1.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("IEHeavy(1,3,1) count = %s, want 1", n1)
	}
	if got := IEHeavyCount(1, 3, 1); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("closed form = %s, want 1", got)
	}
	// The segments must partition blocks 1..B−1.
	segs := ieHeavySegments(10, 3)
	seen := map[int]bool{}
	for _, seg := range segs {
		if len(seg) == 0 {
			t.Fatal("empty segment")
		}
		for _, b := range seg {
			if b < 1 || b > 9 || seen[b] {
				t.Fatalf("segment block %d out of range or repeated", b)
			}
			seen[b] = true
		}
	}
	if len(seen) != 9 {
		t.Fatalf("segments cover %d blocks, want 9", len(seen))
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	f := RandomCNF(rng, 5, 8)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 8 {
		t.Fatalf("clauses = %d", len(f.Clauses))
	}
	d := RandomDisjDNF(rng, 4, 3, 2, 5)
	if _, err := d.Count(); err != nil {
		t.Fatal(err)
	}
	g := RandomGraph(rng, 8, 0.4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	c := RandomColoring(rng, 5, 2, 3, 3, 2)
	if _, err := c.Count(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateStreamValidity drives a generated stream against its base
// database and asserts self-consistency: every delete targets a live fact,
// every insert a fresh one, and a positive conflict rate produces inserts
// that land in existing conflict blocks.
func TestUpdateStreamValidity(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 5))
	db, ks := Employee(rng, 20, 4, 0.5)
	baseBlocks := len(relational.Blocks(db, ks))
	ops := UpdateStream(rng, db, ks, 120, 0.7)
	if len(ops) != 120 {
		t.Fatalf("stream has %d ops, want 120", len(ops))
	}
	inserts, deletes, conflicts := 0, 0, 0
	for i, op := range ops {
		if op.Del {
			deletes++
			if !db.Delete(op.Fact) {
				t.Fatalf("op %d deletes absent fact %v", i, op.Fact)
			}
			continue
		}
		inserts++
		if db.Contains(op.Fact) {
			t.Fatalf("op %d inserts duplicate fact %v", i, op.Fact)
		}
		if blocks := relational.Blocks(db, ks); func() bool {
			for _, b := range blocks {
				if b.Key.Equal(ks.KeyValue(op.Fact)) {
					return true
				}
			}
			return false
		}() {
			conflicts++
		}
		if added, err := db.Insert(op.Fact); err != nil || !added {
			t.Fatalf("op %d insert %v: added=%v err=%v", i, op.Fact, added, err)
		}
	}
	if inserts == 0 || deletes == 0 {
		t.Fatalf("stream is not interleaved: %d inserts, %d deletes", inserts, deletes)
	}
	if conflicts == 0 {
		t.Fatalf("conflict rate 0.7 produced no conflicting inserts (base blocks: %d)", baseBlocks)
	}
}

// TestUpdateStreamRoundTrip pins the text op codec.
func TestUpdateStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 6))
	db, ks := Employee(rng, 8, 3, 0.5)
	ops := UpdateStream(rng, db, ks, 25, 0.5)
	var buf strings.Builder
	if err := FormatUpdates(&buf, ops); err != nil {
		t.Fatal(err)
	}
	back, err := ParseUpdates(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ops) {
		t.Fatalf("round trip: %d ops, want %d", len(back), len(ops))
	}
	for i := range ops {
		if back[i].Del != ops[i].Del || !back[i].Fact.Equal(ops[i].Fact) {
			t.Fatalf("op %d: %+v round-trips to %+v", i, ops[i], back[i])
		}
	}
	if _, err := ParseUpdates(strings.NewReader("? R(a)\n")); err == nil {
		t.Fatal("bad op sign accepted")
	}
}

// TestProbStreamRoundTrip pins the prob-annotation text codec: weights
// round-trip bit-exactly, comments are skipped, malformed lines error.
func TestProbStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 4))
	db, _ := Employee(rng, 6, 3, 0.5)
	anns := ProbStream(rng, db)
	if len(anns) != db.Len() {
		t.Fatalf("ProbStream annotated %d facts, db has %d", len(anns), db.Len())
	}
	for i, a := range anns {
		if a.Weight <= 0 || a.Weight > 1 || a.Weight != float64(int(a.Weight*16))/16 {
			t.Fatalf("annotation %d: weight %v is not dyadic in (0, 1]", i, a.Weight)
		}
	}
	var buf strings.Builder
	buf.WriteString("# prob stream\n\n")
	if err := FormatProbAnnotations(&buf, anns); err != nil {
		t.Fatal(err)
	}
	back, err := ParseProbAnnotations(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(anns) {
		t.Fatalf("round trip: %d annotations, want %d", len(back), len(anns))
	}
	for i := range anns {
		if back[i].Weight != anns[i].Weight || !back[i].Fact.Equal(anns[i].Fact) {
			t.Fatalf("annotation %d: %+v round-trips to %+v", i, anns[i], back[i])
		}
	}
	m := AnnotationMap(back)
	if len(m) != len(back) {
		t.Fatalf("AnnotationMap has %d entries, want %d", len(m), len(back))
	}
	for _, a := range back {
		if m[a.Fact.Canonical()] != a.Weight {
			t.Fatalf("AnnotationMap[%s] = %v, want %v", a.Fact, m[a.Fact.Canonical()], a.Weight)
		}
	}
	for _, bad := range []string{
		"0.5 R('a')\n",                // space, not tab
		"x\tR('a')\n",                 // unparseable weight
		"-1\tR('a')\n",                // negative weight
		"NaN\tR('a')\n",               // NaN weight
		"0.5\tR('a'\n",                // malformed fact
		"0.5\tR('a')\n0.25\tR('a')\n", // duplicate fact
	} {
		if _, err := ParseProbAnnotations(strings.NewReader(bad)); err == nil {
			t.Fatalf("malformed stream %q accepted", bad)
		}
	}
}
