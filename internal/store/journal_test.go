package store_test

import (
	"bytes"
	"math/big"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repaircount/internal/query"
	"repaircount/internal/relational"
	"repaircount/internal/repairs"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

// countsOf computes the reference triple (total, factorized, decision)
// over an instance.
func countsOf(t *testing.T, db *relational.Database, ks *relational.KeySet, q query.Formula) (*big.Int, *big.Int, bool) {
	t.Helper()
	in, err := repairs.NewInstance(db, ks, q)
	if err != nil {
		t.Fatal(err)
	}
	n, err := in.CountFactorized(0)
	if err != nil {
		t.Fatal(err)
	}
	return in.TotalRepairs(), n, in.HasRepairEntailing()
}

// snapshotCounts loads a snapshot file and computes the same triple over
// its materialized substrate.
func snapshotCounts(t *testing.T, path string, q query.Formula) (*big.Int, *big.Int, bool) {
	t.Helper()
	snap, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	live, err := snap.Live()
	if err != nil {
		t.Fatal(err)
	}
	in, err := repairs.NewLiveInstance(live, q)
	if err != nil {
		t.Fatal(err)
	}
	n, err := in.CountFactorized(0)
	if err != nil {
		t.Fatal(err)
	}
	return in.TotalRepairs(), n, in.HasRepairEntailing()
}

// TestJournalRoundTrip builds a snapshot, appends two journal blocks of
// randomized updates, and asserts the journaled load, the text-path
// rebuild of the mutated instance, and the compacted reseal all agree on
// counts bit-identically.
func TestJournalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 21))
	db, ks := workload.Employee(rng, 14, 3, 0.6)
	q := workload.SameDeptQuery(1, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "base.cqs")
	if err := store.WriteFile(path, db, ks); err != nil {
		t.Fatal(err)
	}

	stream := workload.UpdateStream(rng, db, ks, 30, 0.5)
	toOps := func(us []workload.Update) []store.JournalOp {
		ops := make([]store.JournalOp, len(us))
		for i, u := range us {
			ops[i] = store.JournalOp{Del: u.Del, Fact: u.Fact}
		}
		return ops
	}
	if err := store.AppendJournal(path, toOps(stream[:12])); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendJournal(path, toOps(stream[12:])); err != nil {
		t.Fatal(err)
	}

	// Text-path ground truth: apply the stream to the parsed database.
	for _, u := range stream {
		if u.Del {
			if !db.Delete(u.Fact) {
				t.Fatalf("stream delete of absent fact %v", u.Fact)
			}
		} else if added, err := db.Insert(u.Fact); err != nil || !added {
			t.Fatalf("stream insert of %v: added=%v err=%v", u.Fact, added, err)
		}
	}
	wantTotal, wantCount, wantDec := countsOf(t, db, ks, q)

	gotTotal, gotCount, gotDec := snapshotCounts(t, path, q)
	if gotTotal.Cmp(wantTotal) != 0 || gotCount.Cmp(wantCount) != 0 || gotDec != wantDec {
		t.Fatalf("journaled load: (%s, %s, %v), text path: (%s, %s, %v)",
			gotTotal, gotCount, gotDec, wantTotal, wantCount, wantDec)
	}

	compacted := filepath.Join(dir, "compact.cqs")
	if err := store.CompactFile(path, compacted); err != nil {
		t.Fatal(err)
	}
	cTotal, cCount, cDec := snapshotCounts(t, compacted, q)
	if cTotal.Cmp(wantTotal) != 0 || cCount.Cmp(wantCount) != 0 || cDec != wantDec {
		t.Fatalf("compacted load: (%s, %s, %v), text path: (%s, %s, %v)",
			cTotal, cCount, cDec, wantTotal, wantCount, wantDec)
	}
	// The compacted file must be a clean sealed snapshot: no journal, and
	// decodable with full verification.
	data, err := os.ReadFile(compacted)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumJournalOps() != 0 {
		t.Fatalf("compacted snapshot carries %d journal ops", snap.NumJournalOps())
	}
}

// TestJournalValidation pins the failure modes: corrupted, truncated or
// misframed journal regions must fail the whole load with an error.
func TestJournalValidation(t *testing.T) {
	db, ks := workload.PairsDatabase(3)
	var base bytes.Buffer
	if err := store.Write(&base, db, ks, store.DefaultOptions); err != nil {
		t.Fatal(err)
	}
	ops := []store.JournalOp{
		{Fact: relational.NewFact("R", "k9", "a")},
		{Del: true, Fact: relational.NewFact("R", "k0", "a")},
	}
	block, err := store.EncodeJournal(ops)
	if err != nil {
		t.Fatal(err)
	}
	good := append(append([]byte(nil), base.Bytes()...), block...)
	if _, err := store.Decode(good); err != nil {
		t.Fatalf("valid journaled snapshot rejected: %v", err)
	}

	mutate := func(name string, f func([]byte) []byte) {
		data := f(append([]byte(nil), good...))
		if _, err := store.Decode(data); err == nil {
			t.Errorf("%s: corrupted journal accepted", name)
		}
		if _, err := store.DecodeUnverified(data); err == nil {
			t.Errorf("%s: corrupted journal accepted unverified", name)
		}
	}
	baseLen := base.Len()
	mutate("truncated block", func(b []byte) []byte { return b[:len(b)-3] })
	mutate("bad magic", func(b []byte) []byte { b[baseLen] ^= 0xff; return b })
	mutate("payload bit flip", func(b []byte) []byte { b[baseLen+20] ^= 1; return b })
	mutate("crc bit flip", func(b []byte) []byte { b[len(b)-1] ^= 1; return b })
	mutate("zero ops", func(b []byte) []byte {
		for i := 4; i < 8; i++ {
			b[baseLen+i] = 0
		}
		return b
	})
	mutate("frame shorter than header", func(b []byte) []byte { return append(b, 'C', 'Q', 'S', 'J') })

	// A journal op deleting an absent fact is a no-op, not an error.
	noop, err := store.EncodeJournal([]store.JournalOp{{Del: true, Fact: relational.NewFact("R", "zz", "zz")}})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.Decode(append(append([]byte(nil), base.Bytes()...), noop...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Database(); err != nil {
		t.Fatalf("no-op journal failed to materialize: %v", err)
	}
	// An op with an arity clash must fail materialization, not panic.
	clash, err := store.EncodeJournal([]store.JournalOp{{Fact: relational.NewFact("R", "only-one-arg")}})
	if err != nil {
		t.Fatal(err)
	}
	snap, err = store.Decode(append(append([]byte(nil), base.Bytes()...), clash...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Database(); err == nil {
		t.Fatal("arity-clashing journal op materialized without error")
	}
}

// TestAppendJournalGuards pins AppendJournal's file checks, and the
// contracts of its two halves.
func TestAppendJournalGuards(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "not-a-snapshot")
	if err := os.WriteFile(bad, []byte("key R 1\nR(a, b)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ops := []store.JournalOp{{Fact: relational.NewFact("R", "x", "y")}}
	if err := store.AppendJournal(bad, ops); err == nil {
		t.Fatal("append to a text file succeeded")
	}
	if err := store.AppendJournal(filepath.Join(dir, "missing.cqs"), ops); err == nil {
		t.Fatal("append to a missing file succeeded")
	}
	if _, err := store.EncodeJournal(nil); err == nil {
		t.Fatal("empty journal block encoded")
	}

	// An op the snapshot cannot absorb is rejected by the dry-run and the
	// file stays loadable — a bad append must never brick the snapshot.
	db, ks := workload.PairsDatabase(2)
	path := filepath.Join(dir, "good.cqs")
	if err := store.WriteFile(path, db, ks); err != nil {
		t.Fatal(err)
	}
	clash := []store.JournalOp{{Fact: relational.NewFact("R", "only-one-arg")}}
	if err := store.AppendJournal(path, clash); err == nil {
		t.Fatal("arity-clashing op appended")
	}
	snap, err := store.Open(path)
	if err != nil {
		t.Fatalf("snapshot unreadable after rejected append: %v", err)
	}
	if _, err := snap.Database(); err != nil {
		t.Fatalf("snapshot unusable after rejected append: %v", err)
	}
	snap.Close()

	// The two halves of AppendJournal: ValidateJournal proves without
	// writing, AppendJournalBlock writes without proving (its caller has
	// applied the ops to a live instance of the file already).
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.ValidateJournal(path, clash); err == nil {
		t.Fatal("arity-clashing op validated")
	}
	if err := store.ValidateJournal(path, ops); err != nil {
		t.Fatalf("valid op rejected: %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Fatalf("ValidateJournal modified the file (err %v)", err)
	}
	if err := store.AppendJournalBlock(filepath.Join(dir, "missing.cqs"), ops); err == nil {
		t.Fatal("block appended to a missing file")
	}
	if err := store.AppendJournalBlock(path, ops); err != nil {
		t.Fatal(err)
	}
	snap, err = store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if n := snap.NumJournalOps(); n != 1 {
		t.Fatalf("journal holds %d ops after one appended block, want 1", n)
	}
}
