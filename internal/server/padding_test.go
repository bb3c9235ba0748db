package server_test

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repaircount"
	"repaircount/internal/core"
	"repaircount/internal/relational"
	"repaircount/internal/server"
	"repaircount/internal/workload"
)

// The tests in this file pin that a probe's answer and its cost follow
// the blocks its query reads, not the database: padding an instance with
// key-unique filler blocks of an unrelated predicate (one fact each, so
// no count moves) must leave every served figure identical and the
// per-probe allocations flat.

// paddedShapes are the probe-cold workload's component shapes, each with
// queries reaching the planned factorized engines (the shape's own
// query), the Λ[1] closed form (a disjunction of ground atoms) and the
// safe plan (a conjunction of them).
func paddedShapes() []struct {
	name    string
	db      *relational.Database
	ks      *relational.KeySet
	queries []string
} {
	type shape = struct {
		name    string
		db      *relational.Database
		ks      *relational.KeySet
		queries []string
	}
	var out []shape
	add := func(name string, db *relational.Database, ks *relational.KeySet, q fmt.Stringer, atoms ...string) {
		out = append(out, shape{name, db, ks, []string{
			q.String(),
			strings.Join(atoms, " | "),
			strings.Join(atoms, " & "),
		}})
	}
	db, ks, q := workload.MultiComponent(6, 4, 3)
	add("multi", db, ks, q, "C0('k0', 'v0')", "C1('k1', 'v1')", "C2('k2', 'v2')")
	db, ks, q = workload.IEHeavy(3, 8, 3)
	add("ieheavy", db, ks, q, groundAtoms(db, 3)...)
	db, ks, q = workload.SkewedComponents(6, 8, 1.0)
	add("skewed", db, ks, q, groundAtoms(db, 3)...)
	return out
}

// groundAtoms renders the first fact of each of the first n predicates of
// db as a ground atom (constants quoted).
func groundAtoms(db *relational.Database, n int) []string {
	var atoms []string
	seen := map[string]bool{}
	for _, f := range db.Facts() {
		if len(atoms) == n {
			break
		}
		if !seen[f.Pred] {
			seen[f.Pred] = true
			args := make([]string, len(f.Args))
			for i, a := range f.Args {
				args[i] = "'" + string(a) + "'"
			}
			atoms = append(atoms, f.Pred+"("+strings.Join(args, ", ")+")")
		}
	}
	return atoms
}

// openPadded writes db padded with n filler blocks as a snapshot and
// opens it.
func openPadded(t *testing.T, db *relational.Database, ks *relational.KeySet, n int) *repaircount.Snapshot {
	t.Helper()
	if n > 0 {
		db, ks = workload.WithFiller(db, ks, "Filler", n, 1)
	}
	snap, err := repaircount.OpenSnapshot(writeSnapshot(t, t.TempDir(), db, ks))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snap.Close() })
	return snap
}

// TestPaddingInvariance serves each probe-cold shape bare and padded
// with 10k filler blocks: the plan, both fingerprints, the admission on
// the exact and the FPRAS rung, the Theorem 6.2 sample bound and the
// probability must be identical, and the exact count equal.
func TestPaddingInvariance(t *testing.T) {
	ladders := []server.Ladder{
		{ExactBudget: 1 << 20, MaxSamples: core.MaxApxSamples, Eps: 0.25, Delta: 0.05},
		{ExactBudget: 1, MaxSamples: core.MaxApxSamples, Eps: 0.25, Delta: 0.05},
	}
	for _, sh := range paddedShapes() {
		t.Run(sh.name, func(t *testing.T) {
			ann := workload.AnnotationMap(workload.ProbStream(rand.New(rand.NewPCG(5, 6)), sh.db))
			bare := openPadded(t, sh.db, sh.ks, 0)
			padded := openPadded(t, sh.db, sh.ks, 10_000)
			if got, want := len(padded.Blocks()), len(bare.Blocks())+10_000; got != want {
				t.Fatalf("padded snapshot has %d blocks, want %d", got, want)
			}
			for _, qs := range sh.queries {
				q, err := repaircount.ParseQuery(qs)
				if err != nil {
					t.Fatal(err)
				}
				var figs [2][]any
				for i, snap := range []*repaircount.Snapshot{bare, padded} {
					c, err := snap.Counter(q)
					if err != nil {
						t.Fatal(err)
					}
					plan, err := c.ExplainPlan(repaircount.EngineAuto)
					if err != nil {
						t.Fatal(err)
					}
					cfp, cok := c.CountFingerprint()
					pfp, pok := c.PlanFingerprint()
					bound, err := c.ApproxSampleBound(0.25, 0.05)
					if err != nil {
						t.Fatal(err)
					}
					var adms []any
					for _, l := range ladders {
						adm := l.Price(c)
						adms = append(adms, adm.Mode, adm.Engine, fmt.Sprint(adm.PlannedCost), fmt.Sprint(adm.SampleBound), adm.Reason)
					}
					prob, probErr := c.ProbabilityOf(c.FactWeights(ann))
					n, engine, err := c.Count()
					if err != nil {
						t.Fatal(err)
					}
					figs[i] = []any{plan, cfp, cok, pfp, pok, bound.String(), adms, prob, fmt.Sprint(probErr), n.String(), engine}
				}
				if !reflect.DeepEqual(figs[0], figs[1]) {
					t.Errorf("%s: padding moved a served figure:\n  bare:   %v\n  padded: %v", qs, figs[0], figs[1])
				}
			}
		})
	}
}

// servedAllocs measures the allocations (count and bytes) of one cold
// probe served through the daemon's handler over the MultiComponent shape
// padded with n filler blocks, as testing.AllocsPerRun does: one warm-up
// run, then the average over 20 runs on one P. The shared cache is off
// and every run probes a fresh query text of one fixed shape, so every
// run builds, plans and counts a new counter.
func servedAllocs(t *testing.T, n int, path func(i int) string, want string) (allocs, bytes float64) {
	t.Helper()
	db, ks, _ := workload.MultiComponent(6, 4, 3)
	if n > 0 {
		db, ks = workload.WithFiller(db, ks, "Filler", n, 1)
	}
	dir := t.TempDir()
	probs := filepath.Join(dir, "probs.tsv")
	f, err := os.Create(probs)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.FormatProbAnnotations(f, workload.ProbStream(rand.New(rand.NewPCG(5, 6)), db)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err := server.New(server.Config{
		SnapshotPath: writeSnapshot(t, dir, db, ks),
		ProbsPath:    probs,
		Workers:      1,
		CacheEntries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	h := s.Handler()
	i := 0
	probe := func() {
		i++
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path(i), nil))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("probe %s: status %d, want 200 with %s: %s", path(i), rec.Code, want, rec.Body)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	probe()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		probe()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestColdProbeAllocsPadded pins the cost side: a cold served count
// (planned factorized engine, and the safe plan) and a cold
// probability probe allocate no more — in count and in bytes — at 10k
// filler blocks than 1.2× what they allocate on the bare instance.
func TestColdProbeAllocsPadded(t *testing.T) {
	// Every run probes a fresh text: the variable names carry the run.
	factorized := func(i int) string {
		return url.QueryEscape(fmt.Sprintf("exists x%04d, y%04d . (C0(x%04d, 'v0') & C0(y%04d, 'v1'))", i, i, i, i))
	}
	for _, p := range []struct {
		name, want string
		path       func(i int) string
	}{
		{"count", `"engine":"factorized"`, func(i int) string { return "/v1/count?q=" + factorized(i) }},
		{"safeplan", `"engine":"safeplan"`, func(i int) string {
			return "/v1/count?q=" + url.QueryEscape(fmt.Sprintf("exists x%04d . (C0('k0', x%04d) & C1('k1', 'v1') & C2('k2', 'v2'))", i, i))
		}},
		{"prob", `"prob_lo"`, func(i int) string { return "/v1/prob?q=" + factorized(i) }},
	} {
		t.Run(p.name, func(t *testing.T) {
			bareN, bareB := servedAllocs(t, 0, p.path, p.want)
			padN, padB := servedAllocs(t, 10_000, p.path, p.want)
			t.Logf("per cold probe: %.0f allocs / %.0f B bare, %.0f allocs / %.0f B with 10k filler blocks", bareN, bareB, padN, padB)
			if padN > 1.2*bareN || padB > 1.2*bareB {
				t.Fatalf("a cold probe allocates %.0f times (%.0f B) at 10k filler blocks, over 1.2× the %.0f (%.0f B) of the bare instance",
					padN, padB, bareN, bareB)
			}
		})
	}
}
