package server_test

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repaircount"
	"repaircount/internal/relational"
	"repaircount/internal/server"
	"repaircount/internal/workload"
)

// TestColdProbesUnderUpdates runs cold count, probability and FPRAS
// probes on several goroutines while the tailer applies, journals and
// compacts a stream of ops. Counters built for fresh queries share the
// per-version memos of the live substrate (rendered domains, block
// aggregates, the probability weights), so this is the test to run under
// -race. The ops insert and delete facts under fresh keys of components
// C3–C5 and of a filler relation: blocks of one fact, which move the
// version but no count, so every answer about C0–C2 — counts,
// probabilities, and the FPRAS's samples and hits — is the same at every
// version, and each probe is checked against it.
func TestColdProbesUnderUpdates(t *testing.T) {
	db, ks, _ := workload.MultiComponent(6, 4, 3)
	db, ks = workload.WithFiller(db, ks, "Filler", 200, 1)
	dir := t.TempDir()
	path := writeSnapshot(t, dir, db, ks)
	probs := filepath.Join(dir, "probs.tsv")
	f, err := os.Create(probs)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.FormatProbAnnotations(f, workload.ProbStream(rand.New(rand.NewPCG(2, 3)), db)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ann := workload.AnnotationMap(workload.ProbStream(rand.New(rand.NewPCG(2, 3)), db))

	comp := func(c int, v string) string {
		return fmt.Sprintf("(exists x%s, y%s . (C%d(x%s, 'v0') & C%d(y%s, 'v1')))", v, v, c, v, c, v)
	}
	wide := func(v string) string { return comp(0, v) + " | " + comp(1, v) + " | " + comp(2, v) }
	counter := func(qs string) *repaircount.Counter {
		q, err := repaircount.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		c, err := repaircount.NewCounter(db, ks, q)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// The exact budget admits one component but not three: the wide
	// query lands on the FPRAS rung.
	plan, err := counter(comp(0, "")).ExplainPlan(repaircount.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	const eps, delta = 0.5, 0.25
	cfg := server.Config{
		SnapshotPath: path, OpsPath: filepath.Join(dir, "ops.txt"), ProbsPath: probs,
		Workers: 4, ExactBudget: plan.Budget, Eps: eps, Delta: delta,
		Poll: time.Millisecond, CompactBytes: 300,
	}
	wantCount, _, err := counter(comp(0, "")).Count()
	if err != nil {
		t.Fatal(err)
	}
	pc := counter(comp(0, ""))
	wantProb, err := pc.ProbabilityOf(pc.FactWeights(ann))
	if err != nil {
		t.Fatal(err)
	}
	wantEst, err := counter(wide("")).ApproximateParallel(eps, delta, 1, 1)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := start(t, cfg)
	var ops []workload.Update
	for i := 0; i < 40; i++ {
		fact := relational.NewFact(fmt.Sprintf("C%d", 3+i%3), relational.Const(fmt.Sprintf("k%d", 10+i)), "v0")
		if i%2 == 1 {
			fact = relational.NewFact("Filler", relational.Const(fmt.Sprintf("g%d", i)), "w")
		}
		ops = append(ops, workload.Update{Fact: fact})
		if i%4 == 3 {
			ops = append(ops, workload.Update{Del: true, Fact: ops[len(ops)-4].Fact})
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		of, err := os.Create(cfg.OpsPath)
		if err != nil {
			t.Error(err)
			return
		}
		defer of.Close()
		for _, op := range ops {
			var sb strings.Builder
			workload.FormatUpdates(&sb, []workload.Update{op})
			if _, err := of.WriteString(sb.String()); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// At least 12 probes each, and on until the last op is written.
			for i := 0; ; i++ {
				if i >= 12 {
					select {
					case <-done:
						return
					default:
					}
				}
				v := fmt.Sprintf("%d_%d", g, i)
				var p string
				var check func(body map[string]any) bool
				switch i % 3 {
				case 0:
					p = "/v1/count?q=" + url.QueryEscape(comp(g%3, v))
					check = func(b map[string]any) bool { return b["mode"] == "exact" && b["count"] == wantCount.String() }
				case 1:
					p = "/v1/prob?q=" + url.QueryEscape(comp(0, v))
					check = func(b map[string]any) bool { return b["prob"] == wantProb.String() }
				default:
					p = "/v1/count?q=" + url.QueryEscape(wide(v))
					check = func(b map[string]any) bool {
						return b["mode"] == "approx" && b["samples"] == float64(wantEst.Samples) && b["hits"] == float64(wantEst.Hits)
					}
				}
				status, body, raw := get(t, ts, p)
				if status != http.StatusOK || !check(body) {
					t.Errorf("%s: status %d: %s", p, status, raw)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	st := waitStats(t, ts, "every op applied", func(st map[string]any) bool {
		return st["applied_ops"] == float64(len(ops))
	})
	if st["epoch"].(float64) < 1 || st["degraded"] != "" {
		t.Fatalf("the run never compacted, or degraded: %v", st)
	}
}
