package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload briefly against a freshly built repairctl,
// with the traced ladder, and requires the premises and the oracle to pass
// and every metric BENCHMARK.json names to be reported with its unit.
//
//	cd perfbench && go test -run Smoke .
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds repairctl and runs the daemon")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	repairctl := filepath.Join(dir, "repairctl")
	if out, err := exec.Command("go", "build", "-o", repairctl, "../cmd/repairctl").CombinedOutput(); err != nil {
		t.Fatalf("building repairctl: %v\n%s", err, out)
	}
	// update-mix is not in BENCHMARK.json (see README.md) but stays
	// runnable, so it is smoked too.
	names := []string{updateMix}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			seconds := 3.0
			if name == updateMix {
				seconds = minUpdateSeconds
			}
			res, layers, err := run(&out, repairctl, filepath.Join(dir, name), name, 7, seconds, true, nil)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("run not correct: %+v\n%s", res, out.String())
			}
			for _, set := range []struct {
				got  map[string]metric
				want []struct{ Name, Unit string }
			}{{res.Metrics, spec.EndToEnd}, {layers, spec.PerLayer}} {
				if len(set.got) != len(set.want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(set.got), len(set.want))
				}
				for _, m := range set.want {
					if got, ok := set.got[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			}
		})
	}
}
