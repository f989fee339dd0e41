package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runTiny runs one workload at the tiny size and returns the exit code
// and the parsed last line.
func runTiny(t *testing.T, args ...string) (int, verdict, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append([]string{"-size", "tiny", "-seconds", "0.3", "-dir", filepath.Join(t.TempDir(), "run")}, args...)
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var v verdict
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errOut.String())
	}
	return code, v, out.String()
}

func checkNames(t *testing.T, got map[string]metric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// Every workload passes its correctness gate on two seeds, untraced and
// traced, and reports exactly the catalog's metrics.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range []string{"query-mix", "ingest", "verified-fleet"} {
		for _, seed := range []string{"1", "2"} {
			t.Run(w+"/seed"+seed, func(t *testing.T) {
				code, v, out := runTiny(t, "-workload", w, "-seed", seed, "-trace", "0")
				if code != 0 || !v.Correct || v.Failed != 0 || v.Attempted < 1 {
					t.Fatalf("untraced: exit %d, verdict %+v\n%s", code, v, out)
				}
				checkNames(t, v.Metrics, endToEnd)
				for name, m := range v.Metrics {
					if m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				code, v, out = runTiny(t, "-workload", w, "-seed", seed, "-trace", "1")
				if code != 0 || !v.Correct {
					t.Fatalf("traced: exit %d, verdict %+v\n%s", code, v, out)
				}
				checkNames(t, v.Metrics, perLayer)
			})
		}
	}
}

// A deliberately wrong expectation must fail the gate: the result says
// incorrect and the command exits non-zero.
func TestWrongExpectationFailsGate(t *testing.T) {
	for _, w := range []string{"query-mix", "ingest", "verified-fleet"} {
		t.Run(w, func(t *testing.T) {
			code, v, out := runTiny(t, "-workload", w, "-seed", "1", "-trace", "0", "-wrong-expect")
			if code == 0 || v.Correct {
				t.Fatalf("gate passed a wrong expectation: exit %d, verdict %+v\n%s", code, v, out)
			}
		})
	}
}

// BENCHMARK.json names the same metrics, with the same units, as the
// catalog the benchmark reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	cmp := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, catalog %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, catalog %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	cmp("end_to_end", b.EndToEnd, endToEnd)
	cmp("per_layer", b.PerLayer, perLayer)
}
