// Command perfbench is SEBDB's repeatable benchmark. It runs one of
// three closed-loop, single-client workloads against the engine's
// public API, checks every answer against what the seeded generator
// knows, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a second, traced pass over the same op
// sequence). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload query-mix --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	size     sizes
	// wrongExpect perturbs one expected answer so the correctness gate
	// must fail; the smoke test uses it to prove the gate bites.
	wrongExpect bool
}

// outcome is what one workload run reports back to run.
type outcome struct {
	attempted, failed int
	// errs are correctness-gate violations; any makes the run incorrect.
	errs []string
	// metrics are the result's metrics for this mode: BENCHMARK.json's
	// end_to_end with tracing off, its per_layer with tracing on.
	metrics map[string]metric
	// extra are workload-specific figures printed as their own lines:
	// they exist on one workload only, and every workload reports each
	// of BENCHMARK.json's end_to_end metrics.
	extra map[string]metric
	// settings describe the fixed configuration, printed for the record.
	settings []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(opts options) (*outcome, error){
	"query-mix":      runQueryMix,
	"ingest":         runIngest,
	"verified-fleet": runFleet,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var size string
	fs.StringVar(&o.workload, "workload", "", "query-mix | ingest | verified-fleet")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same data and op sequence")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 = also run the traced pass and print per-layer metrics")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "run"), "scratch directory for chain data (emptied before and after)")
	fs.StringVar(&size, "size", "full", "data size: full | tiny (tiny is for the smoke test)")
	fs.BoolVar(&o.wrongExpect, "wrong-expect", false, "perturb one expected answer (the gate must then fail)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	switch size {
	case "full":
		o.size = fullSize
	case "tiny":
		o.size = tinySize
	default:
		fmt.Fprintf(stderr, "perfbench: unknown -size %q\n", size)
		return 2
	}
	wl, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (query-mix, ingest, verified-fleet), -seconds > 0, -trace 0|1\n")
		return 2
	}
	// One client process on at most two cores: the workloads are
	// single-client closed loops, and a fixed core count keeps numbers
	// comparable across machines with more cores.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if err := os.RemoveAll(o.dir); err != nil {
		fmt.Fprintf(stderr, "perfbench: clear %s: %v\n", o.dir, err)
		return 1
	}
	defer os.RemoveAll(o.dir) //sebdb:ignore-err best-effort scratch cleanup; the next run clears it first

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d size=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), size)
	out, err := wl(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, s := range out.settings {
		fmt.Fprintf(stdout, "setting %s\n", s)
	}
	for _, name := range sortedKeys(out.extra) {
		m := out.extra[name]
		fmt.Fprintf(stdout, "metric %s %s %.4f %s\n", o.workload, name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(out.metrics) {
		m := out.metrics[name]
		fmt.Fprintf(stdout, "metric %s %s %.4f %s\n", o.workload, name, m.Value, m.Unit)
	}
	for _, e := range out.errs {
		fmt.Fprintf(stdout, "gate FAILED: %s\n", e)
	}
	v := verdict{
		Correct:   len(out.errs) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if v.Attempted < 1 {
		v.Correct = false
		fmt.Fprintln(stdout, "gate FAILED: no op attempted")
	}
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !v.Correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// setupRepeats is how many times a run builds its set-up; setup_s is
// the median, which damps one slow build.
const setupRepeats = 3

// timedSetups builds the workload's set-up setupRepeats times, closing
// all but the last, and returns the last with the median set-up time.
// Garbage from discarded set-ups is released before the next build so
// peak RSS reflects one set-up, not three.
func timedSetups[T any](o options, build func(dir string) (T, error), closeFn func(T)) (T, float64, error) {
	var durs []float64
	var inst T
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(o.dir, fmt.Sprintf("setup%d", i))
		start := time.Now()
		v, err := build(dir)
		durs = append(durs, time.Since(start).Seconds())
		if err != nil {
			return inst, 0, err
		}
		if i < setupRepeats-1 {
			closeFn(v)
			if err := os.RemoveAll(dir); err != nil {
				return inst, 0, err
			}
			runtime.GC()
			debug.FreeOSMemory()
			continue
		}
		inst = v
	}
	return inst, median(durs), nil
}
