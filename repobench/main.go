// Command repobench is raidrel's end-to-end benchmark: one process per run
// executes one named workload for a fixed wall-clock budget, checks the
// program's outputs, and prints its metrics. See README.md for the
// workloads, the metric → layer → workload map, and how to run it.
//
//	bash repobench/run.sh --workload fixed-base --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 the run executes the workload with
// spans recorded plus the per-layer ladder, and the metrics are the
// per-layer set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// buildDir is the directory, relative to the checkout root, that holds the
// benchmark binary, its temporary files and the written traces.
const buildDir = ".bench_build"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx carries one run's settings and scratch state.
type runCtx struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	tmp      string  // fresh per run, removed when the run ends
	tr       *tracer // nil unless traced

	// metrics holds the values the run reports; notes are diagnostics
	// printed before the result line.
	metrics map[string]metric
	notes   []string
	// checks accumulates operation outcomes and statistical checks.
	checks checks
}

func (rc *runCtx) set(name string, v float64, unit string) {
	rc.metrics[name] = metric{Value: v, Unit: unit}
}

func (rc *runCtx) notef(format string, args ...any) {
	rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
}

// workload is one named input set.
type workload struct {
	name string
	// run executes the untraced measurement and sets the end-to-end
	// metrics.
	run func(rc *runCtx) error
	// traced executes the workload with spans recorded and sets the
	// workload-specific per-layer metrics; the shared ladder runs after it.
	traced func(rc *runCtx) error
}

var workloads = []workload{fixedBase, adaptiveCkpt, daemonMix, fleetContended}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fixed-base, adaptive-ckpt, daemon-mix, fleet-contended")
	seed := fs.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Int("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	makeRef := fs.Int("make-reference", 0, "regenerate reference.json from this many groups per configuration and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *makeRef > 0 {
		if err := makeReference(*makeRef, *seed, stdout); err != nil {
			fmt.Fprintln(stderr, "repobench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "repobench: need --workload (one of fixed-base, adaptive-ckpt, daemon-mix, fleet-contended), --seconds >= 1 and --trace 0|1\n")
		return 2
	}

	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	rc := &runCtx{
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		tmp:      tmp,
		metrics:  map[string]metric{},
	}
	if rc.traced {
		rc.tr = newTracer()
		err = w.traced(rc)
		if err == nil {
			err = runLadder(rc)
		}
		if err == nil {
			err = finishTrace(rc)
		}
	} else {
		err = w.run(rc)
	}
	if err == nil {
		err = checkMetricSet(rc)
	}
	if err != nil {
		fmt.Fprintf(stderr, "repobench: %s: %v\n", w.name, err)
		return 1
	}
	rc.checks.finish()

	rep := report{
		Correct:   rc.checks.correct(),
		Attempted: rc.checks.attempted,
		Failed:    rc.checks.failed,
		Metrics:   rc.metrics,
	}
	if rep.Attempted < 1 {
		fmt.Fprintf(stderr, "repobench: %s attempted no operations\n", w.name)
		return 1
	}
	printHuman(stdout, rc, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "repobench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// checkMetricSet verifies that the run reports exactly the metrics its
// mode promises: every end-to-end metric untraced, every per-layer metric
// traced, each with its declared unit.
func checkMetricSet(rc *runCtx) error {
	want := endToEnd
	if rc.traced {
		want = perLayer
	}
	if len(rc.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(rc.metrics), len(want))
	}
	for _, d := range want {
		m, ok := rc.metrics[d.name]
		if !ok || m.Unit != d.unit {
			return fmt.Errorf("metric %s missing or not in %s", d.name, d.unit)
		}
	}
	return nil
}

// printHuman writes the readable summary that precedes the result line:
// every metric by name and unit, failed_frac, and the run's diagnostics.
func printHuman(w io.Writer, rc *runCtx, rep report) {
	mode := "end-to-end"
	if rc.traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# repobench %s seed=%d seconds=%.0f: %s metrics\n", rc.workload, rc.seed, rc.seconds.Seconds(), mode)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "#   %-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "#   %-40s %16.6g %s  (%d of %d operations)\n", "failed_frac", float64(rep.Failed)/float64(rep.Attempted), "1", rep.Failed, rep.Attempted)
	for _, c := range rc.checks.stat {
		fmt.Fprintf(w, "#   check %s\n", c)
	}
	for _, n := range rc.notes {
		fmt.Fprintf(w, "#   note: %s\n", n)
	}
}
