// Command benchharness is the repo benchmark: it generates one workload's
// inputs from a seed, drives the real epang / placed binaries, checks their
// outputs, and prints one JSON result line (see README.md and the root
// BENCHMARK.json). bench/run.sh builds it together with the programs under
// test and is the command BENCHMARK.json names.
//
//	--trace 0  timed pass: end-to-end metrics from the binaries, telemetry off
//	--trace 1  traced pass: per-layer metrics from an in-process mirror of the
//	           same call sequence, engine counters, /metrics scrapes and
//	           direct probes of layer functions
//	--spread   runs both of the above over spreadSeeds seeds, spreadSets times,
//	           and checks every spread and median gap against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number. Value keeps every digit measured.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its outcome.
type run struct {
	spec    *spec
	seed    int64
	seconds float64
	binDir  string
	workDir string // private to this invocation, removed on exit

	attempted int
	failed    int
	problems  []string // failed output checks; any entry makes the run incorrect
	metrics   map[string]metric
	tr        *tracer // non-nil on the traced pass
}

// fail records a failed output check.
func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// set reports a metric under its declared unit.
func (r *run) set(name string, v float64) {
	d, ok := metricDefs[name]
	if !ok {
		panic("undeclared metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: d.unit}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Int64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "measurement time of the timed pass")
		trace    = flag.Int("trace", 0, "0 = timed pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		traceOut = flag.String("trace-out", "", "traced pass: write the recorded spans as JSON to this file")
		spread   = flag.Bool("spread", false, fmt.Sprintf("run every workload (or just --workload) over %d seeds, %d times, and check spreads and gaps against the bounds", spreadSeeds, spreadSets))
		manifest = flag.Bool("print-manifest", false, "print BENCHMARK.json as these tables define it, and exit")
	)
	flag.Parse()
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	// run.sh builds this binary next to the programs under test, into
	// .bench_build/bin, and keeps scratch files in .bench_build/tmp.
	exe, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	binDir := filepath.Dir(exe)
	work := filepath.Join(filepath.Dir(binDir), "tmp")
	if _, err := os.Stat(filepath.Join(binDir, "epang")); err != nil {
		fatal("no epang beside %s: run through bench/run.sh, which builds it", exe)
	}
	if *spread {
		os.Exit(runSpread(exe, *workload, *seed, *seconds))
	}
	sp := specByName(*workload)
	if sp == nil {
		fatal("unknown --workload %q (want one of %v)", *workload, workloadNames())
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal("%v", err)
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fatal("%v", err)
	}
	r := newRun(sp, *seed, *seconds, binDir, dir)
	start := time.Now()
	res, err := r.measure(*trace == 1, *traceOut)
	// Removed on every exit path: inputs, outputs and any spill file a killed
	// child left behind all live under this directory.
	os.RemoveAll(dir)
	if err != nil {
		fatal("%v", err)
	}
	printTable(sp.name, res, time.Since(start))
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

func newRun(sp *spec, seed int64, seconds float64, binDir, workDir string) *run {
	return &run{spec: sp, seed: seed, seconds: seconds, binDir: binDir, workDir: workDir, metrics: map[string]metric{}}
}

// measure runs one pass and returns its result. A harness error (as opposed
// to a failed operation or check, which the result reports) comes back as an
// error, and the process exits non-zero without a result line.
func (r *run) measure(traced bool, traceOut string) (*result, error) {
	ins, err := generateAll(r.spec, r.seed, r.numQueries(traced), r.workDir)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	want := endToEndNames
	switch {
	case traced:
		want = perLayerNames
		r.tr = newTracer(r.spec.name)
		// Traced on the first dataset only, so that counts repeat exactly
		// for a seed.
		err = r.tracedPass(ins[0])
		if err == nil && traceOut != "" {
			err = r.tr.writeFile(traceOut)
		}
	case r.spec.serve:
		err = r.timedServe(ins)
	default:
		err = r.timedBatch(ins)
	}
	if err != nil {
		return nil, err
	}
	res := &result{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = m
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "bench: CHECK FAILED:", p)
	}
	return res, nil
}

// printTable writes the human-readable view to standard error; standard
// output carries only the result line.
func printTable(workload string, res *result, took time.Duration) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "workload %s: correct=%v attempted=%d failed=%d fail_share=%.4f (%.1fs)\n",
		workload, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), took.Seconds())
	for _, n := range names {
		d := metricDefs[n]
		fmt.Fprintf(os.Stderr, "  %-44s %16.6g %-8s %-6s %s\n", n, res.Metrics[n].Value, d.unit, d.better, d.source)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
