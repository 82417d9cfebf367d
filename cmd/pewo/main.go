// Command pewo is the experiment driver (the PEWO-framework equivalent): it
// regenerates every table and figure of the paper's evaluation section on
// synthesized datasets, at a configurable scale.
//
// Usage:
//
//	pewo --scale 16 fig3            # one experiment
//	pewo --scale 16 --reps 5 all    # the full evaluation section
//	pewo --list                     # available experiments
//	pewo --csv fig4 > fig4.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"phylomem/internal/core"
	"phylomem/internal/experiments"
	"phylomem/internal/prof"
	"phylomem/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pewo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pewo", flag.ContinueOnError)
	var (
		scale     = fs.Int("scale", 16, "divide the paper's dataset dimensions by this factor (1 = full size; needs tens of GiB)")
		reps      = fs.Int("reps", 5, "repetitions per configuration (the paper uses 5)")
		seed      = fs.Int64("seed", 2021, "dataset synthesis seed")
		threads   = fs.String("threads", "1,2,4,8,16,32", "thread sweep for fig6/fig7")
		datasets  = fs.String("datasets", "", "comma-separated dataset subset (default all)")
		maxq      = fs.Int("max-queries", 0, "truncate query sets (0 = all)")
		noPipe    = fs.Bool("no-pipeline", false, "disable overlapped chunk reading in the measured engines")
		dedup     = fs.Bool("dedup", true, "in-flight query deduplication in the measured engines")
		tileQ     = fs.Int("tile-queries", 0, "phase-1 query-tile size in the measured engines (0 = automatic)")
		tileB     = fs.Int("tile-branches", 0, "phase-1 branch-tile size in the measured engines (0 = automatic)")
		fastMath  = fs.Bool("fast-math", false, "reordered fast-math accumulation in the measured engines")
		scoring   = fs.String("scoring", "", "scoring mode in the measured engines: ml or bayes (default ml)")
		edpl      = fs.Bool("edpl", false, "compute per-query EDPL in the measured engines")
		spillPath = fs.String("clv-spill-path", "", "spill store file for the measured engines (empty = temporary)")
		csv       = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		statsJSON = fs.String("stats-json", "", "write every measured run as a structured JSON document to this file")
		plot      = fs.Bool("plot", false, "also render figure experiments as terminal plots")
		list      = fs.Bool("list", false, "list available experiments")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		clvSpill  core.SpillFlag
	)
	fs.Var(&clvSpill, "clv-spill", "spill evicted CLVs to a disk tier in the measured AMC engines; --clv-spill=discard|spill|hybrid picks the policy, bare means hybrid")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "pewo:", perr)
		}
	}()
	if *list {
		for _, name := range experiments.ExperimentNames() {
			fmt.Println(name)
		}
		return nil
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one experiment name (or 'all'); see --list")
	}

	o := experiments.DefaultOptions(*scale)
	o.Reps = *reps
	o.Seed = *seed
	o.MaxQueries = *maxq
	o.NoPipeline = *noPipe
	o.NoDedup = !*dedup
	o.TileQueries = *tileQ
	o.TileBranches = *tileB
	o.FastMath = *fastMath
	if *scoring != "" {
		if !experiments.ValidScoring(*scoring) {
			return fmt.Errorf("unknown scoring mode %q (want ml or bayes)", *scoring)
		}
		o.Scoring = *scoring
	}
	o.EDPL = *edpl
	o.SpillPolicy = clvSpill.String()
	o.SpillPath = *spillPath
	if *datasets != "" {
		o.Datasets = strings.Split(*datasets, ",")
	}
	var sweep []int
	for _, tok := range strings.Split(*threads, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return fmt.Errorf("invalid thread count %q", tok)
		}
		sweep = append(sweep, v)
	}
	o.Threads = sweep

	if *statsJSON != "" {
		experiments.EnableRecorder()
		defer experiments.DisableRecorder()
	}

	names := []string{fs.Arg(0)}
	if fs.Arg(0) == "all" {
		names = experiments.ExperimentNames()
	}
	for _, name := range names {
		tab, err := experiments.ByName(name, o)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Println(tab.String())
		}
		if *plot {
			if rendered, ok := experiments.PlotFor(name, tab); ok {
				fmt.Println(rendered)
			}
		}
	}
	if *statsJSON != "" {
		if err := telemetry.WriteJSONFile(*statsJSON, experiments.RecorderDoc()); err != nil {
			return err
		}
	}
	return nil
}
