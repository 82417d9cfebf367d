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

	"phylomem/internal/experiments"
	"phylomem/internal/placement"
	"phylomem/internal/prof"
	"phylomem/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pewo:", err)
		os.Exit(1)
	}
}

// options is pewo's parsed command line: the base configuration of every
// measured engine, bound from the one engine-flag declaration, plus the
// experiment protocol's own flags.
type options struct {
	base placement.Config

	scale, reps, maxq           int
	seed                        int64
	threads, datasets           string
	csv, plot, list             bool
	statsJSON, cpuProf, memProf string
}

func newFlags() (*flag.FlagSet, *options) {
	o := &options{base: placement.DefaultConfig()}
	fs := flag.NewFlagSet("pewo", flag.ContinueOnError)
	placement.BindFlags(fs, &o.base, "dedup", "scoring", "edpl", "clv-spill", "clv-spill-path")
	fs.IntVar(&o.scale, "scale", 16, "divide the paper's dataset dimensions by this factor (1 = full size; needs tens of GiB)")
	fs.IntVar(&o.reps, "reps", 5, "repetitions per configuration (the paper uses 5)")
	fs.Int64Var(&o.seed, "seed", 2021, "dataset synthesis seed")
	fs.StringVar(&o.threads, "threads", "1,2,4,8,16,32", "thread sweep for fig6/fig7")
	fs.StringVar(&o.datasets, "datasets", "", "comma-separated dataset subset (default all)")
	fs.IntVar(&o.maxq, "max-queries", 0, "truncate query sets (0 = all)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of an aligned table")
	fs.StringVar(&o.statsJSON, "stats-json", "", "write every measured run as a structured JSON document to this file")
	fs.BoolVar(&o.plot, "plot", false, "also render figure experiments as terminal plots")
	fs.BoolVar(&o.list, "list", false, "list available experiments")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file on exit")
	return fs, o
}

func run(args []string) error {
	fs, f := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(f.cpuProf, f.memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "pewo:", perr)
		}
	}()
	if f.list {
		for _, name := range experiments.ExperimentNames() {
			fmt.Println(name)
		}
		return nil
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one experiment name (or 'all'); see --list")
	}

	o := experiments.DefaultOptions(f.scale)
	o.Reps = f.reps
	o.Seed = f.seed
	o.MaxQueries = f.maxq
	o.Base = f.base
	if f.datasets != "" {
		o.Datasets = strings.Split(f.datasets, ",")
	}
	var sweep []int
	for _, tok := range strings.Split(f.threads, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return fmt.Errorf("invalid thread count %q", tok)
		}
		sweep = append(sweep, v)
	}
	o.Threads = sweep

	if f.statsJSON != "" {
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
		if f.csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Println(tab.String())
		}
		if f.plot {
			if rendered, ok := experiments.PlotFor(name, tab); ok {
				fmt.Println(rendered)
			}
		}
	}
	if f.statsJSON != "" {
		if err := telemetry.WriteJSONFile(f.statsJSON, experiments.RecorderDoc()); err != nil {
			return err
		}
	}
	return nil
}
