// Command epang is the EPA-NG-equivalent placement tool: it places aligned
// query sequences on a reference tree by maximum likelihood and writes a
// jplace result, with the paper's memory-saving machinery behind --maxmem.
//
// Usage:
//
//	epang --tree ref.nwk --ref-msa ref.fasta --query q.fasta --out result.jplace
//	epang ... --maxmem 4G --chunk-size 500 --threads 8
//	epang ... --model GTR+G4{0.5}      # substitution model spec
//	epang ... --split combined.fasta   # combined ref+query alignment
//	epang ... --fit                    # ML-fit branch lengths & model first
//	epang ... --no-heur                # disable the pre-placement lookup table
//	epang ... --scoring bayes --edpl   # posterior probabilities + placement uncertainty
//	epang ... --strict                 # abort on malformed queries instead of skipping
//
// Exit codes: 0 success, 1 input or usage error, 2 internal invariant
// violation (a bug, not bad input), 130 interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/mlfit"
	"phylomem/internal/placement"
	"phylomem/internal/prof"
	"phylomem/internal/refdb"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
)

func main() {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "epang:", err)
		os.Exit(placement.ExitCode(err))
	}
}

// options is epang's parsed command line: the engine configuration and the
// reference source, each bound from its one declaration, plus the tool's own
// input, output and reporting flags.
type options struct {
	cfg placement.Config
	src refdb.Source

	query, split, out, saveDB          string
	fit, nm, stats, verbose            bool
	statsJSON, trace, cpuProf, memProf string
}

func newFlags() (*flag.FlagSet, *options) {
	o := &options{cfg: placement.DefaultConfig()}
	fs := flag.NewFlagSet("epang", flag.ContinueOnError)
	o.src.BindFlags(fs)
	placement.BindFlags(fs, &o.cfg, "maxmem", "chunk-size", "block-size", "threads", "no-heur",
		"strict", "scoring", "edpl",
		"bayes-pendant-nodes", "bayes-proximal-nodes",
		"clv-spill", "clv-spill-path", "sync-precompute")
	fs.StringVar(&o.saveDB, "save-db", "", "after loading the reference, save it as a refdb file for reuse")
	fs.StringVar(&o.query, "query", "", "aligned query sequences (FASTA)")
	fs.StringVar(&o.split, "split", "", "combined ref+query alignment to split by the tree's taxa (replaces --ref-msa/--query)")
	fs.StringVar(&o.out, "out", "epa_result.jplace", "output jplace path")
	fs.BoolVar(&o.fit, "fit", false, "ML-optimize branch lengths (and Gamma alpha for NT: exchangeabilities too) before placement")
	fs.BoolVar(&o.nm, "nm", false, "write jplace nm multiplicity entries: queries sharing identical placements collapse into one record carrying every name with its multiplicity")
	fs.BoolVar(&o.stats, "stats", false, "print pipeline and worker-pool statistics")
	fs.StringVar(&o.statsJSON, "stats-json", "", "write a structured JSON run report (plan, memory, telemetry) to this file")
	fs.StringVar(&o.trace, "trace", "", "write newline-JSON per-chunk trace events to this file")
	fs.BoolVar(&o.verbose, "verbose", false, "print plan and statistics")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file on exit")
	return fs, o
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs, o := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: this command takes flags only", fs.Arg(0))
	}
	if err := refdb.CheckFlags(fs, "db", "fit", "save-db", "split"); err != nil {
		return err
	}
	stopProf, err := prof.Start(o.cpuProf, o.memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "epang:", perr)
		}
	}()
	if o.src.DB == "" && o.src.Tree == "" {
		return fmt.Errorf("--tree (or --db) is required")
	}
	if o.src.DB == "" && o.split == "" && (o.src.RefMSA == "" || o.query == "") {
		return fmt.Errorf("either --db, --split, or both --ref-msa and --query are required")
	}
	if o.src.DB != "" && o.query == "" {
		return fmt.Errorf("--db mode requires --query")
	}

	var (
		ref          *refdb.Reference
		splitQueries []seq.Sequence
	)
	if o.split == "" {
		ref, err = o.src.Open()
	} else {
		ref, splitQueries, err = openSplit(o.src, o.split)
	}
	if err != nil {
		return err
	}
	tr, msa := ref.Tree, ref.MSA

	if o.fit {
		// ML fitting of branch lengths / model parameters before placement.
		// The fit leaves the partition's dimensions as they are, so the plan
		// comes first: an infeasible --maxmem fails before any fitting.
		part, err := ref.Partition()
		if err != nil {
			return err
		}
		if _, err := placement.PlanFor(part, tr, o.cfg); err != nil {
			return err
		}
		opts := mlfit.Options{BranchLengths: true, Alpha: ref.Rates.NumRates() > 1, Exchangeabilities: ref.Alphabet == seq.DNA}
		res, err := mlfit.Fit(tr, msa, nil, 1.0, ref.Rates.NumRates(), opts)
		if err != nil {
			return fmt.Errorf("model fitting: %w", err)
		}
		ref.Model, ref.Rates = res.Model, res.Rates
		if o.verbose {
			fmt.Fprintf(stdout, "fit: logL %.3f -> %.3f (alpha %.3f, %d evaluations)\n",
				res.StartLL, res.LogLik, res.Alpha, res.Evaluations)
		}
	}
	if o.saveDB != "" {
		f, err := os.Create(o.saveDB)
		if err != nil {
			return err
		}
		if err := refdb.Save(f, tr, msa, ref.Spec, ref.Freqs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved reference database -> %s\n", o.saveDB)
	}

	part, err := ref.Partition()
	if err != nil {
		return err
	}

	cfg := o.cfg
	if o.statsJSON != "" {
		cfg.Telemetry = telemetry.NewSink()
	}
	var trace *telemetry.Trace
	if o.trace != "" {
		tf, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		trace = telemetry.NewTrace(tf)
		cfg.Trace = trace
		trace.Emit(telemetry.Event{Ev: "run_start", Detail: "epang " + strings.Join(args, " ")})
	}

	eng, err := placement.NewContext(ctx, part, tr, cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	if o.verbose {
		plan := eng.Plan()
		fmt.Fprintf(stdout, "model: %s; mode: AMC=%v lookup=%v slots=%d block=%d planned=%s\n",
			ref.Spec, plan.AMC, plan.LookupEnabled, plan.Slots, plan.BlockSize, memacct.FormatBytes(plan.TotalBytes))
	}

	// Queries: streamed from disk chunk by chunk, or taken from the split;
	// either way PlaceStream validates, skips and counts them.
	var src placement.QuerySource
	if o.split != "" {
		src = placement.NewSequenceSource(splitQueries, ref.Alphabet, msa.Width())
	} else {
		qfile, err := os.Open(o.query)
		if err != nil {
			return err
		}
		defer qfile.Close()
		src = placement.NewFastaSource(seq.NewFastaScanner(qfile), ref.Alphabet, msa.Width())
	}

	var placed []jplace.Placements
	n, runErr := eng.PlaceStream(ctx, src, func(p jplace.Placements) error {
		placed = append(placed, p)
		return nil
	})

	// Even an interrupted or failed run writes what it has: the partial
	// result is still a well-formed jplace document.
	if runErr == nil || len(placed) > 0 {
		out, err := os.Create(o.out)
		if err != nil {
			return err
		}
		outQueries := placed
		if o.nm {
			outQueries = jplace.GroupByPlacement(placed)
		}
		doc := &jplace.Document{
			Tree:       jplace.TreeString(tr),
			Queries:    outQueries,
			Invocation: "epang " + strings.Join(args, " "),
		}
		if cfg.Scoring == placement.ScoringBayes {
			doc.Fields = jplace.FieldsBayes
		}
		if err := jplace.Write(out, doc); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
	}

	st := eng.Stats()

	// The structured report and trace are written on every exit path — a
	// failed or interrupted run's partial counters are exactly what an
	// investigation needs. Report() must run before Close releases the
	// persistent accounting categories.
	if o.statsJSON != "" {
		if werr := telemetry.WriteJSONFile(o.statsJSON, eng.Report()); werr != nil && runErr == nil {
			runErr = werr
		}
	}
	if trace != nil {
		trace.Emit(telemetry.Event{Ev: "run_end", Queries: n})
		if terr := trace.Close(); terr != nil && runErr == nil {
			runErr = terr
		}
	}

	// End-of-run audit: Close re-checks the slot-map invariants and asserts
	// the accountant drained to zero. An audit failure on a clean run is an
	// internal error (exit 2); it never masks the run's own error.
	if cerr := eng.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		if len(placed) > 0 {
			fmt.Fprintf(os.Stderr, "epang: wrote %d partial placements to %s\n", len(placed), o.out)
		}
		return runErr
	}

	fmt.Fprintf(stdout, "placed %d queries on %d branches -> %s\n", n, tr.NumBranches(), o.out)
	if st.QueriesSkipped > 0 {
		fmt.Fprintf(stdout, "skipped %d malformed queries (use --strict to abort instead)\n", st.QueriesSkipped)
	}
	if o.verbose {
		fmt.Fprintf(stdout, "phase1 %v, phase2 %v, precompute %v, lookup build %v\n",
			st.Phase1, st.Phase2, st.Precompute, st.LookupBuild)
		fmt.Fprintf(stdout, "CLV recomputes %d, hits %d, evictions %d\n",
			st.CLVStats.Recomputes, st.CLVStats.Hits, st.CLVStats.Evictions)
		fmt.Fprintf(stdout, "memory: %s\n", eng.Accountant())
	}
	if o.stats || o.verbose {
		if st.QueriesDistinct > 0 {
			fmt.Fprintf(stdout, "dedup: %d distinct of %d queries (%d folded)\n",
				st.QueriesDistinct, st.QueriesDistinct+st.QueriesDeduped, st.QueriesDeduped)
		}
		fmt.Fprintf(stdout, "chunks: %d processed; read %v\n",
			st.ChunksProcessed, st.ChunkRead.Round(time.Microsecond))
		fmt.Fprintf(stdout, "pool: %d participants, busy %v over %v wall (utilization %.0f%%)\n",
			st.PoolParticipants, st.PoolBusy.Round(time.Microsecond), st.PlaceWall.Round(time.Microsecond),
			100*st.PoolUtilization())
		coverage := 0.0
		if st.Phase2PatternsFull > 0 {
			coverage = float64(st.Phase2PatternsUpdated) / float64(st.Phase2PatternsFull)
		}
		fmt.Fprintf(stdout, "phase 2: %d likelihood evaluations, %d insertion-CLV updates over %d of %d patterns (%.2f)\n",
			st.Phase2Evals, st.Phase2CLVUpdates, st.Phase2PatternsUpdated, st.Phase2PatternsFull, coverage)
		fmt.Fprintf(stdout, "lookup build: %v at %d workers\n",
			st.LookupBuild.Round(time.Microsecond), st.LookupWorkers)
	}
	return nil
}

// openSplit resolves the reference of a --split run: the combined alignment's
// sequences named by the tree's leaves are the reference, the rest the
// queries. Only the reference rows are validated here; the queries are left
// to the query source, which skips a malformed one as it would from --query.
func openSplit(src refdb.Source, splitFile string) (*refdb.Reference, []seq.Sequence, error) {
	tr, err := src.ReadTree()
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(splitFile)
	if err != nil {
		return nil, nil, err
	}
	all, err := seq.ReadFasta(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, tr.NumLeaves())
	for _, leaf := range tr.Leaves() {
		names = append(names, leaf.Name)
	}
	refSeqs, queries, err := seq.SplitMSA(all, names)
	if err != nil {
		return nil, nil, err
	}
	ref, err := src.Assemble(tr, refSeqs)
	return ref, queries, err
}
