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
//	epang ... --memsave-strategy lru   # CLV replacement tie-break policy
//	epang ... --scoring bayes --edpl   # posterior probabilities + placement uncertainty
//	epang ... --strict                 # abort on malformed queries instead of skipping
//
// Exit codes: 0 success, 1 input or usage error, 2 internal invariant
// violation (a bug, not bad input), 130 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"phylomem/internal/core"
	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/mlfit"
	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/prof"
	"phylomem/internal/refdb"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
	"phylomem/internal/tree"
)

func main() {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "epang:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode separates failure classes for scripting: 1 is an input or usage
// error, 2 an internal invariant violation (slot-map corruption, accounting
// leak or overcommit — a bug, not bad input), 130 an interrupt (the shell
// convention for SIGINT).
func exitCode(err error) int {
	switch {
	case errors.Is(err, core.ErrInvariant),
		errors.Is(err, memacct.ErrNotDrained),
		errors.Is(err, memacct.ErrOvercommit):
		return 2
	case errors.Is(err, context.Canceled):
		return 130
	}
	return 1
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("epang", flag.ContinueOnError)
	var (
		treeFile  = fs.String("tree", "", "reference tree (Newick)")
		dbFile    = fs.String("db", "", "load the reference (tree+alignment+model) from a refdb file instead of --tree/--ref-msa/--model")
		saveDB    = fs.String("save-db", "", "after loading the reference, save it as a refdb file for reuse")
		refFile   = fs.String("ref-msa", "", "reference alignment (FASTA)")
		queryFile = fs.String("query", "", "aligned query sequences (FASTA)")
		splitFile = fs.String("split", "", "combined ref+query alignment to split by the tree's taxa (replaces --ref-msa/--query)")
		outFile   = fs.String("out", "epa_result.jplace", "output jplace path")
		modelSpec = fs.String("model", "", "substitution model spec, e.g. GTR+G4{0.5} (default: GTR+G4 for NT, SYNAA+G4 for AA)")
		empFreqs  = fs.Bool("emp-freqs", true, "use empirical stationary frequencies from the reference alignment")
		fit       = fs.Bool("fit", false, "ML-optimize branch lengths (and Gamma alpha for NT: exchangeabilities too) before placement")
		maxmem    = fs.String("maxmem", "", "memory ceiling, e.g. 4G or 512M (empty = unlimited)")
		chunkSize = fs.Int("chunk-size", 5000, "queries per chunk")
		blockSize = fs.Int("block-size", memacct.DefaultBlockSize, "branches per precompute block")
		threads   = fs.Int("threads", 1, "placement worker threads")
		noHeur    = fs.Bool("no-heur", false, "disable the pre-placement lookup table heuristic")
		tileQ     = fs.Int("tile-queries", 0, "phase-1 query-tile size (0 = auto from the cache-size estimate)")
		tileB     = fs.Int("tile-branches", 0, "phase-1 branch-tile size (0 = auto: the precompute block size)")
		fastMath  = fs.Bool("fast-math", false, "reordered block accumulation in the placement kernels: deterministic, but not bit-identical to the default per-site FP order")
		dedup     = fs.Bool("dedup", true, "place one representative per distinct query sequence and fan the result out to duplicates (output is identical either way)")
		nmOut     = fs.Bool("nm", false, "write jplace nm multiplicity entries: queries sharing identical placements collapse into one record carrying every name with its multiplicity")
		strict    = fs.Bool("strict", false, "abort on malformed query sequences instead of skipping them")
		scoring   = fs.String("scoring", "ml", "scoring mode: ml (optimized likelihoods) or bayes (posterior probabilities via branch-length integration)")
		edpl      = fs.Bool("edpl", false, "compute each query's expected distance between placement locations and write it to the jplace output")
		bayesPN   = fs.Int("bayes-pendant-nodes", 0, "pendant-length quadrature order for --scoring=bayes (0 = default 8)")
		bayesXN   = fs.Int("bayes-proximal-nodes", 0, "proximal-position quadrature order for --scoring=bayes (0 = default 4)")
		strategy  = fs.String("memsave-strategy", "costage", "CLV replacement tie-break / undeclared-access policy: cost, costage, lru, fifo, random (the declared branch sweep decides first)")
		spillPath = fs.String("clv-spill-path", "", "spill store file (empty = temporary file, removed on exit)")
		dataType  = fs.String("type", "NT", "data type: NT or AA")
		syncPre   = fs.Bool("sync-precompute", false, "synchronous across-site branch-block precompute (experimental)")
		noPipe    = fs.Bool("no-pipeline", false, "disable overlapped chunk reading (decode chunk N+1 while placing chunk N)")
		showStats = fs.Bool("stats", false, "print pipeline and worker-pool statistics")
		statsJSON = fs.String("stats-json", "", "write a structured JSON run report (plan, memory, telemetry) to this file")
		traceFile = fs.String("trace", "", "write newline-JSON per-chunk trace events to this file")
		verbose   = fs.Bool("verbose", false, "print plan and statistics")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		clvSpill  core.SpillFlag
	)
	fs.Var(&clvSpill, "clv-spill", "spill evicted CLVs to a disk tier and reload them instead of recomputing; --clv-spill=discard|spill|hybrid picks the per-victim decision, bare means hybrid (AMC only; output is byte-identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: this command takes flags only", fs.Arg(0))
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "epang:", perr)
		}
	}()
	if *dbFile == "" && *treeFile == "" {
		return fmt.Errorf("--tree (or --db) is required")
	}
	if *dbFile == "" && *splitFile == "" && (*refFile == "" || *queryFile == "") {
		return fmt.Errorf("either --db, --split, or both --ref-msa and --query are required")
	}
	if *dbFile != "" && *queryFile == "" {
		return fmt.Errorf("--db mode requires --query")
	}

	var (
		tr           *tree.Tree
		msa          *seq.MSA
		alphabet     *seq.Alphabet
		m            *model.Model
		rates        *model.RateHet
		spec         string
		splitQueries []seq.Sequence
	)
	if *dbFile != "" {
		// Reference database mode: everything comes from one file.
		f, err := os.Open(*dbFile)
		if err != nil {
			return err
		}
		ref, err := refdb.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		tr, msa, alphabet, m, rates, spec = ref.Tree, ref.MSA, ref.Alphabet, ref.Model, ref.Rates, ref.Spec
	} else {
		// Load tree and alphabet.
		tdata, err := os.ReadFile(*treeFile)
		if err != nil {
			return err
		}
		tr, err = tree.ParseNewick(strings.TrimSpace(string(tdata)))
		if err != nil {
			return err
		}
		alphabet = seq.DNA
		if *dataType == "AA" {
			alphabet = seq.AA
		} else if *dataType != "NT" {
			return fmt.Errorf("unknown type %q (want NT or AA)", *dataType)
		}

		// Load the reference alignment (and split off queries if requested).
		var refSeqs []seq.Sequence
		if *splitFile != "" {
			f, err := os.Open(*splitFile)
			if err != nil {
				return err
			}
			all, err := seq.ReadFasta(f)
			f.Close()
			if err != nil {
				return err
			}
			combined, err := seq.NewMSA(alphabet, all)
			if err != nil {
				return err
			}
			names := make([]string, 0, tr.NumLeaves())
			for _, leaf := range tr.Leaves() {
				names = append(names, leaf.Name)
			}
			refSeqs, splitQueries, err = seq.SplitMSA(combined, names)
			if err != nil {
				return err
			}
		} else {
			f, err := os.Open(*refFile)
			if err != nil {
				return err
			}
			refSeqs, err = seq.ReadFasta(f)
			f.Close()
			if err != nil {
				return err
			}
		}
		msa, err = seq.NewMSA(alphabet, refSeqs)
		if err != nil {
			return err
		}

		// Model.
		spec = *modelSpec
		if spec == "" {
			if *dataType == "AA" {
				spec = "SYNAA+G4"
			} else {
				spec = "GTR+G4"
			}
		}
		var freqs []float64
		if *empFreqs {
			freqs, err = mlfit.EmpiricalFreqs(msa)
			if err != nil {
				return err
			}
		}
		m, rates, err = model.ParseSpec(spec, freqs)
		if err != nil {
			return err
		}

		// Optional ML fitting of branch lengths / model parameters.
		if *fit {
			opts := mlfit.Options{BranchLengths: true, Alpha: rates.NumRates() > 1, Exchangeabilities: *dataType == "NT"}
			res, err := mlfit.Fit(tr, msa, nil, 1.0, rates.NumRates(), opts)
			if err != nil {
				return fmt.Errorf("model fitting: %w", err)
			}
			m, rates = res.Model, res.Rates
			if *verbose {
				fmt.Fprintf(stdout, "fit: logL %.3f -> %.3f (alpha %.3f, %d evaluations)\n",
					res.StartLL, res.LogLik, res.Alpha, res.Evaluations)
			}
		}

		if *saveDB != "" {
			f, err := os.Create(*saveDB)
			if err != nil {
				return err
			}
			if err := refdb.Save(f, tr, msa, spec, freqs); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "saved reference database -> %s\n", *saveDB)
		}
	}

	comp, err := seq.Compress(msa)
	if err != nil {
		return err
	}
	part, err := phylo.NewPartition(m, rates, comp, tr)
	if err != nil {
		return err
	}

	cfg := placement.DefaultConfig()
	cfg.ChunkSize = *chunkSize
	cfg.BlockSize = *blockSize
	cfg.Threads = *threads
	cfg.DisableLookup = *noHeur
	cfg.TileQueries = *tileQ
	cfg.TileBranches = *tileB
	cfg.FastMath = *fastMath
	cfg.NoDedup = !*dedup
	cfg.SyncPrecompute = *syncPre
	cfg.NoPipeline = *noPipe
	cfg.Strict = *strict
	mode, err := placement.ParseScoringMode(*scoring)
	if err != nil {
		return err
	}
	cfg.Scoring = mode
	cfg.EDPL = *edpl
	cfg.BayesPendantNodes = *bayesPN
	cfg.BayesProximalNodes = *bayesXN
	if *syncPre {
		cfg.SiteWorkers = *threads
	}
	if *maxmem != "" {
		limit, err := memacct.ParseBytes(*maxmem)
		if err != nil {
			return err
		}
		cfg.MaxMem = limit
	}
	if s := core.StrategyByName(*strategy); s != nil {
		cfg.Strategy = s
	} else {
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	cfg.SpillPolicy = clvSpill.Policy
	cfg.SpillPath = *spillPath
	if *statsJSON != "" {
		cfg.Telemetry = telemetry.NewSink()
	}
	var trace *telemetry.Trace
	if *traceFile != "" {
		tf, err := os.Create(*traceFile)
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
	if *verbose {
		plan := eng.Plan()
		fmt.Fprintf(stdout, "model: %s; mode: AMC=%v lookup=%v slots=%d block=%d planned=%s\n",
			spec, plan.AMC, plan.LookupEnabled, plan.Slots, plan.BlockSize, memacct.FormatBytes(plan.TotalBytes))
	}

	// Queries: streamed from disk chunk by chunk, or taken from the split.
	var src placement.QuerySource
	var qfile *os.File
	if *splitFile != "" {
		var queries []placement.Query
		if *strict {
			queries, err = placement.EncodeQueries(alphabet, splitQueries, msa.Width())
			if err != nil {
				return err
			}
		} else {
			var qerrs []*placement.QueryError
			queries, qerrs = placement.EncodeQueriesLenient(alphabet, splitQueries, msa.Width())
			for _, qe := range qerrs {
				fmt.Fprintln(os.Stderr, "epang: skipping:", qe)
			}
		}
		src = placement.NewSliceSource(queries)
	} else {
		qfile, err = os.Open(*queryFile)
		if err != nil {
			return err
		}
		defer qfile.Close()
		src = placement.NewFastaSource(seq.NewFastaScanner(qfile), alphabet, msa.Width())
	}

	var placed []jplace.Placements
	n, runErr := eng.PlaceStream(ctx, src, func(p jplace.Placements) error {
		placed = append(placed, p)
		return nil
	})

	// Even an interrupted or failed run writes what it has: the partial
	// result is still a well-formed jplace document.
	if runErr == nil || len(placed) > 0 {
		out, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		outQueries := placed
		if *nmOut {
			outQueries = jplace.GroupByPlacement(placed)
		}
		doc := &jplace.Document{
			Tree:       jplace.TreeString(tr),
			Queries:    outQueries,
			Invocation: "epang " + strings.Join(args, " "),
		}
		if mode == placement.ScoringBayes {
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
	if *statsJSON != "" {
		if werr := telemetry.WriteJSONFile(*statsJSON, eng.Report()); werr != nil && runErr == nil {
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
			fmt.Fprintf(os.Stderr, "epang: wrote %d partial placements to %s\n", len(placed), *outFile)
		}
		return runErr
	}

	fmt.Fprintf(stdout, "placed %d queries on %d branches -> %s\n", n, tr.NumBranches(), *outFile)
	if st.QueriesSkipped > 0 {
		fmt.Fprintf(stdout, "skipped %d malformed queries (use --strict to abort instead)\n", st.QueriesSkipped)
	}
	if *verbose {
		fmt.Fprintf(stdout, "phase1 %v, phase2 %v, precompute %v, lookup build %v\n",
			st.Phase1, st.Phase2, st.Precompute, st.LookupBuild)
		fmt.Fprintf(stdout, "CLV recomputes %d, hits %d, evictions %d\n",
			st.CLVStats.Recomputes, st.CLVStats.Hits, st.CLVStats.Evictions)
		fmt.Fprintf(stdout, "memory: %s\n", eng.Accountant())
	}
	if *showStats || *verbose {
		mode := "pipelined"
		if !st.Pipelined {
			mode = "synchronous"
		}
		if st.QueriesDistinct > 0 {
			fmt.Fprintf(stdout, "dedup: %d distinct of %d queries (%d folded)\n",
				st.QueriesDistinct, st.QueriesDistinct+st.QueriesDeduped, st.QueriesDeduped)
		}
		fmt.Fprintf(stdout, "chunks: %d processed (%s); read %v, wait %v\n",
			st.ChunksProcessed, mode, st.ChunkRead.Round(time.Microsecond), st.ChunkWait.Round(time.Microsecond))
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
