// Command placed is the long-running placement server: a fleet of placement
// engines — one per reference tree in a catalog — built lazily on first
// request, kept warm, and governed by one global memory budget. Each engine
// carries its own AMC slot manager, lookup table, micro-batcher, admission
// cap, result cache, and telemetry; the fleet controller reacts to global
// pressure by shrinking a cold engine's slot pool, demoting its CLVs to the
// disk spill tier, or evicting the engine entirely, choosing victims by
// measured recompute cost and reload bandwidth.
//
//	POST /v1/place[?tree=id]  aligned-FASTA body in, jplace document out
//	GET  /healthz             liveness + lock-free fleet counters
//	GET  /metrics             fleet document: budget, per-tenant reports
//	POST /admin/reclaim       apply one reclaim lever (tests, drills)
//
// Single-tree catalogs (including the legacy --tree/--ref-msa/--db flags)
// keep the old contract: the tree parameter may be omitted and the engine is
// prewarmed at startup. Concurrent requests are coalesced per tenant by a
// micro-batcher (--max-batch, --max-latency). Admission control reserves
// each request's query bytes against the tenant's budget AND the global one
// (hierarchical accountants); requests beyond either receive 429 with a
// Retry-After header rather than growing the footprint. SIGTERM/SIGINT
// drains: in-flight requests finish, pending batches flush, and every
// engine's end-of-run audits plus the fleet-level accountant drain run
// before exit.
//
// Usage:
//
//	placed --tree ref.nwk --ref-msa ref.fasta --listen :8433
//	placed --catalog trees.json --fleet-maxmem 8G --maxmem 4G
//	placed ... --max-batch 512 --max-latency 10ms --stats-json stats.json
//
// Exit codes follow epang: 0 success, 1 input or usage error, 2 internal
// invariant violation, 130 interrupted before serving began.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"phylomem/internal/core"
	"phylomem/internal/memacct"
	"phylomem/internal/mlfit"
	"phylomem/internal/model"
	"phylomem/internal/placement"
	"phylomem/internal/refdb"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
	"phylomem/internal/tree"
)

func main() {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "placed:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode mirrors epang's failure classes: 1 input or usage error, 2
// internal invariant violation (accounting leak at either level, overcommit,
// slot-map corruption), 130 interrupted before the server came up.
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

// reference is everything placed needs from one reference data set.
type reference struct {
	tr       *tree.Tree
	msa      *seq.MSA
	alphabet *seq.Alphabet
	m        *model.Model
	rates    *model.RateHet
	spec     string
}

// loadReference resolves --db or --tree/--ref-msa/--model into a reference,
// the same resolution epang performs before a run.
func loadReference(dbFile, treeFile, refFile, modelSpec, dataType string, empFreqs bool) (*reference, error) {
	if dbFile != "" {
		f, err := os.Open(dbFile)
		if err != nil {
			return nil, err
		}
		ref, err := refdb.Load(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		return &reference{tr: ref.Tree, msa: ref.MSA, alphabet: ref.Alphabet, m: ref.Model, rates: ref.Rates, spec: ref.Spec}, nil
	}
	tdata, err := os.ReadFile(treeFile)
	if err != nil {
		return nil, err
	}
	tr, err := tree.ParseNewick(strings.TrimSpace(string(tdata)))
	if err != nil {
		return nil, err
	}
	alphabet := seq.DNA
	if dataType == "AA" {
		alphabet = seq.AA
	} else if dataType != "NT" {
		return nil, fmt.Errorf("unknown type %q (want NT or AA)", dataType)
	}
	f, err := os.Open(refFile)
	if err != nil {
		return nil, err
	}
	refSeqs, err := seq.ReadFasta(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	msa, err := seq.NewMSA(alphabet, refSeqs)
	if err != nil {
		return nil, err
	}
	spec := modelSpec
	if spec == "" {
		if dataType == "AA" {
			spec = "SYNAA+G4"
		} else {
			spec = "GTR+G4"
		}
	}
	var freqs []float64
	if empFreqs {
		freqs, err = mlfit.EmpiricalFreqs(msa)
		if err != nil {
			return nil, err
		}
	}
	m, rates, err := model.ParseSpec(spec, freqs)
	if err != nil {
		return nil, err
	}
	return &reference{tr: tr, msa: msa, alphabet: alphabet, m: m, rates: rates, spec: spec}, nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("placed", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", ":8433", "HTTP listen address")
		catalogFlag = fs.String("catalog", "", "tree catalog file (JSON); serves every listed tree, engines built on first request")
		fleetMaxmem = fs.String("fleet-maxmem", "", "global memory ceiling across all engines, e.g. 8G (empty = unlimited)")
		treeFile    = fs.String("tree", "", "reference tree (Newick); single-tree alternative to --catalog")
		dbFile      = fs.String("db", "", "load the reference (tree+alignment+model) from a refdb file instead of --tree/--ref-msa/--model")
		refFile     = fs.String("ref-msa", "", "reference alignment (FASTA)")
		modelSpec   = fs.String("model", "", "substitution model spec, e.g. GTR+G4{0.5} (default: GTR+G4 for NT, SYNAA+G4 for AA)")
		empFreqs    = fs.Bool("emp-freqs", true, "use empirical stationary frequencies from the reference alignment")
		dataType    = fs.String("type", "NT", "data type: NT or AA")
		maxmem      = fs.String("maxmem", "", "per-engine memory ceiling, e.g. 4G or 512M (empty = unlimited); catalog entries may override")
		chunkSize   = fs.Int("chunk-size", 5000, "queries per engine chunk")
		blockSize   = fs.Int("block-size", memacct.DefaultBlockSize, "branches per precompute block")
		threads     = fs.Int("threads", 1, "placement worker threads per engine")
		noHeur      = fs.Bool("no-heur", false, "disable the pre-placement lookup table heuristic")
		tileQ       = fs.Int("tile-queries", 0, "phase-1 query-tile size (0 = automatic)")
		tileB       = fs.Int("tile-branches", 0, "phase-1 branch-tile size (0 = automatic, matches the precompute block size)")
		fastMath    = fs.Bool("fast-math", false, "reordered fast-math accumulation (faster, deterministic, but not bit-identical to the default kernels)")
		strategy    = fs.String("memsave-strategy", "costage", "CLV replacement tie-break / undeclared-access policy: cost, costage, lru, fifo, random (the declared branch sweep decides first)")
		spillPath   = fs.String("clv-spill-path", "", "spill store file (empty = temporary file, removed on shutdown; multi-tree catalogs append the tree id)")
		dedup       = fs.Bool("dedup", true, "group each batch's queries by sequence content and place one representative per distinct sequence")
		scoring     = fs.String("scoring", "ml", "scoring mode for every engine: ml (optimized likelihoods) or bayes (posterior probabilities + per-query edpl)")
		cacheSize   = fs.String("result-cache", "64M", "per-tenant cross-request result cache size, e.g. 64M (0 disables); cache bytes count against the budgets and are evicted first under pressure")
		maxInflight = fs.String("max-inflight", "", "per-tenant admission cap on in-flight query bytes, e.g. 64K (empty = derive from the tenant's --maxmem plan)")
		maxBatch    = fs.Int("max-batch", 256, "flush a micro-batch once this many queries are pending")
		maxLatency  = fs.Duration("max-latency", 20*time.Millisecond, "flush a micro-batch this long after its first query arrives")
		reqTimeout  = fs.Duration("request-timeout", 30*time.Second, "per-request placement deadline")
		drainWait   = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
		statsJSON   = fs.String("stats-json", "", "write the fleet metrics document (budget + per-tenant reports) to this file at shutdown")
		clvSpill    core.SpillFlag
	)
	fs.Var(&clvSpill, "clv-spill", "spill evicted CLVs to a disk tier and reload them instead of recomputing; --clv-spill=discard|spill|hybrid picks the per-victim decision, bare means hybrid (AMC only; output is byte-identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: this command takes flags only", fs.Arg(0))
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
	mode, err := placement.ParseScoringMode(*scoring)
	if err != nil {
		return err
	}
	cfg.Scoring = mode
	// The server has no per-request field selection, so posterior mode
	// always serves the full uncertainty picture: edpl rides along.
	cfg.EDPL = mode == placement.ScoringBayes
	if s := core.StrategyByName(*strategy); s != nil {
		cfg.Strategy = s
	} else {
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	cfg.SpillPolicy = clvSpill.Policy
	cfg.SpillPath = *spillPath

	var defaultMaxMem int64
	if *maxmem != "" {
		limit, err := memacct.ParseBytes(*maxmem)
		if err != nil {
			return err
		}
		defaultMaxMem = limit
	}
	var fleetLimit int64
	if *fleetMaxmem != "" {
		limit, err := memacct.ParseBytes(*fleetMaxmem)
		if err != nil {
			return fmt.Errorf("--fleet-maxmem: %w", err)
		}
		fleetLimit = limit
	}
	cacheBytes, err := memacct.ParseBytes(*cacheSize)
	if err != nil {
		return fmt.Errorf("--result-cache: %w", err)
	}
	var inflightBytes int64
	if *maxInflight != "" {
		if inflightBytes, err = memacct.ParseBytes(*maxInflight); err != nil {
			return fmt.Errorf("--max-inflight: %w", err)
		}
	}

	// Resolve the catalog: a file, or a single in-memory entry from the
	// legacy single-tree flags.
	var cat *catalog
	if *catalogFlag != "" {
		if *treeFile != "" || *dbFile != "" {
			return fmt.Errorf("--catalog and --tree/--db are mutually exclusive")
		}
		cat, err = loadCatalogFile(*catalogFlag, defaultMaxMem)
		if err != nil {
			return err
		}
	} else {
		if *dbFile == "" && *treeFile == "" {
			return fmt.Errorf("--tree, --db, or --catalog is required")
		}
		if *dbFile == "" && *refFile == "" {
			return fmt.Errorf("either --db or --ref-msa is required")
		}
		db, tf, rf, ms, dt, ef := *dbFile, *treeFile, *refFile, *modelSpec, *dataType, *empFreqs
		cat = &catalog{}
		if err := cat.add(&catalogEntry{
			id:     "default",
			maxMem: defaultMaxMem,
			load:   func() (*reference, error) { return loadReference(db, tf, rf, ms, dt, ef) },
		}); err != nil {
			return err
		}
	}

	f := newFleet(cat, fleetOptions{
		MaxMem:        fleetLimit,
		BaseConfig:    cfg,
		CacheBytes:    cacheBytes,
		InflightBytes: inflightBytes,
		MaxBatch:      *maxBatch,
		MaxLatency:    *maxLatency,
	})
	srv := newServer(f, serverOptions{RequestTimeout: *reqTimeout})

	// Single-tree catalogs keep the old warm-at-startup contract; multi-tree
	// fleets build lazily so unused trees never pay their footprint.
	if id := cat.defaultID(); id != "" {
		t, err := f.get(id)
		if err != nil {
			return err
		}
		f.release(t)
		plan := t.eng.Plan()
		fmt.Fprintf(stdout, "placed: tree %q warm (model %s; AMC=%v slots=%d planned=%s)\n",
			id, t.spec, plan.AMC, plan.Slots, memacct.FormatBytes(plan.TotalBytes))
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		if cerr := f.close(); cerr != nil {
			return errors.Join(err, cerr)
		}
		return err
	}
	hs := &http.Server{Handler: srv.handler()}
	budget := "unlimited"
	if fleetLimit > 0 {
		budget = memacct.FormatBytes(fleetLimit)
	}
	fmt.Fprintf(stdout, "placed: serving %d tree(s) on %s (global budget %s)\n",
		len(cat.order), ln.Addr(), budget)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	var runErr error
	select {
	case err := <-serveErr:
		// Listener failure: nothing to drain, just audit the fleet.
		runErr = err
	case <-ctx.Done():
		fmt.Fprintln(stdout, "placed: draining")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		if err := srv.shutdown(drainCtx, hs); err != nil {
			runErr = fmt.Errorf("drain: %w", err)
		}
		cancel()
	}

	// The stats document is cut before the fleet is torn down (a closed
	// engine has no report), then the end-of-run audits run: every engine's
	// slot-map invariants and child accountant drain, then the fleet-level
	// accountant drain. An audit failure never masks the run's own error.
	if *statsJSON != "" {
		if err := telemetry.WriteJSONFile(*statsJSON, srv.metrics()); err != nil && runErr == nil {
			runErr = err
		}
	}
	var requests, rejected, queries uint64
	for _, t := range f.snapshotTenants() {
		sv := t.tel.ServerGroup()
		requests += sv.Requests.Load()
		rejected += sv.Rejected.Load()
		queries += sv.QueriesReceived.Load()
	}
	fsnap := f.ftel.Snapshot()
	if cerr := f.close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		return runErr
	}
	fmt.Fprintf(stdout, "placed: drained; served %d requests (%d rejected), %d queries\n",
		requests, rejected, queries)
	fmt.Fprintf(stdout, "placed: fleet built %d engines, shrunk %d, demoted %d, evicted %d (%s reclaimed), %d builds refused\n",
		fsnap.EnginesBuilt, fsnap.EnginesShrunk, fsnap.EnginesDemoted, fsnap.EnginesEvicted,
		memacct.FormatBytes(int64(fsnap.BytesReclaimed)), fsnap.BuildRejected)
	return nil
}
