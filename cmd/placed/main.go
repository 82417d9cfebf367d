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
// micro-batcher that dispatches whenever the engine is idle, so batches grow
// only under load (--max-batch bounds one). Admission control reserves
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
//	placed ... --max-batch 512 --stats-json stats.json
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
	"syscall"
	"time"

	"phylomem/internal/memacct"
	"phylomem/internal/placement"
	"phylomem/internal/refdb"
	"phylomem/internal/telemetry"
)

func main() {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "placed:", err)
		os.Exit(placement.ExitCode(err))
	}
}

// options is placed's parsed command line: the base engine configuration and
// the single-tree reference source, each bound from its one declaration, plus
// the server's own flags.
type options struct {
	cfg placement.Config // --maxmem lands in cfg.MaxMem: the per-engine default ceiling
	src refdb.Source

	listen, catalog, fleetMaxmem, cacheSize, maxInflight, statsJSON string
	maxBatch                                                        int
	reqTimeout, drainWait                                           time.Duration
}

func newFlags() (*flag.FlagSet, *options) {
	o := &options{cfg: placement.DefaultConfig()}
	fs := flag.NewFlagSet("placed", flag.ContinueOnError)
	o.src.BindFlags(fs)
	placement.BindFlags(fs, &o.cfg, "maxmem", "chunk-size", "block-size", "threads", "no-heur",
		"clv-spill", "clv-spill-path", "dedup", "scoring")
	fs.StringVar(&o.listen, "listen", ":8433", "HTTP listen address")
	fs.StringVar(&o.catalog, "catalog", "", "tree catalog file (JSON); serves every listed tree, engines built on first request, rows may override --maxmem; replaces the single-tree --tree/--ref-msa/--db flags")
	fs.StringVar(&o.fleetMaxmem, "fleet-maxmem", "", "global memory ceiling across all engines, e.g. 8G (empty = unlimited)")
	fs.StringVar(&o.cacheSize, "result-cache", "64M", "per-tenant cross-request result cache size, e.g. 64M (0 disables); cache bytes count against the budgets and are evicted first under pressure")
	fs.StringVar(&o.maxInflight, "max-inflight", "", "per-tenant admission cap on in-flight query bytes, e.g. 64K (empty = derive from the tenant's --maxmem plan)")
	fs.IntVar(&o.maxBatch, "max-batch", 256, "most queries one micro-batch carries to the engine")
	fs.DurationVar(&o.reqTimeout, "request-timeout", 30*time.Second, "per-request placement deadline")
	fs.DurationVar(&o.drainWait, "drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
	fs.StringVar(&o.statsJSON, "stats-json", "", "write the fleet metrics document (budget + per-tenant reports) to this file at shutdown")
	return fs, o
}

// resolveCatalog turns the parsed command line into the fleet's catalog: the
// --catalog file, or a single in-memory entry from the single-tree flags.
func resolveCatalog(fs *flag.FlagSet, o *options) (*catalog, error) {
	if err := refdb.CheckFlags(fs, "catalog", "db"); err != nil {
		return nil, err
	}
	if err := refdb.CheckFlags(fs, "db"); err != nil {
		return nil, err
	}
	if o.catalog != "" {
		return loadCatalogFile(o.catalog, o.cfg.MaxMem)
	}
	if o.src.DB == "" && o.src.Tree == "" {
		return nil, fmt.Errorf("--tree, --db, or --catalog is required")
	}
	if o.src.DB == "" && o.src.RefMSA == "" {
		return nil, fmt.Errorf("either --db or --ref-msa is required")
	}
	cat := &catalog{}
	return cat, cat.add(&catalogEntry{id: "default", maxMem: o.cfg.MaxMem, load: o.src.Open})
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs, o := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: this command takes flags only", fs.Arg(0))
	}

	cfg := o.cfg
	// The server has no per-request field selection, so posterior mode
	// always serves the full uncertainty picture: edpl rides along.
	cfg.EDPL = cfg.Scoring == placement.ScoringBayes

	var fleetLimit int64
	if o.fleetMaxmem != "" {
		limit, err := memacct.ParseBytes(o.fleetMaxmem)
		if err != nil {
			return fmt.Errorf("--fleet-maxmem: %w", err)
		}
		fleetLimit = limit
	}
	cacheBytes, err := memacct.ParseBytes(o.cacheSize)
	if err != nil {
		return fmt.Errorf("--result-cache: %w", err)
	}
	var inflightBytes int64
	if o.maxInflight != "" {
		if inflightBytes, err = memacct.ParseBytes(o.maxInflight); err != nil {
			return fmt.Errorf("--max-inflight: %w", err)
		}
	}

	cat, err := resolveCatalog(fs, o)
	if err != nil {
		return err
	}

	f := newFleet(cat, fleetOptions{
		MaxMem:        fleetLimit,
		BaseConfig:    cfg,
		CacheBytes:    cacheBytes,
		InflightBytes: inflightBytes,
		MaxBatch:      o.maxBatch,
	})
	srv := newServer(f, serverOptions{RequestTimeout: o.reqTimeout})

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

	ln, err := net.Listen("tcp", o.listen)
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
		drainCtx, cancel := context.WithTimeout(context.Background(), o.drainWait)
		if err := srv.shutdown(drainCtx, hs); err != nil {
			runErr = fmt.Errorf("drain: %w", err)
		}
		cancel()
	}

	// The stats document is cut before the fleet is torn down (a closed
	// engine has no report), then the end-of-run audits run: every engine's
	// slot-map invariants and child accountant drain, then the fleet-level
	// accountant drain. An audit failure never masks the run's own error.
	if o.statsJSON != "" {
		if err := telemetry.WriteJSONFile(o.statsJSON, srv.metrics()); err != nil && runErr == nil {
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
	if cerr := f.close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		return runErr
	}
	fmt.Fprintf(stdout, "placed: drained; served %d requests (%d rejected), %d queries\n",
		requests, rejected, queries)
	ft := f.ftel
	fmt.Fprintf(stdout, "placed: fleet built %d engines, shrunk %d, demoted %d, evicted %d (%s reclaimed), %d builds refused\n",
		ft.EnginesBuilt.Load(), ft.EnginesShrunk.Load(), ft.EnginesDemoted.Load(), ft.EnginesEvicted.Load(),
		memacct.FormatBytes(int64(ft.BytesReclaimed.Load())), ft.BuildRejected.Load())
	return nil
}
