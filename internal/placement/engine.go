package placement

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"phylomem/internal/clvstore"
	"phylomem/internal/core"
	"phylomem/internal/memacct"
	"phylomem/internal/parallel"
	"phylomem/internal/phylo"
	"phylomem/internal/telemetry"
	"phylomem/internal/tree"
)

// Config parameterizes the placement engine. The zero value plus a partition
// and tree gives EPA-NG defaults: unlimited memory, chunk size 5000, lookup
// table on. EPA-NG's placement heuristics are not options: every engine
// premasks, optimizes pendant and distal lengths, folds duplicate queries,
// and runs the fixed pre-placement and output filters (see keepFraction).
type Config struct {
	// MaxMem is the memory ceiling in bytes (0 = unlimited). The budget
	// planner translates it into an execution mode.
	MaxMem int64
	// ChunkSize is the number of queries processed per pass over the tree
	// (EPA-NG default 5000).
	ChunkSize int
	// BlockSize is the number of branches per precompute block (default 64).
	BlockSize int
	// Threads is the number of placement worker goroutines (default 1).
	Threads int
	// SyncPrecompute disables the asynchronous precompute goroutine and
	// instead computes each branch block synchronously, splitting every CLV
	// update across sites over the Threads workers (the paper's experimental
	// Fig. 7 scheme).
	SyncPrecompute bool
	// ForceAMC is Fig. 6's "maxmem" row, which no MaxMem spells: the
	// maximum slot count without the up-front fill, so CLVs are acquired
	// lazily and blocks run through the asynchronous pipeline.
	ForceAMC bool
	// DisableLookup forces the pre-placement lookup table off regardless of
	// the budget (used to measure the lookup's ≈15×/23× speedup).
	DisableLookup bool
	// Strategy is passed to core.Config.Strategy: nil is the slot manager's
	// one rule, core.CostAge. The engine declares every branch sweep, so the
	// rule only breaks ties. The field is a seam, not a user option: the
	// identity tests plug adversarial rules through it to show that output
	// does not depend on eviction, and the benchmark harness names its rule.
	Strategy core.Strategy
	// SpillPolicy enables the tiered RAM → disk → recompute eviction path
	// under AMC: eviction victims the policy approves are serialized into a
	// file-backed store and reloaded instead of recomputed
	// (core.DiscardOnly, core.SpillOnly, core.HybridSpill). nil disables the
	// tier. Placement output is byte-identical across policies — the file
	// roundtrip preserves CLV bits exactly. Ignored when the budget plan
	// keeps every CLV resident: a Resize or Demote then discards.
	SpillPolicy core.SpillPolicy
	// SpillPath backs the spill store at an explicit location; empty uses a
	// temporary file removed when the engine closes. Ignored without
	// SpillPolicy.
	SpillPath string
	// Scoring selects the phase-2 scoring mode: ScoringML (the default)
	// reports branch-length-optimized likelihoods; ScoringBayes additionally
	// integrates the likelihood over a pendant × proximal branch-length grid
	// and reports posterior probabilities (see bayes.go).
	Scoring ScoringMode
	// EDPL computes each query's expected distance between placement
	// locations and attaches it to the emitted placements (and RunStats).
	// Works under either scoring mode.
	EDPL bool
	// BayesPendantNodes is the Gauss-Legendre order of the pendant-length
	// integration grid (default 8). Ignored unless Scoring is bayes.
	BayesPendantNodes int
	// BayesProximalNodes is the Gauss-Legendre order of the proximal
	// (insertion-position) integration grid (default 4; 1 integrates the
	// pendant length only, at the branch midpoint). Ignored unless Scoring
	// is bayes.
	BayesProximalNodes int
	// Telemetry, when non-nil, receives the counters updated off the engine's
	// serialized path: the worker pool's per-participant group and the
	// pipeline, kernel and scoring groups. nil disables them — the hot paths
	// then pay one predictable nil-check branch per event and zero
	// allocations (see package telemetry); the report sections the slot
	// manager and the engine own are rendered from RunStats either way.
	Telemetry *telemetry.Sink
	// Trace, when non-nil, receives one newline-JSON event per pipeline
	// action (chunk read/place/emit, lookup build). Tracing is opt-in and
	// independent of Telemetry; the engine does not close the trace.
	Trace *telemetry.Trace
	// Strict aborts the run on the first malformed query (wrong width,
	// invalid character) instead of the default behavior of skipping it and
	// counting the skip in RunStats.QueriesSkipped. Predecessor tools treat
	// malformed input as a per-query event, not a run-killer; Strict
	// restores the abort for pipelines that must not silently drop input.
	Strict bool
	// ParentAccountant, when non-nil, makes the engine's accountant a child
	// of it (memacct.NewChild under ParentCategory): every engine allocation
	// is mirrored into the parent, admission checks (TryAlloc) must pass both
	// levels, and the engine's Close drain audit leaves the parent's category
	// at zero. This is how a fleet of engines shares one global budget while
	// each engine keeps its own per-category books.
	ParentAccountant *memacct.Accountant
	// ParentCategory is the category the engine's footprint appears under in
	// ParentAccountant (e.g. "tenant:<id>"; default "engine"). Ignored
	// without ParentAccountant.
	ParentCategory string
}

// defaultConfig is the one statement of the EPA-NG-like defaults:
// DefaultConfig returns it and withDefaults fills unset numeric fields from it.
var defaultConfig = Config{
	ChunkSize: 5000,
	BlockSize: memacct.DefaultBlockSize,
	Threads:   1,
}

// EPA-NG's fixed heuristic settings, the ones the paper measures it at. An
// engine copies them into its own fields, which only in-package tests change.
const (
	// keepFraction caps the fraction of branches that survive pre-placement
	// into phase 2 (at least 2 branches).
	keepFraction = 0.01
	// prescoreThreshold stops candidate selection once the accumulated
	// likelihood-weight ratio of the kept branches (computed from the
	// pre-scores) reaches it: EPA-NG's dynamic pre-placement heuristic.
	prescoreThreshold = 0.99999
	// filterAccThreshold stops reporting a query's placements once their
	// accumulated likelihood-weight ratio reaches it (EPA-NG's
	// --filter-acc-lwr).
	filterAccThreshold = 0.99999
	// filterMax bounds the placements reported per query (EPA-NG's
	// --filter-max).
	filterMax = 7
)

// premask is the phylo kernels' skipGaps argument: both phases always score a
// query on its non-gap sites only.
const premask = true

// DefaultConfig returns EPA-NG-like defaults.
func DefaultConfig() Config { return defaultConfig }

// Engine performs placements on one reference tree + alignment.
type Engine struct {
	cfg  Config
	tr   *tree.Tree
	part *phylo.Partition
	plan memacct.Plan
	acct *memacct.Accountant

	// mgr is the one CLV store, filled at construction in reference mode.
	// bufBytes is what "branch-buffers" holds: zero while mgr is filled,
	// whose block buffer is not planned (see leaveFilled).
	mgr      *core.Manager
	bufBytes int64

	// Spill tier (nil when disabled): the file-backed store behind the slot
	// manager's tiered eviction, plus its accounted footprint — the spilled
	// bitmap index and the in-flight record buffers.
	spillStore      *clvstore.FileStore
	spillIndexBytes int64
	spillBufBytes   int64

	// Pre-placement lookup table: one prescore row + scale counters per
	// branch (nil when disabled). Entries start as BuildPrescoreRow values and
	// become log terms when a chunk first reads them (convertLookup):
	// lookupDone[pat] masks the states whose entries are terms in every row,
	// lookupNeed is the per-chunk mask of states to convert.
	lookup      []float64
	lookupScale []int32
	lookupDone  []uint32
	lookupNeed  []uint32

	branchOrder []*tree.Edge
	pendant0    float64   // default pendant length for prescoring
	ppend0      []float64 // transition matrices at pendant0, read-only after New

	// Posterior-integration grids (nil unless Config.Scoring is bayes):
	// the pendant-length grid with prior-normalized log-weights, and the
	// unit proximal Gauss-Legendre rule mapped per branch (see bayes.go).
	bayesPend []float64
	bayesLogW []float64
	glX, glW  []float64

	// pool is the engine-lifetime worker pool every parallel loop runs on,
	// sized Threads. Workers are identified by dense ids, which index the
	// per-worker state below (scratch affinity): each worker always reuses
	// its own kernel scratch and selection buffer, so the hot loops are
	// allocation-free without sync.Pool churn.
	pool     *parallel.Pool
	wscratch []*phylo.Scratch    // pool.Size() per-worker kernel scratches
	wsel     [][]int             // pool.Size() per-worker top-k selection buffers
	watt     []*phylo.Attachment // pool.Size() per-worker phase-2 attachments, counts folded per chunk

	// blkBufs are the (at most two) branch-block buffers, allocated lazily
	// and reused across every runBlocks call and the lookup build.
	blkBufs [2]*branchBlock

	// tileQ and tileB are the resolved phase-1 tile dimensions (see
	// chooseTiles); phase 1 walks the score matrix branch-tile-outer /
	// query-tile-inner so a tile's prescore rows (or its CLV block under AMC)
	// stay cache-resident across the whole query block.
	tileQ, tileB int

	// Engine-held per-chunk buffers, reused across chunks. scores is the
	// phase-1 score matrix; the buffer persists but its footprint is
	// accounted per chunk under "chunk-scores" (the budget planner already
	// reserves chunk×branches×8 for it). The candidate arena and its flat (query,
	// rank) / per-branch index replace the former pointer-heavy
	// [][]*candidate fan-out: candidate holds no pointers, so the GC never
	// scans phase 2's work lists. Like the former per-chunk []*candidate
	// slices, the arena is not accounted — it is bounded by
	// chunk × keepMax × sizeof(candidate).
	scores      []float64
	arena       []candidate
	candCount   []int32 // per query: candidates in its arena stripe
	branchStart []int32 // per branch: start offset into candIdx (len nb+1)
	candCursor  []int32 // scratch cursor for the counting sort (len nb)
	candIdx     []int32 // arena indices grouped by branch, query order
	p2tasks     []phase2Task
	candEdges   []*tree.Edge
	tiles       [][]uint32   // per query tile: the chunk's covered-site index (see buildTiles)
	wrefs       [][][]uint32 // per-worker query-tile code refs for buildTile

	// tel and trace mirror Config.Telemetry / Config.Trace; both may be nil
	// (disabled). pipe, ktel, and scor cache the sink's groups for the hot
	// paths.
	tel   *telemetry.Sink
	pipe  *telemetry.Pipeline
	ktel  *telemetry.Kernel
	scor  *telemetry.Scoring
	trace *telemetry.Trace

	// runMu serializes the place path (PlaceStream, which Place and
	// PlaceBatch wrap) and Close: the pool, per-worker scratches, slot
	// manager, and stats are all single-run state, so concurrent sessions —
	// the server's interleaved requests — take turns rather than corrupt
	// each other. Construction (New) happens before the engine is shared
	// and needs no lock.
	runMu sync.Mutex

	closed bool
	stats  RunStats

	// fullWidthRuns is set by tests only: phase 2 then derives insertion CLVs
	// over all patterns, the reference the premasked runs are compared with.
	fullWidthRuns bool

	// The heuristic settings, copied from their constants.
	keepFraction, prescoreThreshold, filterAccThreshold float64
	filterMax                                           int
}

// RunStats aggregates the engine's activity since construction. It is the
// report's run_stats section: each field declares its key (durations render
// as nanoseconds), and the fields another section renders — the slot
// manager's counters (telemetry.amc/spill), the accounting and the plan
// (memory, plan) and ChunkWait, which equals ChunkRead — are "-". Nothing
// uses omitempty, so the key set never depends on a value.
type RunStats struct {
	QueriesPlaced   int           `json:"queries_placed"`
	QueriesSkipped  int           `json:"queries_skipped"`  // malformed queries skipped (lenient mode)
	QueriesDistinct int           `json:"queries_distinct"` // distinct sequences scored by the dedup layer
	QueriesDeduped  int           `json:"queries_deduped"`  // duplicate queries served by fan-out instead of scoring
	Phase1          time.Duration `json:"phase1_ns"`
	Phase2          time.Duration `json:"phase2_ns"`
	Precompute      time.Duration `json:"precompute_ns"`
	LookupBuild     time.Duration `json:"lookup_build_ns"` // wall time of the lookup-table build
	LookupWorkers   int           `json:"lookup_workers"`  // pool workers the lookup build ran with
	LookupTerms     int64         `json:"lookup_terms"`    // lookup-table entries converted to log terms
	CLVStats        core.Stats    `json:"-"`               // the slot manager's counters; zero while the pool is filled
	ThreadsUsed     int           `json:"threads_used"`    // workers + async precompute thread if any
	PeakBytes       int64         `json:"-"`
	PlannedBytes    int64         `json:"-"`
	LookupEnabled   bool          `json:"-"`
	AMC             bool          `json:"-"`
	Slots           int           `json:"-"`
	ChunksProcessed int           `json:"chunks_processed"`

	// Phase-2 unit costs: optimizer likelihood evaluations, premasked
	// insertion-CLV re-derivations, the patterns those computed against the
	// patterns a full-width update would have (their ratio is the mean query
	// coverage), and the premask runs they went through, one range-kernel
	// call each (patterns updated / runs is the mean run length).
	Phase2Evals           int64 `json:"phase2_evals"`
	Phase2CLVUpdates      int64 `json:"phase2_clv_updates"`
	Phase2PatternsUpdated int64 `json:"phase2_patterns_updated"`
	Phase2PatternsFull    int64 `json:"phase2_patterns_full"`
	Phase2Runs            int64 `json:"phase2_runs"`

	// Uncertainty-aware scoring statistics (see bayes.go). The EDPL
	// aggregates count placed queries, duplicates included, and are zero
	// when Config.EDPL is off; the mean is EDPLSum / EDPLCount.
	CandidatesIntegrated int     `json:"candidates_integrated"` // phase-2 candidates scored by the posterior path
	EDPLCount            int     `json:"edpl_count"`            // placed queries with a computed EDPL
	EDPLSum              float64 `json:"edpl_sum"`              // accumulated EDPL over those queries
	EDPLMax              float64 `json:"edpl_max"`              // largest per-query EDPL observed

	// Chunk-loop statistics (see PlaceStream).
	ChunkRead time.Duration `json:"chunk_read_ns"` // time spent decoding/validating query chunks
	// ChunkWait is the placer's idle time before each chunk. The read runs
	// inline, so the placer waits exactly as long as the read takes and
	// ChunkWait equals ChunkRead.
	ChunkWait time.Duration `json:"-"`
	PlaceWall time.Duration `json:"place_wall_ns"` // wall time inside PlaceStream, Place and PlaceBatch
	PoolBusy  time.Duration `json:"pool_busy_ns"`  // cumulative worker busy time during placement

	// PoolParticipants is the number of goroutines that run pool chunks (the
	// workers and the submitter): the capacity PoolBusy is a share of.
	PoolParticipants int `json:"pool_participants"`
}

// PoolUtilization is the share of the pool's capacity spent inside job chunks
// during PlaceStream, Place and PlaceBatch: busy time divided by (wall time ×
// participants), in [0, 1]. The submitting goroutine works on its own jobs,
// so it counts as a participant beside the workers.
func (s RunStats) PoolUtilization() float64 {
	if s.PlaceWall <= 0 || s.PoolParticipants <= 0 {
		return 0
	}
	return s.PoolBusy.Seconds() / (s.PlaceWall.Seconds() * float64(s.PoolParticipants))
}

// New builds a placement engine: plans the memory budget, allocates the CLV
// organization it prescribes, and builds the lookup table if it fits.
func New(part *phylo.Partition, tr *tree.Tree, cfg Config) (*Engine, error) {
	return NewContext(context.Background(), part, tr, cfg)
}

// orDefault replaces an unset (non-positive) numeric option by its default.
func orDefault(v *int, def int) {
	if *v <= 0 {
		*v = def
	}
}

// withDefaults fills the zero-value Config fields with EPA-NG defaults,
// exactly as engine construction would.
func (cfg Config) withDefaults() Config {
	d := defaultConfig
	orDefault(&cfg.ChunkSize, d.ChunkSize)
	orDefault(&cfg.BlockSize, d.BlockSize)
	orDefault(&cfg.Threads, d.Threads)
	if cfg.Scoring == "" {
		cfg.Scoring = ScoringML
	}
	// The quadrature orders stay zero in DefaultConfig: 0 is the flags'
	// documented spelling of "default".
	orDefault(&cfg.BayesPendantNodes, 8)
	orDefault(&cfg.BayesProximalNodes, 4)
	return cfg
}

// PlanFor computes the budget plan cfg would run under without building
// anything — the fleet controller's pre-admission estimate. Plan.TotalBytes
// is the footprint an engine built with the same config will allocate, so a
// registry can check global headroom (and trigger reclaim) before paying for
// construction. NewContext uses the identical computation.
func PlanFor(part *phylo.Partition, tr *tree.Tree, cfg Config) (memacct.Plan, error) {
	cfg = cfg.withDefaults()
	if cfg.Scoring != ScoringML && cfg.Scoring != ScoringBayes {
		return memacct.Plan{}, fmt.Errorf("placement: unknown scoring mode %q (want ml or bayes)", cfg.Scoring)
	}
	if err := part.CheckTreeCompatible(tr); err != nil {
		return memacct.Plan{}, err
	}
	plan, err := memacct.PlanBudget(PlanConfigFor(part, tr, cfg))
	if err != nil {
		return memacct.Plan{}, err
	}
	if cfg.ForceAMC {
		plan.AMC = true
		if plan.BranchBufBytes == 0 {
			plan.BranchBufBytes = memacct.BlockBufferBytes(plan.BlockSize, part.CLVBytes())
		}
	}
	if cfg.DisableLookup {
		plan.LookupEnabled = false
		plan.LookupBytes = 0
	}
	plan.TotalBytes = plan.FixedBytes + plan.ChunkBytes + plan.LookupBytes + plan.SlotsBytes + plan.BranchBufBytes
	return plan, nil
}

// PlanConfigFor is the one mapping from a reference and an engine config to
// the budget planner's view of the problem. PlanFor plans with it, and a
// ceiling computed from it (memacct.MinFeasibleBytes, LookupFloorBytes,
// ReferenceFootprint) is in the arithmetic the engine will apply.
func PlanConfigFor(part *phylo.Partition, tr *tree.Tree, cfg Config) memacct.PlanConfig {
	cfg = cfg.withDefaults()
	return memacct.PlanConfig{
		MaxMem:    cfg.MaxMem,
		Branches:  tr.NumBranches(),
		InnerCLVs: tr.NumInnerCLVs(),
		MinSlots:  minEngineSlots(tr),
		Patterns:  part.NumPatterns(),
		Sites:     part.Comp.OriginalWidth(),
		States:    part.States(),
		CLVBytes:  part.CLVBytes(),
		NumLeaves: tr.NumLeaves(),
		ChunkSize: cfg.ChunkSize,
		BlockSize: cfg.BlockSize,
	}
}

// NewContext is New with cancellation: ctx is checked before the
// reference-mode CLV fill and between the blocks of the lookup-table build —
// the two potentially long phases of construction; once it is cancelled the
// engine's pool is shut down and ctx.Err() is returned.
func NewContext(ctx context.Context, part *phylo.Partition, tr *tree.Tree, cfg Config) (*Engine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	plan, err := PlanFor(part, tr, cfg)
	if err != nil {
		return nil, err
	}

	acct := memacct.NewAccountant()
	if cfg.ParentAccountant != nil {
		cat := cfg.ParentCategory
		if cat == "" {
			cat = "engine"
		}
		acct = cfg.ParentAccountant.NewChild(cat)
	}
	e := &Engine{
		cfg:         cfg,
		tr:          tr,
		part:        part,
		plan:        plan,
		acct:        acct,
		branchOrder: tr.BranchOrderDFS(),

		keepFraction:       keepFraction,
		prescoreThreshold:  prescoreThreshold,
		filterAccThreshold: filterAccThreshold,
		filterMax:          filterMax,
	}
	e.pool = parallel.New(cfg.Threads)
	e.tel = cfg.Telemetry
	e.pipe = e.tel.PipelineGroup()
	e.ktel = e.tel.KernelGroup()
	e.scor = e.tel.ScoringGroup()
	e.trace = cfg.Trace
	e.tileQ, e.tileB = chooseTiles(part, plan)
	if e.tel != nil {
		e.tel.Pool.Init(e.pool.Size())
		e.pool.SetTelemetry(e.tel.PoolGroup())
	}
	maxPend := phylo.MaxPendant(tr)
	e.wscratch = make([]*phylo.Scratch, e.pool.Size())
	e.watt = make([]*phylo.Attachment, e.pool.Size())
	for i := range e.wscratch {
		e.wscratch[i] = part.NewScratch()
		e.watt[i] = part.NewAttachment(maxPend)
	}
	e.wsel = make([][]int, e.pool.Size())
	e.wrefs = make([][][]uint32, e.pool.Size())
	e.pendant0 = phylo.PrescorePendant(tr)
	e.ppend0 = make([]float64, part.PLen())
	part.FillP(e.ppend0, e.pendant0)
	if cfg.bayes() {
		e.initBayesGrids(maxPend)
	}
	e.acct.Alloc("fixed", plan.FixedBytes)
	// Seed the transient categories with zero-byte entries so the report's
	// breakdown maps carry the same key set regardless of whether a chunk
	// was placed — the stats-json schema must depend only on the code
	// version, never on the execution mode.
	// "result-cache" is likewise seeded even though only the serving path
	// attaches a ResultCache: the breakdown's key set must not depend on
	// how the engine is driven.
	// "spill-index"/"spill-buffers" are seeded like the rest: they carry real
	// bytes only when the spill tier is on, but the key set never varies.
	for _, cat := range []string{"chunk-queries", "chunk-scores", resultCacheCategory,
		"spill-index", "spill-buffers"} {
		e.acct.Alloc(cat, 0)
	}

	// From here on the engine owns a live worker pool (and possibly a spill
	// store); release both on every construction failure so an aborted New
	// leaks no goroutines and no temp files.
	fail := func(err error) (*Engine, error) {
		e.pool.Close()
		if e.spillStore != nil {
			e.spillStore.Close()
		}
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}

	mcfg := core.Config{
		Slots:    plan.Slots,
		Strategy: cfg.Strategy,
		Pool:     e.sitePool(),
		FillPool: e.pool,
		Fill:     !plan.AMC,
	}
	if plan.AMC && cfg.SpillPolicy != nil {
		store, err := clvstore.NewFileStore(cfg.SpillPath, tr.NumInnerCLVs(), part.CLVLen(), part.ScaleLen())
		if err != nil {
			return fail(err)
		}
		e.spillStore = store
		e.spillIndexBytes = int64(tr.NumInnerCLVs()) // the spilled bitmap
		e.spillBufBytes = 2 * store.RecordBytes()    // write + read record buffers
		e.acct.Alloc("spill-index", e.spillIndexBytes)
		e.acct.Alloc("spill-buffers", e.spillBufBytes)
		mcfg.SpillStore = store
		mcfg.SpillPolicy = cfg.SpillPolicy
	}
	start := time.Now()
	mgr, err := core.NewManager(part, tr, mcfg)
	if err != nil {
		return fail(err)
	}
	d := time.Since(start)
	e.stats.Precompute += d
	if mgr.Filled() {
		e.trace.Emit(telemetry.Event{Ev: "precompute", DurNS: int64(d), Bytes: mgr.Bytes(),
			Detail: fmt.Sprintf("clvs=%d workers=%d levels=%d", tr.NumInnerCLVs(), e.pool.Workers(), mgr.FillLevels())})
	}
	e.mgr = mgr
	e.bufBytes = plan.BranchBufBytes
	e.acct.Alloc("clv-slots", mgr.Bytes())
	e.acct.Alloc("branch-buffers", e.bufBytes)

	if plan.LookupEnabled {
		if err := e.buildLookup(ctx); err != nil {
			return fail(err)
		}
	}
	e.stats.AMC = plan.AMC
	e.stats.Slots = plan.Slots
	e.stats.LookupEnabled = plan.LookupEnabled
	e.stats.PlannedBytes = plan.TotalBytes
	e.stats.PoolParticipants = e.pool.Participants()
	return e, nil
}

// sitePool returns the pool for across-site parallel CLV updates (the
// Fig. 7 experimental scheme, on under SyncPrecompute with several threads),
// or nil when updates run serially.
func (e *Engine) sitePool() *parallel.Pool {
	if e.cfg.SyncPrecompute && e.cfg.Threads > 1 {
		return e.pool
	}
	return nil
}

// Close releases the engine's worker pool and audits the end-of-run
// invariants: the slot manager's maps must be consistent with zero pins
// left, the persistent accounting categories are released, and the
// accountant must then be fully drained — any non-zero balance means a
// transient category (chunk queries or scores) leaked. It also surfaces a
// sticky accountant overcommit. Close is idempotent; the audits run once.
// An error from Close wraps core.ErrInvariant or memacct.ErrNotDrained and
// indicates an internal bug, not bad input.
func (e *Engine) Close() error {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.pool.Close()
	var errs []error
	if err := e.mgr.CheckInvariants(); err != nil {
		errs = append(errs, err)
	}
	if p := e.mgr.PinnedSlots(); p != 0 {
		errs = append(errs, fmt.Errorf("%w: %d slots still pinned at Close", core.ErrInvariant, p))
	}
	if err := e.acct.Err(); err != nil {
		errs = append(errs, err)
	}
	// Release the engine-lifetime allocations, then everything must be at
	// zero. Freeing unconditionally would panic on a double-accounting bug,
	// which is exactly the signal we want.
	e.acct.Free("fixed", e.plan.FixedBytes)
	e.acct.Free("clv-slots", e.mgr.Bytes())
	e.acct.Free("branch-buffers", e.bufBytes)
	if e.lookup != nil {
		e.acct.Free("lookup-table", e.plan.LookupBytes)
	}
	if e.spillStore != nil {
		e.acct.Free("spill-index", e.spillIndexBytes)
		e.acct.Free("spill-buffers", e.spillBufBytes)
		if err := e.spillStore.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := e.acct.AssertDrained(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Plan returns the budget plan the engine runs under.
func (e *Engine) Plan() memacct.Plan { return e.plan }

// Accountant exposes the engine's memory accounting.
func (e *Engine) Accountant() *memacct.Accountant { return e.acct }

// ErrEngineClosed marks a placement attempted after Close. The server's
// drain sequence relies on it: once the engine is closed, late sessions fail
// fast instead of touching released state.
var ErrEngineClosed = errors.New("placement: engine closed")

// Stats returns a snapshot of the run statistics. It serializes with the
// place paths, so a call while a session is in flight blocks until that
// session's chunk loop returns the lock.
func (e *Engine) Stats() RunStats {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	s := e.stats
	s.CLVStats = e.mgr.Stats()
	s.PeakBytes = e.acct.Peak()
	s.ThreadsUsed = e.cfg.Threads
	if !e.mgr.Filled() && !e.cfg.SyncPrecompute {
		s.ThreadsUsed++ // the asynchronous precompute thread
	}
	return s
}

// minEngineSlots is the smallest slot pool the engine can run on, and the
// floor the budget planner is given: one slot beyond the tree's single-chain
// minimum, because branch precomputation holds one end of a branch pinned
// while materializing the other.
func minEngineSlots(tr *tree.Tree) int { return tr.MinSlots() + 1 }

// Resize changes the engine's slot-pool size — the fleet controller's lever
// for reclaiming memory from a warm engine without tearing it down. Values
// below the engine's floor are clamped up to it (the controller asks for
// "half", the engine keeps itself viable); the core manager clamps the other
// end at the tree's inner-CLV count. The "clv-slots" accounting (and, through
// the child accountant, the fleet total) moves by exactly the pool delta,
// plus leaveFilled's block buffers. Serializes with the place paths: a
// resize waits for an in-flight run to finish rather than racing it.
func (e *Engine) Resize(slots int) error {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	return e.resizeLocked(slots)
}

func (e *Engine) resizeLocked(slots int) error {
	if e.closed {
		return ErrEngineClosed
	}
	if min := minEngineSlots(e.tr); slots < min {
		slots = min
	}
	before := e.mgr.Bytes()
	if err := e.mgr.Resize(slots); err != nil {
		return err
	}
	after := e.mgr.Bytes()
	if after > before {
		e.acct.Alloc("clv-slots", after-before)
	} else if before > after {
		e.acct.Free("clv-slots", before-after)
	}
	e.stats.Slots = e.mgr.Slots()
	e.leaveFilled()
	return nil
}

// leaveFilled accounts the AMC layout's two block buffers once a reclaim
// lever has ended the filled state, and drops the filled layout's buffer.
func (e *Engine) leaveFilled() {
	if e.mgr.Filled() || e.bufBytes != 0 {
		return
	}
	e.blkBufs = [2]*branchBlock{}
	e.bufBytes = memacct.BlockBufferBytes(e.plan.BlockSize, e.part.CLVBytes())
	e.acct.Alloc("branch-buffers", e.bufBytes)
}

// Demote pushes every resident CLV out of the slot pool (into the spill
// tier when one is attached, otherwise discarding them) and shrinks the
// pool to the engine's floor — the deepest reclaim short of eviction.
// Returns the number of CLVs left reloadable from disk.
func (e *Engine) Demote() (reloadable int, err error) {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if e.closed {
		return 0, ErrEngineClosed
	}
	if reloadable, err = e.mgr.DemoteAll(); err == nil {
		err = e.resizeLocked(minEngineSlots(e.tr))
	}
	return reloadable, err
}

// Reclaim reports the slot manager's reclaim picture for the fleet
// controller's victim cost model. A closed engine reports the zero picture,
// which offers no lever.
func (e *Engine) Reclaim() core.ReclaimStats {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if e.closed {
		return core.ReclaimStats{}
	}
	return e.mgr.ReclaimStats()
}

// buildLookup computes the pre-placement lookup table: one prescore row per
// branch, built from the branch's midpoint insertion CLV. Branches go
// block-wise through the engine's block buffer: fillBlockEnds gathers a
// block's end operands serially through the slot manager, which is not
// concurrency-safe, then the workers derive each midpoint into its block
// slot and build the row from it. Every branch's row is written by
// exactly one worker from the same operand values the serial sweep would
// use, so the table is bit-identical regardless of the worker count.
func (e *Engine) buildLookup(ctx context.Context) error {
	start := time.Now()
	rowLen := e.part.PrescoreRowLen()
	sl := e.part.ScaleLen()
	e.lookup = make([]float64, e.tr.NumBranches()*rowLen)
	e.lookupScale = make([]int32, e.tr.NumBranches()*sl)
	e.lookupDone = make([]uint32, e.part.NumPatterns())
	e.lookupNeed = make([]uint32, e.part.NumPatterns())
	e.acct.Alloc("lookup-table", e.plan.LookupBytes)

	e.mgr.BeginSweep(e.branchOrder)
	defer e.mgr.EndSweep()
	blk := e.blockBuf(0)
	for off := 0; off < len(e.branchOrder); off += e.plan.BlockSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := e.fillBlockEnds(blk, e.branchOrder[off:min(off+e.plan.BlockSize, len(e.branchOrder))]); err != nil {
			return fmt.Errorf("placement: lookup build: %w", err)
		}
		e.pool.ForEach(len(blk.entries), func(i, worker int) {
			ent := &blk.entries[i]
			e.deriveMidpoint(ent, nil, e.wscratch[worker])
			id := ent.edge.ID
			e.part.BuildPrescoreRow(e.lookup[id*rowLen:(id+1)*rowLen], ent.m, e.ppend0)
			copy(e.lookupScale[id*sl:(id+1)*sl], ent.ms)
		})
	}
	d := time.Since(start)
	e.stats.LookupBuild = d
	e.stats.LookupWorkers = e.pool.Workers()
	e.trace.Emit(telemetry.Event{Ev: "lookup_build", DurNS: int64(d),
		Bytes: e.plan.LookupBytes, Detail: fmt.Sprintf("branches=%d workers=%d", e.tr.NumBranches(), e.pool.Workers())})
	return nil
}

// acquireBranchEnds materializes both directional CLVs of a branch through
// the slot manager, acquiring the end with the larger slot requirement first so that the pair fits in MinSlots+1 slots,
// and returns the operands in (A, B) node order plus a release function. It
// also moves the declared sweep's position to this branch.
func (e *Engine) acquireBranchEnds(edge *tree.Edge) (opA, opB phylo.Operand, release func(), err error) {
	e.mgr.AdvanceSweep(edge)
	a, b := edge.Nodes()
	da, db := e.tr.DirOf(edge, a), e.tr.DirOf(edge, b)
	su := e.tr.SlotRequirements()
	first, second := da, db
	if su[db] > su[da] {
		first, second = db, da
	}
	op1, err := e.mgr.Acquire(first)
	if err != nil {
		return phylo.Operand{}, phylo.Operand{}, nil, err
	}
	op2, err := e.mgr.Acquire(second)
	if err != nil {
		e.mgr.Release(first)
		return phylo.Operand{}, phylo.Operand{}, nil, err
	}
	opA, opB = op1, op2
	if first != da {
		opA, opB = op2, op1
	}
	return opA, opB, func() {
		e.mgr.Release(first)
		e.mgr.Release(second)
	}, nil
}

// lookupRow returns branch e's prescore row and scale counters.
func (e *Engine) lookupRow(edgeID int) ([]float64, []int32) {
	rowLen := e.part.PrescoreRowLen()
	sl := e.part.ScaleLen()
	return e.lookup[edgeID*rowLen : (edgeID+1)*rowLen], e.lookupScale[edgeID*sl : (edgeID+1)*sl]
}

// convertLookup turns the lookup-table entries the chunk's tiles read and no
// earlier chunk did into log terms (phylo.PrescoreTerms), in one pool pass
// over the branches, so that phase 1 reads every row as a term row. Each
// (branch, pattern, state) entry's log is taken at most once per engine.
func (e *Engine) convertLookup(tiles [][]uint32) {
	need := e.lookupNeed
	clear(need)
	for _, tile := range tiles {
		e.part.TileStates(tile, need)
	}
	states := 0
	for pat, c := range need {
		need[pat] = c &^ e.lookupDone[pat]
		states += bits.OnesCount32(need[pat])
	}
	if states == 0 {
		return
	}
	e.pool.ForEach(e.tr.NumBranches(), func(b, _ int) {
		row, scale := e.lookupRow(b)
		e.part.PrescoreTerms(row, scale, need)
	})
	for pat, c := range need {
		e.lookupDone[pat] |= c
	}
	e.stats.LookupTerms += int64(states) * int64(e.tr.NumBranches())
}
