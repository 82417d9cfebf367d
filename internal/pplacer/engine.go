// Package pplacer implements the baseline the paper compares against
// (Fig. 5): a maximum-likelihood placement tool in the style of pplacer
// (Matsen et al. 2010). It shares the likelihood substrate with the EPA-NG
// equivalent but differs in exactly the ways the comparison exercises:
//
//   - All 3(n-2) directional CLVs are precomputed up front into a
//     clvstore.Store (the store types are shared with the AMC spill tier).
//   - There is no pre-placement lookup table and no two-phase heuristic:
//     every query is scored against every branch with full likelihood
//     computations, and only the best candidates get branch-length
//     optimization.
//   - All queries are held in memory at once (no chunking).
//   - Its only memory-saving option is on/off: backing the CLV store with a
//     file (the portable equivalent of pplacer's --mmap-file), which trades
//     I/O latency for RAM.
package pplacer

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"phylomem/internal/clvstore"
	"phylomem/internal/core"
	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/numeric"
	"phylomem/internal/parallel"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/telemetry"
	"phylomem/internal/tree"
)

// Config parameterizes the baseline tool.
type Config struct {
	// FileBacked enables the memory-saving mode: the CLV store lives in a
	// file instead of RAM (pplacer's --mmap-file).
	FileBacked bool
	// FilePath is the backing file location (empty = temporary file).
	FilePath string
	// KeepCount is the number of best branches per query that receive
	// pendant-length optimization (default 7).
	KeepCount int
	// Threads is the number of scoring workers (default 1).
	Threads int
	// Telemetry, when non-nil, receives the worker pool's per-participant
	// counters. nil disables them (see package telemetry).
	Telemetry *telemetry.Sink
}

// Engine is the baseline placement tool.
type Engine struct {
	cfg  Config
	tr   *tree.Tree
	part *phylo.Partition

	store clvstore.Store
	acct  *memacct.Accountant

	pendant0 float64

	// storeMu serializes store access from concurrent optimization workers.
	storeMu sync.Mutex

	// pool is the engine-lifetime worker pool; wscratch, watt and wsel give
	// each worker id its own kernel scratch, phase-2 attachment and top-k
	// selection buffer (scratch affinity), so the scoring and optimization
	// loops are allocation-free after warm-up.
	pool     *parallel.Pool
	wscratch []*phylo.Scratch
	watt     []*phylo.Attachment
	wsel     [][]int

	closed bool
	stats  Stats
}

// Stats records the baseline's activity. It is the report's run_stats
// section: each field declares its key, and the fields the amc and memory
// sections render are "-".
type Stats struct {
	Precompute time.Duration `json:"precompute_ns"`
	CLVStats   core.Stats    `json:"-"` // the precompute working set's final counters
	PlaceTime  time.Duration `json:"place_ns"`
	StoreReads uint64        `json:"store_reads"`
	PeakBytes  int64         `json:"-"`
	FileBacked bool          `json:"file_backed"`
	Threads    int           `json:"threads"` // scoring workers
}

// New precomputes all 3(n-2) directional CLVs into the configured store.
// The precompute itself runs through a small slot-managed working set so
// that the file-backed mode never holds the full CLV set in RAM.
func New(part *phylo.Partition, tr *tree.Tree, cfg Config) (*Engine, error) {
	if cfg.KeepCount <= 0 {
		cfg.KeepCount = 7
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if err := part.CheckTreeCompatible(tr); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, tr: tr, part: part, acct: memacct.NewAccountant()}
	e.pool = parallel.New(cfg.Threads)
	if cfg.Telemetry != nil {
		cfg.Telemetry.Pool.Init(e.pool.Size())
		e.pool.SetTelemetry(cfg.Telemetry.PoolGroup())
	}
	e.wscratch = make([]*phylo.Scratch, e.pool.Size())
	e.watt = make([]*phylo.Attachment, e.pool.Size())
	for i := range e.wscratch {
		e.wscratch[i] = part.NewScratch()
		e.watt[i] = part.NewAttachment(phylo.MaxPendant(tr))
	}
	e.wsel = make([][]int, e.pool.Size())
	e.pendant0 = tr.TotalBranchLength() / float64(tr.NumBranches()) / 2
	if e.pendant0 <= 0 {
		e.pendant0 = 0.01
	}

	// Construction failures must release both the pool and the store, so an
	// aborted New leaks neither goroutines nor a backing file.
	fail := func(err error) (*Engine, error) {
		e.pool.Close()
		if e.store != nil {
			e.store.Close()
		}
		return nil, err
	}
	n := tr.NumInnerCLVs()
	if cfg.FileBacked {
		fs, err := clvstore.NewFileStore(cfg.FilePath, n, part.CLVLen(), part.ScaleLen())
		if err != nil {
			return fail(err)
		}
		e.store = fs
	} else {
		e.store = clvstore.NewMemStore(n, part.CLVLen(), part.ScaleLen())
	}
	e.acct.Alloc("clv-store", e.store.Bytes())
	e.stats.FileBacked = cfg.FileBacked
	e.stats.Threads = cfg.Threads

	// Precompute every directional CLV through a bounded working set.
	start := time.Now()
	workSlots := tr.MinSlots() + 8
	if workSlots > n {
		workSlots = n
	}
	mgr, err := core.NewManager(part, tr, core.Config{Slots: workSlots})
	if err != nil {
		return fail(err)
	}
	e.acct.Alloc("precompute-slots", mgr.Bytes())
	for i := 0; i < n; i++ {
		d := tr.DirOfCLV(i)
		op, err := mgr.Acquire(d)
		if err != nil {
			return fail(fmt.Errorf("pplacer: precompute: %w", err))
		}
		if err := e.store.Write(i, op.CLV, op.Scale); err != nil {
			mgr.Release(d)
			return fail(err)
		}
		mgr.Release(d)
	}
	e.stats.CLVStats = mgr.Stats()
	e.acct.Free("precompute-slots", mgr.Bytes())
	e.stats.Precompute = time.Since(start)
	return e, nil
}

// Report renders the baseline's --stats-json document: the run counters,
// the memory accounting with per-category peaks, and the telemetry
// section, whose amc keys are the precompute working set's final Stats.
// The key schema matches the placement engine's conventions (snake_case, all
// keys always present, durations in nanoseconds).
func (e *Engine) Report() Report {
	s := e.Stats()
	tel := e.cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewSink()
	}
	amc, _ := placement.CLVReports(s.CLVStats)
	return Report{
		SchemaVersion: telemetry.SchemaVersion,
		RunStats:      s,
		Memory: placement.MemoryReport{
			PeakBytes:     e.acct.Peak(),
			CurrentBytes:  e.acct.Current(),
			PlannedBytes:  0,
			Breakdown:     e.acct.Breakdown(),
			PeakBreakdown: e.acct.PeakBreakdown(),
		},
		Telemetry: TelemetryReport{AMC: amc, Pool: &tel.Pool},
	}
}

// Report is the pplacer --stats-json document.
type Report struct {
	SchemaVersion int                    `json:"schema_version"`
	RunStats      Stats                  `json:"run_stats"`
	Memory        placement.MemoryReport `json:"memory"`
	Telemetry     TelemetryReport        `json:"telemetry"`
}

// TelemetryReport is the baseline's telemetry section: the two groups it
// fills, the precompute working set's slot manager counters and the worker
// pool (held by pointer, read when the report is marshalled).
type TelemetryReport struct {
	AMC  placement.AMCReport `json:"amc"`
	Pool *telemetry.Pool     `json:"pool"`
}

// Close releases the CLV store and the worker pool, then audits the
// end-of-run accounting: after the store's allocation is released every
// category must be at zero — a leftover balance means a Place call leaked
// its transient (queries/scores/scratch) accounting. Idempotent.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.pool.Close()
	var errs []error
	if err := e.acct.Err(); err != nil {
		errs = append(errs, err)
	}
	e.acct.Free("clv-store", e.store.Bytes())
	if err := e.acct.AssertDrained(); err != nil {
		errs = append(errs, err)
	}
	if err := e.store.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Stats returns a snapshot of the run counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.PeakBytes = e.acct.Peak()
	return s
}

// Accountant exposes the baseline's memory accounting.
func (e *Engine) Accountant() *memacct.Accountant { return e.acct }

// readDir loads a directional CLV operand; leaf tails resolve to tip codes.
func (e *Engine) readDir(d tree.Dir, clv []float64, scale []int32) (phylo.Operand, error) {
	if u := e.tr.Tail(d); u.IsLeaf() {
		return phylo.TipOperand(e.part.TipCodes(u.ID)), nil
	}
	idx := e.tr.CLVIndex(d)
	if err := e.store.Read(idx, clv, scale); err != nil {
		return phylo.Operand{}, err
	}
	e.stats.StoreReads++
	return phylo.CLVOperand(clv, scale), nil
}

// Place scores every query against every branch (no pre-scoring heuristic,
// no chunking — all queries and the full score matrix are held at once),
// then optimizes the pendant length for the best KeepCount branches per
// query.
func (e *Engine) Place(queries []placement.Query) ([]jplace.Placements, error) {
	start := time.Now()
	defer func() { e.stats.PlaceTime += time.Since(start) }()

	nq, nb := len(queries), e.tr.NumBranches()
	qBytes := placement.QueryBytes(queries)
	e.acct.Alloc("queries", qBytes)
	defer e.acct.Free("queries", qBytes)
	scoreBytes := int64(nq) * int64(nb) * 8
	e.acct.Alloc("scores", scoreBytes)
	defer e.acct.Free("scores", scoreBytes)

	scores := make([]float64, nq*nb)
	ppend := make([]float64, e.part.PLen())
	e.part.FillP(ppend, e.pendant0)

	// Branch-major full scan: one insertion CLV per branch, scored by all
	// queries (parallelized over queries).
	sc := e.part.NewScratch()
	insBytes := 3 * e.part.CLVBytes()
	e.acct.Alloc("branch-scratch", insBytes)
	defer e.acct.Free("branch-scratch", insBytes)

	for _, edge := range e.tr.Edges {
		_, _, bclv, bscale, err := e.midpoint(edge, sc)
		if err != nil {
			return nil, err
		}
		e.pool.ForEach(nq, func(qi, worker int) {
			scores[qi*nb+edge.ID] = e.part.QueryLogLikScratch(bclv, bscale, queries[qi].Codes, ppend, true, e.wscratch[worker])
		})
	}

	// Per query: optimize the best KeepCount branches, found by bounded
	// partial selection (same order a full descending sort with index
	// tie-break would give, in O(nb log keep)).
	out := make([]jplace.Placements, nq)
	for qi := 0; qi < nq; qi++ {
		row := scores[qi*nb : (qi+1)*nb]
		keep := e.cfg.KeepCount
		if keep > nb {
			keep = nb
		}
		order := numeric.TopKIndices(row, keep, e.wsel[0])
		e.wsel[0] = order
		type scored struct {
			edge *tree.Edge
			ll   float64
			pend float64
		}
		results := make([]scored, keep)
		e.pool.ForEach(keep, func(ci, worker int) {
			edge := e.tr.Edges[order[ci]]
			ll, pend := e.optimizeOn(edge, queries[qi].Codes, e.wscratch[worker], e.watt[worker])
			results[ci] = scored{edge: edge, ll: ll, pend: pend}
		})
		sort.Slice(results, func(x, y int) bool {
			if results[x].ll != results[y].ll {
				return results[x].ll > results[y].ll
			}
			return results[x].edge.ID < results[y].edge.ID
		})
		best := results[0].ll
		total := 0.0
		for _, r := range results {
			total += math.Exp(r.ll - best)
		}
		ps := jplace.Placements{Name: queries[qi].Name}
		for _, r := range results {
			ps.Placements = append(ps.Placements, jplace.Placement{
				EdgeNum:         r.edge.ID,
				LogLikelihood:   r.ll,
				LikeWeightRatio: math.Exp(r.ll-best) / total,
				DistalLength:    r.edge.Length / 2,
				PendantLength:   r.pend,
			})
		}
		out[qi] = ps
	}
	return out, nil
}

// optimizeOn re-derives a branch's midpoint CLV and optimizes the query's
// pendant length there on the worker's attachment.
func (e *Engine) optimizeOn(edge *tree.Edge, codes []uint32, sc *phylo.Scratch, att *phylo.Attachment) (loglik, pendant float64) {
	u, v, mid, midScale, err := e.midpoint(edge, sc)
	if err != nil {
		return math.Inf(-1), e.pendant0
	}
	att.Attach(codes, true, false, u, v, mid, midScale, edge.Length)
	pendant, loglik = att.BestPendant()
	return loglik, pendant
}

// midpoint reads a branch's two directional CLVs into sc.CLV(0)/CLV(1) and
// derives its midpoint CLV into sc.CLV(2). The store is read under storeMu,
// so optimization workers may call it concurrently: serialized access keeps
// the file-backed mode simple, and the re-reads are exactly the I/O cost its
// memory saving pays for.
func (e *Engine) midpoint(edge *tree.Edge, sc *phylo.Scratch) (u, v phylo.Operand, mid []float64, midScale []int32, err error) {
	uclv, uscale := sc.CLV(0)
	vclv, vscale := sc.CLV(1)
	a, b := edge.Nodes()
	e.storeMu.Lock()
	u, err = e.readDir(e.tr.DirOf(edge, a), uclv, uscale)
	if err == nil {
		v, err = e.readDir(e.tr.DirOf(edge, b), vclv, vscale)
	}
	e.storeMu.Unlock()
	if err != nil {
		return u, v, nil, nil, err
	}
	mid, midScale = sc.CLV(2)
	pu, pv := sc.P(1), sc.P(2)
	e.part.FillP(pu, edge.Length/2)
	e.part.FillP(pv, edge.Length/2)
	e.part.UpdateCLVScratch(mid, midScale, u, v, pu, pv, sc)
	return u, v, mid, midScale, nil
}
