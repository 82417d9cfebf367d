package placement

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"phylomem/internal/jplace"
	"phylomem/internal/numeric"
	"phylomem/internal/phylo"
)

// Result is the outcome of placing a set of queries.
type Result struct {
	Queries []jplace.Placements
}

// Place runs two-phase placement for all queries, processing them in chunks
// of Config.ChunkSize: phase 1 pre-scores every query against every branch
// (via the lookup table when it fits, otherwise by full likelihood
// computations over branch blocks); phase 2 re-scores the best candidate
// branches per query with pendant and distal branch-length optimization.
// Results are deterministic and independent of the memory mode, thread
// count, and replacement strategy.
func (e *Engine) Place(queries []Query) (*Result, error) {
	qs, err := e.PlaceBatch(context.Background(), queries)
	if err != nil {
		return nil, err
	}
	return &Result{Queries: qs}, nil
}

// candidate is one (query, branch) pair surviving pre-placement. postLL is
// the posterior marginal from the integration path; it stays -Inf in ML mode.
type candidate struct {
	query  int // index within chunk
	edgeID int
	loglik float64
	distal float64
	pend   float64
	postLL float64
}

// placeChunk is the single choke point of every placement path: PlaceStream's
// chunk loop, which Place, PlaceBatch and the server's Batcher flushes run.
// It validates the chunk, accounts its resident query bytes, groups the
// queries by encoded sequence content, places one representative per
// distinct sequence via placeDistinct, and fans the scored results back out
// in the chunk's original order. Because
// placement is a pure deterministic function of a query's codes, the
// fanned-out output is byte-identical to placing every duplicate
// individually; only the work (and the per-chunk score-matrix footprint,
// accounted under "chunk-scores" for representatives only) shrinks.
func (e *Engine) placeChunk(ctx context.Context, chunk []Query) ([]jplace.Placements, error) {
	for _, q := range chunk {
		if len(q.Codes) != e.part.Comp.OriginalWidth() {
			return nil, fmt.Errorf("placement: query %q has %d sites, want %d",
				q.Name, len(q.Codes), e.part.Comp.OriginalWidth())
		}
	}
	// The full chunk is resident regardless of dedup — duplicates still hold
	// their code slices until fan-out — so query bytes are accounted here,
	// for the whole chunk, not per representative.
	qBytes := QueryBytes(chunk)
	e.acct.Alloc("chunk-queries", qBytes)
	defer e.acct.Free("chunk-queries", qBytes)

	reps, owner := groupByContent(chunk)
	e.stats.QueriesDistinct += len(reps)
	e.stats.QueriesDeduped += len(chunk) - len(reps)
	distinct := chunk
	if len(reps) < len(chunk) {
		distinct = make([]Query, len(reps))
		for i, qi := range reps {
			distinct[i] = chunk[qi]
		}
	}
	out, err := e.placeDistinct(ctx, distinct)
	if err != nil {
		return nil, err
	}
	if len(reps) < len(chunk) {
		res := out
		out = make([]jplace.Placements, len(chunk))
		for qi := range chunk {
			// Duplicates share the representative's placement slice (and
			// EDPL value): both are read-only from here on (serialization,
			// nm grouping), and EDPL is a pure function of the shared
			// placements.
			out[qi] = jplace.Placements{Name: chunk[qi].Name, Placements: res[owner[qi]].Placements, EDPL: res[owner[qi]].EDPL}
		}
	}
	e.foldEDPL(out)
	return out, nil
}

// placeDistinct runs the two placement phases over a chunk whose queries are
// assumed distinct.
func (e *Engine) placeDistinct(ctx context.Context, chunk []Query) ([]jplace.Placements, error) {
	nq := len(chunk)
	nb := e.tr.NumBranches()
	scores, releaseScores, err := e.chunkScores(nq * nb)
	if err != nil {
		return nil, err
	}
	defer releaseScores()

	start := time.Now()
	if err := e.prescore(ctx, chunk, scores); err != nil {
		return nil, err
	}
	e.stats.Phase1 += time.Since(start)

	// Candidate selection, as in EPA-NG's pre-placement heuristic: per
	// query, branches are kept best-first until their accumulated
	// likelihood-weight ratio (computed from the pre-scores) reaches the
	// threshold; keepFraction bounds the candidate count from above. For
	// well-resolved queries this keeps only a handful of branches, which is
	// what makes phase 2 cheap ("each QS only gets matched against a small
	// set of promising branches", Section II).
	keepMax := int(math.Ceil(e.keepFraction * float64(nb)))
	if keepMax < 2 {
		keepMax = 2
	}
	if keepMax > nb {
		keepMax = nb
	}
	// Only the keepMax best branches per query can ever become candidates,
	// so a bounded partial selection (min-heap of size keepMax over the row,
	// O(nb·log keepMax)) replaces the former full sort of all nb branches.
	// The selection buffer is per-worker scratch — no per-query allocation.
	// The LWR normalizer sums over all branches in ascending index order,
	// which is a fixed order independent of the worker count. Candidates land
	// in the engine-held arena indexed by (query, rank): workers write
	// disjoint per-query stripes, so the fill is race-free, and the struct is
	// pointer-free, so phase 2's fan-out adds no GC scan work.
	e.ensureCandBufs(nq, keepMax, nb)
	arena := e.arena[:nq*keepMax]
	counts := e.candCount[:nq]
	e.pool.ForEach(nq, func(qi, worker int) {
		row := scores[qi*nb : (qi+1)*nb]
		sel := numeric.TopKIndices(row, keepMax, e.wsel[worker])
		e.wsel[worker] = sel
		best := row[sel[0]]
		total := 0.0
		for b := 0; b < nb; b++ {
			total += math.Exp(row[b] - best)
		}
		stripe := arena[qi*keepMax:]
		ncand := 0
		acc := 0.0
		for _, b := range sel {
			stripe[ncand] = candidate{query: qi, edgeID: b, loglik: math.Inf(-1), postLL: math.Inf(-1)}
			ncand++
			acc += math.Exp(row[b]-best) / total
			if ncand >= 2 && acc >= e.prescoreThreshold {
				break
			}
		}
		counts[qi] = int32(ncand)
	})
	// Group candidates by branch with a serial counting sort over the arena,
	// in query order: phase 2's work list is deterministic and the per-branch
	// groups are contiguous ranges of candIdx instead of per-branch slices.
	branchStart := e.branchStart[:nb+1]
	for i := range branchStart {
		branchStart[i] = 0
	}
	for qi := 0; qi < nq; qi++ {
		stripe := arena[qi*keepMax : qi*keepMax+int(counts[qi])]
		for i := range stripe {
			branchStart[stripe[i].edgeID+1]++
		}
	}
	for b := 0; b < nb; b++ {
		branchStart[b+1] += branchStart[b]
	}
	cursor := e.candCursor[:nb]
	copy(cursor, branchStart[:nb])
	candIdx := e.candIdx[:branchStart[nb]]
	for qi := 0; qi < nq; qi++ {
		base := qi * keepMax
		for i := 0; i < int(counts[qi]); i++ {
			b := arena[base+i].edgeID
			candIdx[cursor[b]] = int32(base + i)
			cursor[b]++
		}
	}

	// Phase 2: thorough scoring of candidates, grouped into branch blocks in
	// DFS order for slot locality.
	start = time.Now()
	candEdges := e.candEdges[:0]
	for _, edge := range e.branchOrder {
		if branchStart[edge.ID+1] > branchStart[edge.ID] {
			candEdges = append(candEdges, edge)
		}
	}
	e.candEdges = candEdges
	err = e.runBlocks(ctx, candEdges, func(blk *branchBlock) error {
		// Flatten the block's tasks for even worker distribution; the task
		// list is engine-held and reused across blocks and chunks.
		tasks := e.p2tasks[:0]
		for i := range blk.entries {
			ent := &blk.entries[i]
			id := ent.edge.ID
			for _, ci := range candIdx[branchStart[id]:branchStart[id+1]] {
				tasks = append(tasks, phase2Task{ent: ent, cand: ci})
			}
		}
		e.p2tasks = tasks
		e.pool.ForEach(len(tasks), func(ti, worker int) {
			t := tasks[ti]
			c := &arena[t.cand]
			e.scoreCandidate(t.ent, chunk[c.query].Codes, c, e.watt[worker])
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.stats.Phase2 += time.Since(start)
	e.foldPhase2Counts()

	if e.cfg.bayes() {
		e.stats.CandidatesIntegrated += int(branchStart[nb])
	}

	// Likelihood weight ratios (or posterior probabilities) and output
	// filtering per query.
	out := make([]jplace.Placements, nq)
	e.pool.ForEach(nq, func(qi, _ int) {
		out[qi] = e.filterPlacements(chunk[qi].Name, arena[qi*keepMax:qi*keepMax+int(counts[qi])])
	})
	if e.cfg.EDPL {
		e.computeEDPL(out)
	}
	return out, nil
}

// foldPhase2Counts adds the work the workers' attachments counted over the
// chunk to the run statistics.
func (e *Engine) foldPhase2Counts() {
	for _, att := range e.watt {
		c := att.TakeCounts()
		e.stats.Phase2Evals += c.Evals
		e.stats.Phase2CLVUpdates += c.CLVUpdates
		e.stats.Phase2PatternsUpdated += c.PatternsUpdated
		e.stats.Phase2Runs += c.Runs
		// What the same updates would have computed at full width.
		e.stats.Phase2PatternsFull += c.CLVUpdates * int64(e.part.NumPatterns())
	}
}

// scoreCandidate optimizes the placement of one query on one branch through
// the worker's premasked attachment: the pendant length first, then the
// insertion point with the pendant fixed, and the pendant once more at the
// better position. Allocation-free after warm-up.
func (e *Engine) scoreCandidate(ent *branchEntry, codes []uint32, c *candidate, att *phylo.Attachment) {
	blen := ent.edge.Length
	att.Attach(codes, premask, e.fullWidthRuns, ent.u, ent.v, ent.m, ent.ms, blen)
	pend, ll := att.BestPendant()
	distal := blen / 2
	if blen > 1e-9 {
		x, llx := att.BestDistal(pend)
		if llx > ll {
			distal = x
			att.MoveTo(x)
			pend2, ll2 := att.BestPendant()
			if ll2 > llx {
				pend, ll = pend2, ll2
			} else {
				ll = llx
			}
		}
	}
	c.loglik, c.distal, c.pend = ll, distal, pend
	if e.cfg.bayes() {
		// The posterior marginal on the same attachment (bayes.go); both
		// scores are reported, as pplacer keeps the ML branch lengths
		// alongside post_prob.
		start := time.Now()
		var evals int
		c.postLL, evals = att.Marginal(e.bayesPend, e.bayesLogW, e.glX, e.glW)
		e.scor.CandidateIntegrated(evals, time.Since(start))
	}
}

// filterPlacements converts a query's scored candidates (its arena stripe,
// sorted in place — phase 2 is done with it) into the reported placement
// list. The stripe is ranked by posterior marginal, then likelihood, then
// edge; every postLL is -Inf in ML mode, so ML ranks by likelihood. Each
// placement carries its likelihood weight ratio over the stripe and, in bayes
// mode, its post_prob: the normalized posterior mass (both scores are
// reported, as in pplacer's jplace output). The list is cut off once the
// accumulated mass of the ranking score (post_prob in bayes mode, LWR
// otherwise) reaches the threshold, or at the maximum count.
func (e *Engine) filterPlacements(name string, cands []candidate) jplace.Placements {
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].postLL != cands[b].postLL {
			return cands[a].postLL > cands[b].postLL
		}
		if cands[a].loglik != cands[b].loglik {
			return cands[a].loglik > cands[b].loglik
		}
		return cands[a].edgeID < cands[b].edgeID
	})
	bayes := e.cfg.bayes()
	bestP, bestL := cands[0].postLL, math.Inf(-1)
	for _, c := range cands {
		if c.loglik > bestL {
			bestL = c.loglik
		}
	}
	totalP, totalL := 0.0, 0.0
	for _, c := range cands {
		totalL += math.Exp(c.loglik - bestL)
		if bayes {
			totalP += math.Exp(c.postLL - bestP)
		}
	}
	out := jplace.Placements{Name: name}
	acc := 0.0
	for _, c := range cands {
		p := jplace.Placement{
			EdgeNum:         c.edgeID,
			LogLikelihood:   c.loglik,
			LikeWeightRatio: math.Exp(c.loglik-bestL) / totalL,
			DistalLength:    c.distal,
			PendantLength:   c.pend,
		}
		mass := p.LikeWeightRatio
		if bayes {
			p.PostProb = math.Exp(c.postLL-bestP) / totalP
			mass = p.PostProb
		}
		out.Placements = append(out.Placements, p)
		acc += mass
		if acc >= e.filterAccThreshold || len(out.Placements) >= e.filterMax {
			break
		}
	}
	return out
}

// prescore is phase 1, pre-placement: it fills scores (query-major, one row
// of NumBranches per query) with every query's prescore on every branch.
//
// It first encodes every query tile of the chunk as a covered-site index
// (buildTiles), then walks the (query × branch) score matrix in query-tile ×
// branch-tile blocks, branch-tile-outer: within one task, each branch's
// prescore row streams through the cache exactly once while the tile's index
// and accumulators stay resident — instead of re-streaming every row from
// DRAM once per query. The row is the lookup table's when there is one,
// whose entries the chunk reads are first made log terms (convertLookup);
// otherwise the task builds it from the branch's midpoint CLV, over the
// patterns the tile covers only (phylo.TilePrescoreRow), with the formula the
// table was built with, and the kernel takes the same terms inline. Either way
// one task body scores it, so every cell is bit-identical across tile sizes,
// thread counts and memory modes, with or without the table.
func (e *Engine) prescore(ctx context.Context, chunk []Query, scores []float64) error {
	nq, nb := len(chunk), e.tr.NumBranches()
	tq := min(e.tileQ, nq)
	tiles := e.buildTiles(chunk, tq)
	nqt := len(tiles)
	// scoreTile is the one task body: it scores query tile qt against
	// branches [lo, hi), where row(i, tile, sc) names the i'th branch's ID and
	// its prescore row and scale counters (nil for a term row). branchBytes is
	// the branch-side data one branch streams through the tile.
	type rowFunc func(i int, tile []uint32, sc *phylo.Scratch) (int, []float64, []int32)
	scoreTile := func(qt, worker, lo, hi int, branchBytes int64, row rowFunc) {
		qlo := qt * tq
		n := min(tq, nq-qlo)
		tile := tiles[qt]
		sc := e.wscratch[worker]
		out := sc.BlockOut(n)
		for i := lo; i < hi; i++ {
			id, r, s := row(i, tile, sc)
			e.part.PrescoreQueryBlock(r, s, tile, n, premask, out)
			for j := 0; j < n; j++ {
				scores[(qlo+j)*nb+id] = out[j]
			}
		}
		e.ktel.TileDone(hi-lo, int64(len(tile))*4+int64(n)*8+branchBytes)
	}
	if e.lookup != nil {
		e.convertLookup(tiles)
		tb := min(e.tileB, nb)
		nbt := (nb + tb - 1) / tb
		rowBytes := int64(e.part.PrescoreRowLen()) * 8
		lookupRow := func(b int, _ []uint32, _ *phylo.Scratch) (int, []float64, []int32) {
			r, _ := e.lookupRow(b)
			return b, r, nil
		}
		// Task index order is branch-tile-major: consecutive tasks share a
		// branch tile, so workers running neighboring tasks stream the same
		// lookup rows through the shared cache.
		return e.pool.ForEachContext(ctx, nbt*nqt, func(ti, worker int) {
			bt, qt := ti/nqt, ti%nqt
			scoreTile(qt, worker, bt*tb, min((bt+1)*tb, nb), rowBytes, lookupRow)
		})
	}
	clvBytes := int64(e.part.CLVLen()) * 8
	// The branch tile IS the precomputed block here (runBlocks partitions by
	// plan.BlockSize), so the CLV block of the current tile is the only
	// branch-side data the query tiles stream.
	return e.runBlocks(ctx, e.branchOrder, func(blk *branchBlock) error {
		blockRow := func(i int, tile []uint32, sc *phylo.Scratch) (int, []float64, []int32) {
			ent := &blk.entries[i]
			return ent.edge.ID, e.part.TilePrescoreRow(ent.m, e.ppend0, tile, sc), ent.ms
		}
		e.pool.ForEach(nqt, func(qt, worker int) {
			scoreTile(qt, worker, 0, len(blk.entries), clvBytes, blockRow)
		})
		return nil
	})
}
