package placement

import (
	"phylomem/internal/memacct"
	"phylomem/internal/phylo"
)

// tileCacheBytes is the per-core cache working set the automatic tile sizes
// aim for: roughly an L2's worth. A query tile's resident footprint — its
// covered-site index plus the per-query accumulators — is held to half of
// this, leaving the other half for the branch-side data streaming through
// the tile (one prescore row or branch CLV at a time).
const tileCacheBytes = 1 << 20

// tileQueriesMin/Max clamp the automatic query-tile size: below ~8 queries
// per tile the row-reuse win fades into loop overhead, above a few hundred
// the tiles get too coarse to load-balance across workers.
const (
	tileQueriesMin = 8
	tileQueriesMax = 256
)

// chooseTiles resolves the phase-1 tile dimensions from the alignment width
// and the memory plan. The branch tile is the plan's block size, so
// lookup-path tiles stay coherent with the AMC precompute blocks (under AMC
// the branch tile IS the precomputed block).
func chooseTiles(part *phylo.Partition, plan memacct.Plan) (tileQ, tileB int) {
	width := part.Comp.OriginalWidth()
	// One word per cell plus the per-query output accumulator: what a tile's
	// index comes to on gap-free queries (a member word per cell; the group
	// words amortize over the tile), and an upper estimate on reads, whose gap
	// cells the index omits. The kernels keep one float64 per query; the
	// estimate budgets three, the figure every recorded tile size, benchmark
	// and matrix.golden's block-kernel call count was taken at.
	perQuery := width*4 + 3*8
	tileQ = tileCacheBytes / 2 / perQuery
	if tileQ < tileQueriesMin {
		tileQ = tileQueriesMin
	}
	if tileQ > tileQueriesMax {
		tileQ = tileQueriesMax
	}
	return tileQ, plan.BlockSize
}

// chunkScores returns the engine-held phase-1 score matrix with at least n
// values. The buffer itself persists across chunks (no per-chunk make), but
// its accounting stays per-chunk transient — n×8 bytes allocated here and
// released by the returned func when the chunk's phases are done — so the
// accounted footprint sequence is exactly the former per-chunk allocation's.
// Returns the accountant's sticky error so a detected overcommit aborts the
// chunk before the expensive phases.
func (e *Engine) chunkScores(n int) ([]float64, func(), error) {
	if cap(e.scores) < n {
		e.scores = make([]float64, n)
	}
	bytes := int64(n) * 8
	e.acct.Alloc("chunk-scores", bytes)
	release := func() { e.acct.Free("chunk-scores", bytes) }
	if err := e.acct.Err(); err != nil {
		release()
		return nil, nil, err
	}
	return e.scores[:n], release, nil
}

// ensureCandBufs sizes the candidate arena and its flat per-branch index for
// a chunk of nq queries keeping at most keepMax candidates each, over nb
// branches. All buffers are engine-held and pointer-free, so the GC scans
// none of them.
func (e *Engine) ensureCandBufs(nq, keepMax, nb int) {
	if n := nq * keepMax; cap(e.arena) < n {
		e.arena = make([]candidate, n)
		e.candIdx = make([]int32, n)
	}
	if cap(e.candCount) < nq {
		e.candCount = make([]int32, nq)
	}
	if cap(e.branchStart) < nb+1 {
		e.branchStart = make([]int32, nb+1)
		e.candCursor = make([]int32, nb)
	}
}

// phase2Task is one (branch entry, candidate) pair of a phase-2 block's
// flattened work list; cand indexes the chunk's candidate arena.
type phase2Task struct {
	ent  *branchEntry
	cand int32
}

// buildTiles encodes the chunk's query tiles of tq queries as covered-site
// indexes (phylo.AppendQueryTile) across the pool and returns them. The
// engine owns the words: they live in per-tile buffers reused across chunks,
// and from here to the end of phase 1 every worker and every branch tile
// reads them and nothing writes them.
func (e *Engine) buildTiles(chunk []Query, tq int) [][]uint32 {
	nqt := (len(chunk) + tq - 1) / tq
	for len(e.tiles) < nqt {
		e.tiles = append(e.tiles, nil)
	}
	e.pool.ForEach(nqt, func(qt, worker int) { e.buildTile(chunk, tq, qt, worker) })
	return e.tiles[:nqt]
}

// buildTile encodes chunk[qt·tq : (qt+1)·tq] into the qt'th tile buffer.
func (e *Engine) buildTile(chunk []Query, tq, qt, worker int) {
	refs := e.wrefs[worker][:0]
	for _, q := range chunk[qt*tq : min((qt+1)*tq, len(chunk))] {
		refs = append(refs, q.Codes)
	}
	e.wrefs[worker] = refs
	e.tiles[qt] = e.part.AppendQueryTile(e.tiles[qt][:0], refs, premask)
}
