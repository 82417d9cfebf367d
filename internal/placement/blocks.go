package placement

import (
	"context"
	"fmt"
	"sync"
	"time"

	"phylomem/internal/memacct"
	"phylomem/internal/parallel"
	"phylomem/internal/phylo"
	"phylomem/internal/tree"
)

// branchEntry is one branch's precomputed data within a block: the two
// directional operands for distal-position optimization, plus the midpoint
// insertion CLV used for scoring. The operands stay valid while the block is
// in use: tip codes are shared (immutable); while the slot pool is filled
// (core.Manager.Filled) an inner CLV is its slot itself, which nothing
// rewrites; otherwise it is a snapshot in the block's buffer, because the
// slot manager recomputes other CLVs into its slot for the next block.
type branchEntry struct {
	edge *tree.Edge
	u, v phylo.Operand
	m    []float64
	ms   []int32
}

// branchBlock is one unit of the precompute pipeline.
type branchBlock struct {
	entries []branchEntry
	err     error

	// Backing storage, reused across refills.
	clvBuf   []float64
	scaleBuf []int32

	// Kernel scratch of the serial midpoint derivation (nil on a filled pool,
	// whose midpoints are derived on the pool workers' scratches), reused
	// across refills so fillBlock is allocation-free. Owned by whichever
	// goroutine currently holds the block (the pipeline never shares one).
	sc *phylo.Scratch
}

// blockBuf returns the engine's i'th block buffer (i in {0, 1}), allocating
// backing storage for up to blockSize branches on first use: the midpoint of
// each branch, plus its two operand snapshots unless the pool is filled. The
// two buffers are reused across every runBlocks call and the lookup build.
func (e *Engine) blockBuf(i int) *branchBlock {
	if e.blkBufs[i] == nil {
		blk := &branchBlock{}
		per := 1
		if !e.mgr.Filled() {
			per = memacct.CLVsPerBufferedBranch
			blk.sc = e.part.NewScratch()
		}
		blk.clvBuf = make([]float64, e.plan.BlockSize*per*e.part.CLVLen())
		blk.scaleBuf = make([]int32, e.plan.BlockSize*per*e.part.ScaleLen())
		e.blkBufs[i] = blk
	}
	return e.blkBufs[i]
}

// fillBlock populates blk with the given branches' end operands
// (fillBlockEnds) and derives their midpoint CLVs: while the pool is filled
// across the pool, each on its worker's own scratch; otherwise serially,
// through the across-site kernel under SyncPrecompute with several threads.
// Both forms are bit-identical.
func (e *Engine) fillBlock(blk *branchBlock, edges []*tree.Edge) {
	start := time.Now()
	defer func() { e.stats.Precompute += time.Since(start) }()
	if err := e.fillBlockEnds(blk, edges); err != nil {
		blk.err = fmt.Errorf("placement: block precompute: %w", err)
		return
	}
	blk.err = nil
	if e.mgr.Filled() {
		e.pool.ForEach(len(blk.entries), func(i, worker int) {
			e.deriveMidpoint(&blk.entries[i], nil, e.wscratch[worker])
		})
		return
	}
	for i := range blk.entries {
		e.deriveMidpoint(&blk.entries[i], e.sitePool(), blk.sc)
	}
}

// fillBlockEnds points blk's entries at the given branches' two directional
// operands and at their midpoint slots in the block buffer, without deriving
// the midpoints. They are acquired through the slot manager serially, so
// parallel work on the block never touches the manager, and snapshotted
// unless the pool is filled: then they alias slots that nothing rewrites
// before Resize or Demote, which wait for the run lock.
func (e *Engine) fillBlockEnds(blk *branchBlock, edges []*tree.Edge) error {
	blk.entries = blk.entries[:0]
	cl, sl := e.part.CLVLen(), e.part.ScaleLen()
	per := 1
	if blk.sc != nil { // the block holds snapshots
		per = memacct.CLVsPerBufferedBranch
	}
	for i, edge := range edges {
		base, mid := i*per, (i+1)*per-1
		ent := branchEntry{edge: edge, m: blk.clvBuf[mid*cl : (mid+1)*cl], ms: blk.scaleBuf[mid*sl : (mid+1)*sl]}
		opA, opB, release, err := e.acquireBranchEnds(edge)
		if err != nil {
			return err
		}
		ent.u, ent.v = opA, opB
		if per > 1 {
			ent.u = e.snapshotOperand(opA, blk.clvBuf[base*cl:(base+1)*cl], blk.scaleBuf[base*sl:(base+1)*sl])
			ent.v = e.snapshotOperand(opB, blk.clvBuf[(base+1)*cl:(base+2)*cl], blk.scaleBuf[(base+1)*sl:(base+2)*sl])
		}
		release()
		blk.entries = append(blk.entries, ent)
	}
	return nil
}

// deriveMidpoint computes ent's midpoint CLV from its end operands on sc,
// fanned out over pool's workers across sites when pool is non-nil.
func (e *Engine) deriveMidpoint(ent *branchEntry, pool *parallel.Pool, sc *phylo.Scratch) {
	pu, pv := sc.P(0), sc.P(1)
	e.part.FillP(pu, ent.edge.Length/2)
	e.part.FillP(pv, ent.edge.Length/2)
	e.part.UpdateCLVPooled(ent.m, ent.ms, ent.u, ent.v, pu, pv, pool, sc)
}

// snapshotOperand copies an inner CLV into block storage, or passes tip
// codes through unchanged.
func (e *Engine) snapshotOperand(op phylo.Operand, clvDst []float64, scaleDst []int32) phylo.Operand {
	if op.IsTip() {
		return op
	}
	copy(clvDst, op.CLV)
	copy(scaleDst, op.Scale)
	return phylo.CLVOperand(clvDst, scaleDst)
}

// runBlocks partitions edges into blocks and runs handler on each. Unless the
// pool is filled or SyncPrecompute is set, a dedicated goroutine prepares the
// next block while the handler places queries on the current one, using two
// rotating buffers — the paper's adapted parallelization. Otherwise blocks
// are filled synchronously (under SyncPrecompute the Fig. 7 experimental
// scheme, where the across-site parallel kernel uses all threads instead).
// Cancellation is checked between blocks; an in-flight block fill always
// completes, so the precompute goroutine never abandons pinned slots.
//
// edges must be a subsequence of e.branchOrder: the whole list is declared
// to the slot manager as the upcoming sweep, so replacement keeps
// the CLVs the remaining branches need (core.Manager.BeginSweep).
func (e *Engine) runBlocks(ctx context.Context, edges []*tree.Edge, handler func(*branchBlock) error) error {
	if len(edges) == 0 {
		return nil
	}
	e.mgr.BeginSweep(edges)
	defer e.mgr.EndSweep()
	bs := e.plan.BlockSize
	var blocks [][]*tree.Edge
	for off := 0; off < len(edges); off += bs {
		blocks = append(blocks, edges[off:min(off+bs, len(edges))])
	}

	async := !e.mgr.Filled() && !e.cfg.SyncPrecompute
	if !async {
		blk := e.blockBuf(0)
		for _, b := range blocks {
			if err := ctx.Err(); err != nil {
				return err
			}
			e.fillBlock(blk, b)
			if blk.err != nil {
				return blk.err
			}
			if err := handler(blk); err != nil {
				return err
			}
		}
		return nil
	}

	// Asynchronous double-buffered pipeline.
	free := make(chan *branchBlock, 2)
	free <- e.blockBuf(0)
	free <- e.blockBuf(1)
	out := make(chan *branchBlock)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(out)
		for _, b := range blocks {
			blk, ok := <-free
			if !ok {
				return // consumer aborted
			}
			e.fillBlock(blk, b)
			failed := blk.err != nil
			out <- blk
			if failed {
				return
			}
		}
	}()
	var firstErr error
	for blk := range out {
		if firstErr == nil {
			if err := ctx.Err(); err != nil {
				firstErr = err
			} else if blk.err != nil {
				firstErr = blk.err
			} else if err := handler(blk); err != nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			close(free)
			// Drain remaining blocks so the producer can exit.
			for range out {
			}
			break
		}
		free <- blk
	}
	wg.Wait()
	return firstErr
}
