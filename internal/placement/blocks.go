package placement

import (
	"context"
	"fmt"
	"sync"
	"time"

	"phylomem/internal/memacct"
	"phylomem/internal/phylo"
	"phylomem/internal/tree"
)

// branchEntry is one branch's precomputed data within a block: shared (tips)
// or copied (inner) directional operands for distal-position optimization,
// plus the midpoint insertion CLV used for scoring.
type branchEntry struct {
	edge *tree.Edge
	u, v operandCopy
	m    []float64
	ms   []int32
}

// operandCopy is a snapshot of a directional CLV that stays valid while the
// slot manager recomputes other CLVs for the next block. Tip operands are
// shared (tip codes are immutable); inner CLVs are copied into the block's
// buffer.
type operandCopy struct {
	tip   []uint32
	clv   []float64
	scale []int32
}

// branchBlock is one unit of the precompute pipeline.
type branchBlock struct {
	entries []branchEntry
	err     error

	// Backing storage, reused across refills.
	clvBuf   []float64
	scaleBuf []int32

	// Per-block kernel scratch and transition-matrix buffers, reused across
	// refills so fillBlock is allocation-free. Owned by whichever goroutine
	// currently holds the block (the precompute pipeline never shares one).
	sc     *phylo.Scratch
	pu, pv []float64
}

// blockBuf returns the engine's i'th block buffer (i in {0, 1}), allocating
// backing storage for up to blockSize branches on first use. The two buffers
// are reused across every runBlocks call and the AMC lookup build, so block
// storage is allocated at most twice per engine lifetime.
func (e *Engine) blockBuf(i int) *branchBlock {
	if e.blkBufs[i] == nil {
		bs := e.plan.BlockSize
		per := memacct.CLVsPerBufferedBranch
		sc := e.part.NewScratch()
		e.blkBufs[i] = &branchBlock{
			clvBuf:   make([]float64, bs*per*e.part.CLVLen()),
			scaleBuf: make([]int32, bs*per*e.part.ScaleLen()),
			sc:       sc,
			pu:       sc.P(0),
			pv:       sc.P(1),
		}
	}
	return e.blkBufs[i]
}

// fillBlock populates blk with the given branches' CLV data, recomputing
// directional CLVs through the engine's CLV source.
func (e *Engine) fillBlock(blk *branchBlock, edges []*tree.Edge) {
	start := time.Now()
	defer func() { e.stats.Precompute += time.Since(start) }()
	blk.err = nil
	blk.entries = blk.entries[:0]
	cl, sl := e.part.CLVLen(), e.part.ScaleLen()
	pu, pv := blk.pu, blk.pv
	for i, edge := range edges {
		opA, opB, release, err := e.acquireBranchEnds(edge)
		if err != nil {
			blk.err = fmt.Errorf("placement: block precompute: %w", err)
			return
		}
		entry := branchEntry{edge: edge}
		base := i * memacct.CLVsPerBufferedBranch
		entry.u = e.snapshotOperand(opA, blk.clvBuf[(base+0)*cl:(base+1)*cl], blk.scaleBuf[(base+0)*sl:(base+1)*sl])
		entry.v = e.snapshotOperand(opB, blk.clvBuf[(base+1)*cl:(base+2)*cl], blk.scaleBuf[(base+1)*sl:(base+2)*sl])
		entry.m = blk.clvBuf[(base+2)*cl : (base+3)*cl]
		entry.ms = blk.scaleBuf[(base+2)*sl : (base+3)*sl]
		e.part.FillP(pu, edge.Length/2)
		e.part.FillP(pv, edge.Length/2)
		e.part.UpdateCLVPooled(entry.m, entry.ms, opA, opB, pu, pv, e.sitePool(), blk.sc)
		release()
		blk.entries = append(blk.entries, entry)
	}
}

// fillBlockEnds is fillBlock's lighter sibling for the AMC lookup build: it
// snapshots only the two directional operands of each branch (no midpoint
// CLV), acquiring through the slot manager serially so the parallel row
// builds afterwards never touch the manager.
func (e *Engine) fillBlockEnds(blk *branchBlock, edges []*tree.Edge) error {
	blk.entries = blk.entries[:0]
	cl, sl := e.part.CLVLen(), e.part.ScaleLen()
	for i, edge := range edges {
		opA, opB, release, err := e.acquireBranchEnds(edge)
		if err != nil {
			return fmt.Errorf("placement: lookup build: %w", err)
		}
		entry := branchEntry{edge: edge}
		base := i * memacct.CLVsPerBufferedBranch
		entry.u = e.snapshotOperand(opA, blk.clvBuf[(base+0)*cl:(base+1)*cl], blk.scaleBuf[(base+0)*sl:(base+1)*sl])
		entry.v = e.snapshotOperand(opB, blk.clvBuf[(base+1)*cl:(base+2)*cl], blk.scaleBuf[(base+1)*sl:(base+2)*sl])
		release()
		blk.entries = append(blk.entries, entry)
	}
	return nil
}

// snapshotOperand copies an inner CLV into block storage, or passes tip
// codes through unchanged.
func (e *Engine) snapshotOperand(op phylo.Operand, clvDst []float64, scaleDst []int32) operandCopy {
	if op.IsTip() {
		return operandCopy{tip: op.Tip}
	}
	copy(clvDst, op.CLV)
	copy(scaleDst, op.Scale)
	return operandCopy{clv: clvDst, scale: scaleDst}
}

// runBlocks partitions edges into blocks and runs handler on each. With AMC
// and asynchronous precompute (the default), a dedicated goroutine prepares
// the next block while the handler places queries on the current one, using
// two rotating buffers — the paper's adapted parallelization. Otherwise
// blocks are filled synchronously (the Fig. 7 experimental scheme, where the
// across-site parallel kernel uses all threads during the fill instead).
// Cancellation is checked between blocks; an in-flight block fill always
// completes, so the precompute goroutine never abandons pinned slots.
//
// edges must be a subsequence of e.branchOrder: under AMC the whole list is
// declared to the slot manager as the upcoming sweep, so replacement keeps
// the CLVs the remaining branches need (core.Manager.BeginSweep).
func (e *Engine) runBlocks(ctx context.Context, edges []*tree.Edge, handler func(*branchBlock) error) error {
	if len(edges) == 0 {
		return nil
	}
	if e.mgr != nil {
		e.mgr.BeginSweep(edges)
		defer e.mgr.EndSweep()
	}
	bs := e.plan.BlockSize
	var blocks [][]*tree.Edge
	for off := 0; off < len(edges); off += bs {
		end := off + bs
		if end > len(edges) {
			end = len(edges)
		}
		blocks = append(blocks, edges[off:end])
	}

	async := e.plan.AMC && !e.cfg.SyncPrecompute
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
