package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"phylomem/internal/clvstore"
	"phylomem/internal/core"
	"phylomem/internal/jplace"
	"phylomem/internal/numeric"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// probeTime is how long each direct probe repeats its call.
const probeTime = 40 * time.Millisecond

// perOp calls f repeatedly for at least probeTime and returns the mean
// nanoseconds per call.
func perOp(f func()) float64 {
	f() // warm caches and lazily allocated scratch
	n, start := 0, time.Now()
	for time.Since(start) < probeTime {
		f()
		n++
	}
	return float64(time.Since(start)) / float64(n)
}

// probeLayers times layer functions directly, on the workload's own
// partition, tree and queries. A kernel is probed only when the workload's
// engine path runs it (lookup on or off, bayes, AMC, spill), so a bypassed
// layer reads 0.
func (r *run) probeLayers(in *inputs, mir *mirrorResult) error {
	sp, part, tr := r.spec, mir.part, mir.tr
	nq := len(in.ds.Queries)

	// seq: FASTA scan + state encoding, and content digests.
	qdata := fastaBytes(in.ds.Queries)
	var queries []placement.Query
	ns := perOp(func() {
		src := placement.NewFastaSource(seq.NewFastaScanner(bytes.NewReader(qdata)), sp.alphabet(), part.Comp.OriginalWidth())
		queries, _ = src.NextChunk(nq)
	})
	if len(queries) != nq {
		return fmt.Errorf("decode probe read %d of %d queries", len(queries), nq)
	}
	r.set("seq.decode_mb_s", float64(len(qdata))/1e6/(ns/1e9))
	r.set("seq.digest_ns_per_query", perOp(func() {
		for i := range queries {
			seq.DigestCodes(queries[i].Codes)
		}
	})/float64(nq))

	// jplace: encoding the run's own result document.
	var sink countWriter
	ns = perOp(func() {
		sink = 0
		_ = jplace.Write(&sink, mir.doc) // countWriter never fails
	})
	r.set("jplace.encode_mb_s", float64(sink)/1e6/(ns/1e9))
	r.set("jplace.encode_ns_per_query", ns/float64(len(mir.doc.Queries)))
	r.set("jplace.output_bytes", float64(mir.outBytes))

	// phylo: the full CLV set, then unit costs of the kernels on operands
	// taken from it. The branch with the largest subtrees on both sides is
	// used, so both operands are inner CLVs.
	start := time.Now()
	full, err := phylo.ComputeFullCLVSet(part, tr, nil)
	if err != nil {
		return err
	}
	r.set("phylo.full_clvset_ms", float64(time.Since(start))/1e6)

	edge := innermostEdge(tr)
	a, b := edge.Nodes()
	opA, opB := full.Operand(tr.DirOf(edge, a)), full.Operand(tr.DirOf(edge, b))
	sc := part.NewScratch()
	bclv, bscale := sc.CLV(0)
	pu, pv, ppend := sc.P(1), sc.P(2), sc.P(3)
	part.FillP(pu, edge.Length/2)
	part.FillP(pv, edge.Length/2)
	part.FillP(ppend, 0.05)
	r.set("phylo.update_clv_ns", perOp(func() { part.UpdateCLVScratch(bclv, bscale, opA, opB, pu, pv, sc) }))
	// Computed, not measured: two operand CLVs read and one written, plus
	// the two transition matrices; cache misses are not in it.
	r.set("phylo.update_clv_bytes", float64(3*part.CLVBytes()+2*int64(part.PLen())*8))
	r.set("phylo.fill_p_ns", perOp(func() { part.FillP(sc.P(0), 0.07) }))
	q0 := queries[0].Codes
	r.set("phylo.query_loglik_ns", perOp(func() { part.QueryLogLikScratch(bclv, bscale, q0, ppend, true, sc) }))
	if sp.bayes {
		pends, logw := pendantGrid(8)
		r.set("phylo.pendant_grid_ns", perOp(func() { part.QueryLogLikPendantGrid(bclv, bscale, q0, pends, logw, true, sc) }))
	}

	// Phase-1 block kernels, on one query tile against one branch.
	tile := min(nq, 64)
	refs := make([][]uint32, tile)
	for i := range refs {
		refs[i] = queries[i].Codes
	}
	block := make([]uint32, part.QueryBlockLen(tile))
	part.FillQueryBlock(block, refs)
	out := make([]float64, tile)
	if mir.plan.LookupEnabled {
		row := make([]float64, part.PrescoreRowLen())
		r.set("phylo.build_prescore_row_ns", perOp(func() { part.BuildPrescoreRow(row, bclv, ppend) }))
		r.set("phylo.prescore_block_ns_per_cell", perOp(func() {
			part.PrescoreQueryBlock(row, bscale, block, tile, true, out)
		})/float64(tile))
	} else {
		r.set("phylo.query_loglik_block_ns_per_cell", perOp(func() {
			part.QueryLogLikBlockScratch(bclv, bscale, block, tile, ppend, true, sc, out)
		})/float64(tile))
	}

	// numeric: candidate selection over one query's score row.
	nb := tr.NumBranches()
	scores := make([]float64, nb)
	for i := range scores {
		scores[i] = -1000 * math.Abs(math.Sin(float64(i))) // deterministic, unsorted
	}
	keep := max(2, int(math.Ceil(0.01*float64(nb))))
	var sel []int
	r.set("numeric.topk_ns_per_row", perOp(func() { sel = numeric.TopKIndices(scores, keep, sel) }))

	if mir.plan.AMC {
		return r.probeCore(mir)
	}
	return nil
}

// countWriter counts the bytes written to it.
type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) { *w += countWriter(len(p)); return len(p), nil }

// innermostEdge is the branch whose smaller side holds the most leaves.
func innermostEdge(tr *tree.Tree) *tree.Edge {
	counts := tr.SubtreeLeafCounts() // indexed by directed edge
	best, bestMin := tr.Edges[0], -1
	for _, e := range tr.Edges {
		a, b := e.Nodes()
		if m := min(counts[tr.DirOf(e, a)], counts[tr.DirOf(e, b)]); m > bestMin {
			best, bestMin = e, m
		}
	}
	return best
}

// pendantGrid is an n-node pendant-length grid with uniform log-weights,
// the shape of input the bayes path hands the grid kernel.
func pendantGrid(n int) (pends, logw []float64) {
	pends, logw = make([]float64, n), make([]float64, n)
	for i := range pends {
		pends[i] = 0.4 * (float64(i) + 0.5) / float64(n)
		logw[i] = -math.Log(float64(n))
	}
	return pends, logw
}

// timedStore decorates a clvstore.Store with per-direction byte and time
// totals — the spill tier's I/O as the slot manager drives it.
type timedStore struct {
	clvstore.Store
	recBytes           int64
	writes, reads      int
	writeTime, readDur time.Duration
}

func (s *timedStore) Write(idx int, clv []float64, scale []int32) error {
	t0 := time.Now()
	err := s.Store.Write(idx, clv, scale)
	s.writeTime += time.Since(t0)
	s.writes++
	return err
}

func (s *timedStore) Read(idx int, clv []float64, scale []int32) error {
	t0 := time.Now()
	err := s.Store.Read(idx, clv, scale)
	s.readDur += time.Since(t0)
	s.reads++
	return err
}

// probeCore drives a core.Manager directly at the workload's slot count:
// two DFS sweeps over every branch, acquiring both directional CLVs of each
// the way the engine's branch-block precompute does. With the spill tier
// on, the manager writes through a timing decorator over a real FileStore,
// and the store is also exercised in a plain write-then-read loop.
func (r *run) probeCore(mir *mirrorResult) error {
	part, tr := mir.part, mir.tr
	cfg := core.Config{Slots: mir.plan.Slots, Strategy: core.StrategyByName("costage")}
	var store *timedStore
	if r.spec.spill {
		fs, err := clvstore.NewFileStore(filepath.Join(r.workDir, "probe.spill"), tr.NumInnerCLVs(), part.CLVLen(), part.ScaleLen())
		if err != nil {
			return err
		}
		defer fs.Close()
		store = &timedStore{Store: fs, recBytes: fs.RecordBytes()}
		cfg.SpillStore = store
		cfg.SpillPolicy = core.SpillPolicyByName("hybrid")
	}
	mgr, err := core.NewManager(part, tr, cfg)
	if err != nil {
		return err
	}
	slotNeed := tr.SlotRequirements()
	acquires := 0
	start := time.Now()
	for sweep := 0; sweep < 2; sweep++ {
		for _, e := range tr.BranchOrderDFS() {
			a, b := e.Nodes()
			first, second := tr.DirOf(e, a), tr.DirOf(e, b)
			if slotNeed[second] > slotNeed[first] {
				first, second = second, first
			}
			if _, err := mgr.Acquire(first); err != nil {
				return err
			}
			if _, err := mgr.Acquire(second); err != nil {
				return err
			}
			mgr.Release(first)
			mgr.Release(second)
			acquires += 2
		}
	}
	elapsed := time.Since(start)
	st := mgr.Stats()
	if err := mgr.CheckInvariants(); err != nil {
		r.fail("core sweep: %v", err)
	}
	r.set("core.acquire_ns", float64(elapsed)/float64(acquires))
	// Sweep time net of spill I/O, per recompute: hits cost next to nothing.
	net := elapsed
	if store != nil {
		net -= store.writeTime + store.readDur
	}
	r.set("core.recompute_ns", ratio(float64(net), float64(st.Recomputes)))

	if store == nil {
		return nil
	}
	// Direct loop: every record written once, then read back once.
	clv, scale := make([]float64, part.CLVLen()), make([]int32, part.ScaleLen())
	direct := &timedStore{Store: store.Store, recBytes: store.recBytes}
	for i := 0; i < tr.NumInnerCLVs(); i++ {
		if err := direct.Write(i, clv, scale); err != nil {
			return err
		}
	}
	for i := 0; i < tr.NumInnerCLVs(); i++ {
		if err := direct.Read(i, clv, scale); err != nil {
			return err
		}
	}
	mbs := func(n int, d time.Duration) float64 {
		return ratio(float64(int64(n)*store.recBytes)/1e6, d.Seconds())
	}
	r.set("clvstore.write_mb_s", mbs(store.writes+direct.writes, store.writeTime+direct.writeTime))
	r.set("clvstore.read_mb_s", mbs(store.reads+direct.reads, store.readDur+direct.readDur))
	r.set("clvstore.record_bytes", float64(store.recBytes))
	return nil
}
