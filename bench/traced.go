package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"phylomem/internal/analyze"
	"phylomem/internal/core"
	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/mlfit"
	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// tracedPass produces the per-layer metrics of one workload. Nothing inside
// the programs is instrumented: the numbers come from spans the harness
// records around public calls of an in-process mirror of epang's call
// sequence, from the counters Engine.Stats already exposes, from placed's
// /metrics, and from direct timed probes of layer functions on the
// workload's own partition and queries. Every per-layer name is reported on
// every workload; a layer the workload bypasses reads 0, and the bypass
// predictions are asserted.
func (r *run) tracedPass(in *inputs) error {
	for _, n := range perLayerNames {
		r.set(n, 0)
	}
	var err error
	if r.spec.serve {
		err = r.tracedServe(in)
	} else {
		err = r.tracedBatch(in)
	}
	r.set("harness.fail_share", ratio(float64(r.failed), float64(r.attempted)))
	return err
}

// mirrorResult is one in-process run of epang's call sequence.
type mirrorResult struct {
	steps    *stepper
	start    time.Time
	wall     time.Duration
	root     int           // the run's root span
	setup    time.Duration // the placement.New span
	stats    placement.RunStats
	plan     memacct.Plan
	doc      *jplace.Document
	outBytes int64
	part     *phylo.Partition
	tr       *tree.Tree
}

// tracedSource wraps a QuerySource with one span per NextChunk call.
type tracedSource struct {
	inner  placement.QuerySource
	t      *tracer
	parent int
}

func (s *tracedSource) NextChunk(max int) ([]placement.Query, error) {
	id := s.t.begin("placement.QuerySource.NextChunk", s.parent)
	defer s.t.end(id)
	return s.inner.NextChunk(max)
}

// stepper runs the mirror's top-level calls, each under its own span below
// root; once a step fails the rest are skipped and err keeps the failure.
type stepper struct {
	t    *tracer
	root int
	err  error
}

func (s *stepper) do(name string, f func() error) (id int) {
	if s.err != nil {
		return -1
	}
	id = s.t.begin(name, s.root)
	if e := f(); e != nil {
		s.err = fmt.Errorf("mirror: %s: %w", name, e)
	}
	s.t.end(id)
	return id
}

// mirrorSetup runs, in this process and with a span around each public
// call, what epang and placed both run between exec and a ready engine:
// tree.ParseNewick → seq.ReadFasta / NewMSA → model → seq.Compress →
// phylo.NewPartition → placement.New. The root span is left open for the
// caller's own steps (res.steps).
func (r *run) mirrorSetup(in *inputs, rootName string, cfg placement.Config) (*mirrorResult, *placement.Engine, error) {
	sp, t := r.spec, r.tr
	res := &mirrorResult{start: time.Now()}
	res.root = t.begin(rootName, -1)
	res.steps = &stepper{t: t, root: res.root}
	step := res.steps.do
	var eng *placement.Engine
	var (
		refSeqs []seq.Sequence
		msa     *seq.MSA
		m       *model.Model
		rates   *model.RateHet
		comp    *seq.Compressed
	)
	step("tree.ParseNewick", func() error {
		data, e := os.ReadFile(in.treeFile)
		if e != nil {
			return e
		}
		res.tr, e = tree.ParseNewick(strings.TrimSpace(string(data)))
		return e
	})
	step("seq.ReadFasta", func() error {
		f, e := os.Open(in.refFile)
		if e != nil {
			return e
		}
		defer f.Close()
		refSeqs, e = seq.ReadFasta(f)
		return e
	})
	step("seq.NewMSA", func() (e error) {
		msa, e = seq.NewMSA(sp.alphabet(), refSeqs)
		return e
	})
	step("model.ParseSpec", func() error {
		freqs, e := mlfit.EmpiricalFreqs(msa)
		if e != nil {
			return e
		}
		m, rates, e = model.ParseSpec(sp.modelSpec(), freqs)
		return e
	})
	step("seq.Compress", func() (e error) {
		comp, e = seq.Compress(msa)
		return e
	})
	step("phylo.NewPartition", func() (e error) {
		res.part, e = phylo.NewPartition(m, rates, comp, res.tr)
		return e
	})
	newSpan := step("placement.New", func() (e error) {
		eng, e = placement.New(res.part, res.tr, cfg)
		return e
	})
	if res.steps.err != nil {
		return nil, nil, res.steps.err
	}
	res.setup = t.duration(newSpan)
	res.plan = eng.Plan()
	return res, eng, nil
}

// mirror runs, in this process, exactly what `epang <args>` runs between
// exec and exit: mirrorSetup, then PlaceStream over a FASTA source →
// jplace.Write → Close.
func (r *run) mirror(in *inputs, maxMem int64, outFile string) (*mirrorResult, error) {
	sp, t := r.spec, r.tr
	cfg := sp.engineConfig(maxMem)
	cfg.Strategy = core.StrategyByName("costage")
	if sp.spill {
		cfg.SpillPolicy = core.SpillPolicyByName("hybrid")
	}
	res, eng, err := r.mirrorSetup(in, "epang.run", cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	step := res.steps.do

	// PlaceStream calls the source from its reader goroutine and the sink
	// from its emitter goroutine; both get spans under the PlaceStream span.
	var placed []jplace.Placements
	place := t.begin("placement.PlaceStream", res.root)
	qf, err := os.Open(in.queryFile)
	if err != nil {
		return nil, err
	}
	src := &tracedSource{placement.NewFastaSource(seq.NewFastaScanner(qf), sp.alphabet(), res.part.Comp.OriginalWidth()), t, place}
	_, err = eng.PlaceStream(context.Background(), src, func(p jplace.Placements) error {
		id := t.begin("sink", place)
		placed = append(placed, p)
		t.end(id)
		return nil
	})
	qf.Close()
	t.end(place)
	if err != nil {
		return nil, fmt.Errorf("mirror: PlaceStream: %w", err)
	}

	res.doc = &jplace.Document{Tree: jplace.TreeString(res.tr), Queries: placed, Invocation: "bench mirror"}
	if sp.bayes {
		res.doc.Fields = jplace.FieldsBayes
	}
	step("jplace.Write", func() error {
		out, e := os.Create(outFile)
		if e != nil {
			return e
		}
		if e := jplace.Write(out, res.doc); e != nil {
			out.Close()
			return e
		}
		return out.Close()
	})
	res.stats = eng.Stats()
	step("placement.Engine.Close", eng.Close)
	t.end(res.root)
	res.wall = time.Since(res.start)
	if res.steps.err != nil {
		return nil, res.steps.err
	}
	if fi, e := os.Stat(outFile); e == nil {
		res.outBytes = fi.Size()
	}
	return res, nil
}

// spanMS is the total of the mirror's top-level spans of that name.
func (r *run) spanMS(res *mirrorResult, name string) float64 {
	d, _ := r.tr.total(name, res.root)
	return float64(d) / 1e6
}

// tracedBatch is the traced pass of a batch workload.
func (r *run) tracedBatch(in *inputs) error {
	sp := r.spec
	maxMem, reference, err := in.maxMemBytes(sp)
	if err != nil {
		return err
	}
	names := queryNames(in, len(in.ds.Queries))
	nq := float64(len(names))

	// The binary, untraced: twice, the faster run is the reference the
	// mirror is compared against.
	binFile := filepath.Join(r.workDir, "binary.jplace")
	args := sp.epangArgs(in, in.queryFile, binFile, maxMem)
	var binWall time.Duration
	var binRSS float64
	for i := 0; i < 2; i++ {
		res, ok := r.runEpang(args)
		if !ok {
			return nil // counted as failed; the result line reports it
		}
		if binWall == 0 || res.wall < binWall {
			binWall, binRSS = res.wall, res.rssMiB
		}
	}
	binOut, ok := r.checkJplace(in, binFile, names)
	if !ok {
		return nil
	}

	mir, err := r.mirror(in, maxMem, filepath.Join(r.workDir, "mirror.jplace"))
	if err != nil {
		return err
	}
	if msg := checkQueries(in, mir.doc.Queries, names); msg != "" {
		r.fail("mirror output: %s", msg)
	} else if !bytes.Equal(canonical(mir.doc.Queries), binOut.canon) || mir.doc.Tree != binOut.doc.Tree {
		r.fail("the in-process mirror placed differently from the epang binary")
	}
	if mir.plan.AMC != sp.wantAMC || mir.plan.LookupEnabled != sp.wantLookup {
		r.fail("mirror engine planned AMC=%v lookup=%v, workload needs AMC=%v lookup=%v",
			mir.plan.AMC, mir.plan.LookupEnabled, sp.wantAMC, sp.wantLookup)
	}
	if acc, err := analyze.Accuracy(in.tr, mir.doc.Queries, in.origins); err == nil {
		r.set("analyze.mean_node_dist", acc.MeanNodeDist)
	}

	// Spans.
	st := mir.stats
	r.set("tree.parse_ms", r.spanMS(mir, "tree.ParseNewick"))
	r.set("seq.compress_ms", r.spanMS(mir, "seq.Compress"))
	r.set("phylo.partition_build_ms", r.spanMS(mir, "phylo.NewPartition"))
	r.set("placement.setup_ms", float64(mir.setup)/1e6)

	// Engine counters.
	r.set("placement.lookup_build_ms", float64(st.LookupBuild)/1e6)
	r.set("placement.phase1_ns_per_query", float64(st.Phase1)/nq)
	r.set("placement.phase2_ns_per_query", float64(st.Phase2)/nq)
	r.set("placement.precompute_ns_per_query", float64(st.Precompute)/nq)
	r.set("placement.chunk_read_ns_per_query", float64(st.ChunkRead)/nq)
	r.set("placement.chunk_wait_ns_per_query", float64(st.ChunkWait)/nq)
	r.set("placement.candidates_integrated_per_query", float64(st.CandidatesIntegrated)/nq)
	r.set("placement.dedup_fold_ratio", ratio(float64(st.QueriesDeduped), float64(st.QueriesDistinct+st.QueriesDeduped)))
	// PoolBusy sums each participant's wall inside pool jobs; the pool has
	// one participant per worker plus the submitting goroutine.
	r.set("parallel.pool_busy_share", ratio(st.PoolBusy.Seconds(), st.PlaceWall.Seconds()*float64(sp.threads+1)))

	cs := st.CLVStats
	r.set("core.hits", float64(cs.Hits))
	r.set("core.recomputes", float64(cs.Recomputes))
	r.set("core.evictions", float64(cs.Evictions))
	r.set("core.recompute_leaf_work", float64(cs.RecomputeLeafWork))
	r.set("core.slot_miss_rate", ratio(float64(cs.Recomputes+cs.SpillReloads), float64(cs.Hits+cs.Recomputes+cs.SpillReloads)))
	r.set("core.spill_writes", float64(cs.SpillWrites))
	r.set("core.spill_reloads", float64(cs.SpillReloads))
	r.set("core.spill_errors", float64(cs.SpillErrors))

	// Attribution: what the mirror's wall is not covered by a named
	// top-level span, or — inside PlaceStream — by the engine's phase and
	// wait counters (candidate selection, output filtering, hand-offs).
	placeWall, _ := r.tr.total("placement.PlaceStream", mir.root)
	unattributed := r.tr.selfTime(mir.root) + placeWall - (st.Phase1 + st.Phase2 + st.ChunkWait)
	r.set("placement.unattributed_pct", 100*ratio(float64(unattributed), float64(mir.wall)))

	limit := st.PlannedBytes
	if maxMem > 0 {
		limit = maxMem
	}
	r.setMemory(st.PlannedBytes, st.PeakBytes, limit, binRSS)
	r.set("memacct.mem_fraction", float64(st.PeakBytes)/float64(reference))

	r.set("epang.process_overhead_ms", float64(binWall-mir.wall)/1e6)
	r.set("telemetry.trace_overhead_pct", 100*float64(mir.wall-binWall)/float64(binWall))

	// The paper's Fig. 3 runtime axis: this budget against full memory.
	r.set("core.slowdown_x", 1)
	if maxMem > 0 {
		if res, ok := r.runEpang(sp.fullMemoryArgs(in, filepath.Join(r.workDir, "fullmem.jplace"))); ok {
			r.set("core.slowdown_x", binWall.Seconds()/res.wall.Seconds())
		}
	}
	// Parallel speed-up of the run over the same command at one thread.
	if sp.threads > 1 {
		single := *sp
		single.threads = 1
		if res, ok := r.runEpang(single.epangArgs(in, in.queryFile, filepath.Join(r.workDir, "single.jplace"), maxMem)); ok {
			r.set("parallel.speedup_x", res.wall.Seconds()/binWall.Seconds())
		}
	}

	if err := r.probeLayers(in, mir); err != nil {
		return err
	}
	r.assertBypass()
	return nil
}

// setMemory reports the engine's own accounting against its budget and
// against what the kernel charged the real process (max-RSS).
func (r *run) setMemory(planned, peak, limit int64, rssMiB float64) {
	rss := rssMiB * (1 << 20)
	r.set("memacct.planned_bytes", float64(planned))
	r.set("memacct.peak_bytes", float64(peak))
	r.set("memacct.budget_headroom_pct", 100*float64(limit-peak)/float64(limit))
	r.set("memacct.accounting_error_pct", 100*(rss-float64(peak))/rss)
}

// assertBypass checks the predictions the workloads were chosen for: a layer
// a workload bypasses must read zero, one it exercises must not.
func (r *run) assertBypass() {
	sp := r.spec
	v := func(name string) float64 { return r.metrics[name].Value }
	zero := func(names ...string) {
		for _, n := range names {
			if v(n) != 0 {
				r.fail("%s = %g on %s, which bypasses that layer (want 0)", n, v(n), sp.name)
			}
		}
	}
	nonzero := func(names ...string) {
		for _, n := range names {
			if v(n) == 0 {
				r.fail("%s = 0 on %s, which exists to exercise that layer", n, sp.name)
			}
		}
	}
	if sp.wantAMC {
		nonzero("core.recomputes", "core.evictions", "core.acquire_ns", "core.recompute_ns")
	} else {
		zero("core.hits", "core.recomputes", "core.evictions", "core.recompute_leaf_work", "core.slot_miss_rate",
			"core.acquire_ns", "core.recompute_ns")
	}
	if sp.spill {
		nonzero("core.spill_writes", "core.spill_reloads", "clvstore.write_mb_s", "clvstore.read_mb_s", "clvstore.record_bytes")
	} else {
		zero("core.spill_writes", "core.spill_reloads", "core.spill_errors",
			"clvstore.write_mb_s", "clvstore.read_mb_s", "clvstore.record_bytes")
	}
	if sp.bayes {
		nonzero("phylo.pendant_grid_ns", "placement.candidates_integrated_per_query")
	} else {
		zero("phylo.pendant_grid_ns", "placement.candidates_integrated_per_query")
	}
	if sp.wantLookup {
		nonzero("phylo.prescore_block_ns_per_cell", "placement.lookup_build_ms")
		zero("phylo.query_loglik_block_ns_per_cell")
	} else {
		nonzero("phylo.query_loglik_block_ns_per_cell")
		zero("phylo.prescore_block_ns_per_cell", "placement.lookup_build_ms", "phylo.build_prescore_row_ns")
	}
	if v("core.spill_errors") != 0 {
		r.fail("core.spill_errors = %g: the spill tier hit I/O failures", v("core.spill_errors"))
	}
}
