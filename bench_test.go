// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section (each delegating to internal/experiments, the
// PEWO-equivalent), plus micro-benchmarks of the kernels whose cost the
// memory/runtime trade-off is made of. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches use miniature datasets (scale 1/32 to 1/64, capped
// query sets) so a full -bench=. pass stays laptop-sized; cmd/pewo runs the
// same experiments at arbitrary scale.
package phylomem_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"phylomem/internal/core"
	"phylomem/internal/experiments"
	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
	"phylomem/internal/workload"
)

// benchOptions returns miniature experiment options for benchmarks.
func benchOptions(scale int) experiments.Options {
	o := experiments.DefaultOptions(scale)
	o.Reps = 1
	o.Threads = []int{1, 2, 4}
	o.Fractions = []float64{0.8, 0.5, 0.3}
	o.MaxQueries = 80
	return o
}

func runExperiment(b *testing.B, name string, o experiments.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.ByName(name, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkTable1Datasets regenerates Table I (dataset synthesis cost).
func BenchmarkTable1Datasets(b *testing.B) { runExperiment(b, "table1", benchOptions(32)) }

// BenchmarkTable2 regenerates Table II (O/I/F absolute time and memory).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2", benchOptions(64)) }

// BenchmarkFig3 regenerates Fig. 3 (memory fraction vs slowdown, large chunks)
// per dataset.
func BenchmarkFig3(b *testing.B) {
	for _, ds := range workload.Names() {
		b.Run(ds, func(b *testing.B) {
			o := benchOptions(64)
			o.Datasets = []string{ds}
			runExperiment(b, "fig3", o)
		})
	}
}

// BenchmarkFig4 regenerates Fig. 4 (the chunk-500 sweep) per dataset.
func BenchmarkFig4(b *testing.B) {
	for _, ds := range workload.Names() {
		b.Run(ds, func(b *testing.B) {
			o := benchOptions(64)
			o.Datasets = []string{ds}
			runExperiment(b, "fig4", o)
		})
	}
}

// BenchmarkFig5 regenerates Fig. 5 (EPA-NG vs pplacer showcase).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5", benchOptions(64)) }

// BenchmarkFig6 regenerates Fig. 6 (parallel efficiency, async precompute).
func BenchmarkFig6(b *testing.B) {
	o := benchOptions(64)
	o.Datasets = []string{"serratus"}
	runExperiment(b, "fig6", o)
}

// BenchmarkFig7 regenerates Fig. 7 (across-site synchronous precompute PE).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7", benchOptions(64)) }

// BenchmarkLookupSpeedup measures the pre-placement lookup table's effect
// (the paper's ≈15×/23× claims, Section II).
func BenchmarkLookupSpeedup(b *testing.B) {
	o := benchOptions(64)
	o.Datasets = []string{"neotrop"}
	runExperiment(b, "lookup", o)
}

// BenchmarkAblationBlocks sweeps the branch-block size.
func BenchmarkAblationBlocks(b *testing.B) {
	o := benchOptions(64)
	o.Datasets = []string{"pro_ref"}
	o.MaxQueries = 40
	runExperiment(b, "ablation-blocks", o)
}

// --- kernel micro-benchmarks ---

type kernelFixture struct {
	tr   *tree.Tree
	part *phylo.Partition
	full *phylo.FullCLVSet
}

func newKernelFixture(b *testing.B, states, leaves, sites int) *kernelFixture {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tr, err := tree.Random(leaves, 0.1, rng)
	if err != nil {
		b.Fatal(err)
	}
	alphabet := seq.DNA
	chars := "ACGT"
	var m *model.Model
	if states == 20 {
		alphabet = seq.AA
		chars = "ARNDCQEGHILKMFPSTWYV"
		m = model.SyntheticAA()
	} else {
		m, err = model.GTR([]float64{0.26, 0.24, 0.25, 0.25}, []float64{1, 2.5, 0.8, 1.1, 3.0, 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	var seqs []seq.Sequence
	for _, leaf := range tr.Leaves() {
		data := make([]byte, sites)
		for i := range data {
			data[i] = chars[rng.Intn(len(chars))]
		}
		seqs = append(seqs, seq.Sequence{Label: leaf.Name, Data: data})
	}
	msa, err := seq.NewMSA(alphabet, seqs)
	if err != nil {
		b.Fatal(err)
	}
	comp, err := seq.Compress(msa)
	if err != nil {
		b.Fatal(err)
	}
	rates, err := model.GammaRates(1.0, 4)
	if err != nil {
		b.Fatal(err)
	}
	part, err := phylo.NewPartition(m, rates, comp, tr)
	if err != nil {
		b.Fatal(err)
	}
	full, err := phylo.ComputeFullCLVSet(part, tr, nil)
	if err != nil {
		b.Fatal(err)
	}
	return &kernelFixture{tr: tr, part: part, full: full}
}

// BenchmarkUpdateCLV measures the Felsenstein pruning step — the unit of
// the recomputation cost that AMC trades memory against.
func BenchmarkUpdateCLV(b *testing.B) {
	for _, tc := range []struct {
		name   string
		states int
		sites  int
	}{
		{"DNA-1000sites", 4, 1000},
		{"AA-1000sites", 20, 1000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fx := newKernelFixture(b, tc.states, 16, tc.sites)
			var inner tree.Dir = -1
			for i := 0; i < fx.tr.NumInnerCLVs(); i++ {
				d := fx.tr.DirOfCLV(i)
				a, c := fx.tr.Children(d)
				if !fx.tr.Tail(a).IsLeaf() && !fx.tr.Tail(c).IsLeaf() {
					inner = d
					break
				}
			}
			if inner < 0 {
				b.Fatal("no inner-inner op found")
			}
			a, c := fx.tr.Children(inner)
			dst := make([]float64, fx.part.CLVLen())
			scale := make([]int32, fx.part.ScaleLen())
			pa := make([]float64, fx.part.PLen())
			pb := make([]float64, fx.part.PLen())
			fx.part.FillP(pa, 0.1)
			fx.part.FillP(pb, 0.2)
			opA, opB := fx.full.Operand(a), fx.full.Operand(c)
			sc := fx.part.NewScratch()
			b.SetBytes(int64(fx.part.CLVLen()) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.part.UpdateCLVScratch(dst, scale, opA, opB, pa, pb, sc)
			}
		})
	}
}

// findKernelOp locates a directed inner CLV whose two children match the
// requested operand kinds (tip or inner), for kernel micro-benchmarks.
func findKernelOp(b *testing.B, fx *kernelFixture, tipA, tipB bool) (phylo.Operand, phylo.Operand) {
	b.Helper()
	for i := 0; i < fx.tr.NumInnerCLVs(); i++ {
		d := fx.tr.DirOfCLV(i)
		ca, cb := fx.tr.Children(d)
		la, lb := fx.tr.Tail(ca).IsLeaf(), fx.tr.Tail(cb).IsLeaf()
		if la == tipA && lb == tipB {
			return fx.full.Operand(ca), fx.full.Operand(cb)
		}
		if la == tipB && lb == tipA {
			return fx.full.Operand(cb), fx.full.Operand(ca)
		}
	}
	b.Fatalf("no op with children tipA=%v tipB=%v", tipA, tipB)
	return phylo.Operand{}, phylo.Operand{}
}

// BenchmarkKernelUpdateCLV compares the generic reference kernel against the
// specialized dispatch (kernels.go) per operand-kind combination, and adds
// the Go kernels alone (go), so on an AVX CPU one run shows the assembly's
// ratio to them at both state counts. The specialized sub-benches report
// allocations to pin the zero-alloc contract.
func BenchmarkKernelUpdateCLV(b *testing.B) {
	for _, tc := range []struct {
		name       string
		states     int
		tipA, tipB bool
	}{
		{"DNA-tiptip", 4, true, true},
		{"DNA-tipinner", 4, true, false},
		{"DNA-innerinner", 4, false, false},
		{"AA-tiptip", 20, true, true},
		{"AA-tipinner", 20, true, false},
		{"AA-innerinner", 20, false, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fx := newKernelFixture(b, tc.states, 24, 1000)
			opA, opB := findKernelOp(b, fx, tc.tipA, tc.tipB)
			dst := make([]float64, fx.part.CLVLen())
			scale := make([]int32, fx.part.ScaleLen())
			pa := make([]float64, fx.part.PLen())
			pb := make([]float64, fx.part.PLen())
			fx.part.FillP(pa, 0.1)
			fx.part.FillP(pb, 0.2)
			b.Run("generic", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fx.part.UpdateCLVGeneric(dst, scale, opA, opB, pa, pb)
				}
			})
			b.Run("go", func(b *testing.B) {
				sc := fx.part.NewScratch()
				fx.part.UpdateCLVGo(dst, scale, opA, opB, pa, pb, sc) // warm the scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fx.part.UpdateCLVGo(dst, scale, opA, opB, pa, pb, sc)
				}
			})
			b.Run("specialized", func(b *testing.B) {
				sc := fx.part.NewScratch()
				fx.part.UpdateCLVScratch(dst, scale, opA, opB, pa, pb, sc) // warm the scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fx.part.UpdateCLVScratch(dst, scale, opA, opB, pa, pb, sc)
				}
			})
		})
	}
}

// BenchmarkRecomputeSetup measures one AMC recompute at the size where
// set-up rivals the pruning kernel: NT Γ4 over 100 patterns whose leaves
// use the 4 unambiguous codes. An iteration is what Manager.materialize
// pays per recompute: two FillP calls for the children's branch lengths,
// then UpdateCLVScratch with its table set-up.
func BenchmarkRecomputeSetup(b *testing.B) {
	fx := newKernelFixture(b, 4, 24, 100)
	for _, tc := range []struct {
		name       string
		tipA, tipB bool
	}{
		{"tipinner", true, false},
		{"tiptip", true, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opA, opB := findKernelOp(b, fx, tc.tipA, tc.tipB)
			dst := make([]float64, fx.part.CLVLen())
			scale := make([]int32, fx.part.ScaleLen())
			sc := fx.part.NewScratch()
			pa, pb := sc.P(0), sc.P(1)
			fx.part.UpdateCLVScratch(dst, scale, opA, opB, pa, pb, sc) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.part.FillP(pa, 0.1)
				fx.part.FillP(pb, 0.2)
				fx.part.UpdateCLVScratch(dst, scale, opA, opB, pa, pb, sc)
			}
		})
	}
}

// BenchmarkKernelEdgeLogLik compares the generic and 4-state-specialized
// edge log-likelihood evaluation (π-premultiplied accumulation, tip LUT).
func BenchmarkKernelEdgeLogLik(b *testing.B) {
	for _, tc := range []struct {
		name       string
		states     int
		tipA, tipB bool
	}{
		{"DNA-tipinner", 4, true, false},
		{"DNA-innerinner", 4, false, false},
		{"AA-innerinner", 20, false, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fx := newKernelFixture(b, tc.states, 24, 1000)
			opA, opB := findKernelOp(b, fx, tc.tipA, tc.tipB)
			pm := make([]float64, fx.part.PLen())
			fx.part.FillP(pm, 0.15)
			b.Run("generic", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fx.part.EdgeLogLikGeneric(opA, opB, pm)
				}
			})
			b.Run("specialized", func(b *testing.B) {
				sc := fx.part.NewScratch()
				fx.part.EdgeLogLikScratch(opA, opB, pm, sc) // warm the scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fx.part.EdgeLogLikScratch(opA, opB, pm, sc)
				}
			})
		})
	}
}

// BenchmarkPrescoreQuery measures the lookup-table scoring path (phase 1
// with the memoization the paper's cliff is about) on a one-query tile.
func BenchmarkPrescoreQuery(b *testing.B) {
	fx := newKernelFixture(b, 4, 16, 2000)
	e := fx.tr.Edges[0]
	na, nb := e.Nodes()
	bclv := make([]float64, fx.part.CLVLen())
	bscale := make([]int32, fx.part.ScaleLen())
	pu := make([]float64, fx.part.PLen())
	pv := make([]float64, fx.part.PLen())
	fx.part.FillP(pu, e.Length/2)
	fx.part.FillP(pv, e.Length/2)
	fx.part.UpdateCLVScratch(bclv, bscale, fx.full.Operand(fx.tr.DirOf(e, na)), fx.full.Operand(fx.tr.DirOf(e, nb)), pu, pv, fx.part.NewScratch())
	ppend := make([]float64, fx.part.PLen())
	fx.part.FillP(ppend, 0.05)
	row := make([]float64, fx.part.PrescoreRowLen())
	fx.part.BuildPrescoreRow(row, bclv, ppend)
	rng := rand.New(rand.NewSource(2))
	q := make([]uint32, fx.part.Comp.OriginalWidth())
	for i := range q {
		q[i] = 1 << uint(rng.Intn(4))
	}
	tile := fx.part.AppendQueryTile(nil, [][]uint32{q}, true)
	out := make([]float64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.part.PrescoreQueryBlock(row, bscale, tile, 1, true, out)
	}
}

// BenchmarkQueryLogLik measures the direct (no-lookup) scoring path.
func BenchmarkQueryLogLik(b *testing.B) {
	fx := newKernelFixture(b, 4, 16, 2000)
	e := fx.tr.Edges[0]
	na, nb := e.Nodes()
	bclv := make([]float64, fx.part.CLVLen())
	bscale := make([]int32, fx.part.ScaleLen())
	pu := make([]float64, fx.part.PLen())
	pv := make([]float64, fx.part.PLen())
	fx.part.FillP(pu, e.Length/2)
	fx.part.FillP(pv, e.Length/2)
	fx.part.UpdateCLVScratch(bclv, bscale, fx.full.Operand(fx.tr.DirOf(e, na)), fx.full.Operand(fx.tr.DirOf(e, nb)), pu, pv, fx.part.NewScratch())
	ppend := make([]float64, fx.part.PLen())
	fx.part.FillP(ppend, 0.05)
	rng := rand.New(rand.NewSource(2))
	q := make([]uint32, fx.part.Comp.OriginalWidth())
	for i := range q {
		q[i] = 1 << uint(rng.Intn(4))
	}
	sc := fx.part.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.part.QueryLogLikScratch(bclv, bscale, q, ppend, true, sc)
	}
}

// BenchmarkManagerAcquire measures slot-managed CLV materialization under
// memory pressure (random access pattern, minimum+4 slots).
func BenchmarkManagerAcquire(b *testing.B) {
	fx := newKernelFixture(b, 4, 128, 200)
	mgr, err := core.NewManager(fx.part, fx.tr, core.Config{Slots: fx.tr.MinSlots() + 4})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := fx.tr.DirOfCLV(rng.Intn(fx.tr.NumInnerCLVs()))
		if _, err := mgr.Acquire(d); err != nil {
			b.Fatal(err)
		}
		mgr.Release(d)
	}
}

// BenchmarkPlace measures placement throughput at 1 and 4 worker threads,
// with the engine — including its lookup-table build — constructed outside
// the timed region. Reports queries/s.
func BenchmarkPlace(b *testing.B) {
	ds, err := workload.Neotrop(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := experiments.Prepare(ds)
	if err != nil {
		b.Fatal(err)
	}
	prep.Queries = prep.Queries[:80]
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			cfg := placement.DefaultConfig()
			cfg.ChunkSize = 20
			cfg.Threads = threads
			eng, err := placement.New(prep.Part, prep.Tree, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Place(prep.Queries); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			qps := float64(len(prep.Queries)) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(qps, "queries/s")
		})
	}
}

// BenchmarkLookupBuild measures the parallel pre-placement lookup-table
// construction at 1 and 4 pool workers (the table is built inside
// placement.New; its wall time is reported from the engine's statistics).
func BenchmarkLookupBuild(b *testing.B) {
	ds, err := workload.Neotrop(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := experiments.Prepare(ds)
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", threads), func(b *testing.B) {
			cfg := placement.DefaultConfig()
			cfg.Threads = threads
			var build time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := placement.New(prep.Part, prep.Tree, cfg)
				if err != nil {
					b.Fatal(err)
				}
				st := eng.Stats()
				if !st.LookupEnabled || st.LookupWorkers != threads {
					b.Fatalf("lookup enabled=%v workers=%d, want enabled at %d", st.LookupEnabled, st.LookupWorkers, threads)
				}
				build += st.LookupBuild
				eng.Close()
			}
			b.StopTimer()
			b.ReportMetric(build.Seconds()/float64(b.N), "lookup-s/op")
		})
	}
}

// BenchmarkEndToEndPlacement measures a whole miniature placement run in the
// reference mode and at the memory floor.
func BenchmarkEndToEndPlacement(b *testing.B) {
	ds, err := workload.Neotrop(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := experiments.Prepare(ds)
	if err != nil {
		b.Fatal(err)
	}
	prep.Queries = prep.Queries[:60]
	for _, mode := range []string{"reference", "memsave-floor"} {
		b.Run(mode, func(b *testing.B) {
			cfg := placement.DefaultConfig()
			cfg.ChunkSize = 30
			if mode == "memsave-floor" {
				cfg.MaxMem = prep.MinFeasibleBytes(cfg)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := placement.New(prep.Part, prep.Tree, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Place(prep.Queries); err != nil {
					b.Fatal(err)
				}
				eng.Close()
			}
		})
	}
}
