package analyze_test

import (
	"fmt"
	"log"

	"phylomem/internal/analyze"
	"phylomem/internal/memacct"
	"phylomem/internal/mlfit"
	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/workload"
)

// The full pipeline on a dataset whose truth is known: simulate under GTR+Γ4,
// ML-fit the model and branch lengths on the reference (the RAxML-NG step
// EPA-NG expects beforehand), place read-like queries under half the
// reference-mode memory, and score the placements against the simulator's
// query origins.
func ExampleAccuracy() {
	gtr, err := model.GTR([]float64{0.3, 0.2, 0.2, 0.3}, []float64{1, 3.5, 1, 1, 3.5, 1})
	if err != nil {
		log.Fatal(err)
	}
	rates, err := model.GammaRates(0.6, 4)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := workload.Simulate(workload.SimConfig{
		Name: "pipeline", Leaves: 40, Sites: 300, NumQueries: 60,
		Alphabet: seq.DNA, Model: gtr, Rates: rates, Seed: 2021,
		QueryCoverage: 0.6, QueryDivergence: 0.08,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Fit from JC-like starting values; the tree's branch lengths are updated
	// in place.
	fit, err := mlfit.Fit(ds.Tree, ds.RefMSA, nil, 1.0, 4, mlfit.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fit: alpha %.2f (simulated 0.6)\n", fit.Alpha)

	comp, err := seq.Compress(ds.RefMSA)
	if err != nil {
		log.Fatal(err)
	}
	part, err := phylo.NewPartition(fit.Model, fit.Rates, comp, ds.Tree)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := placement.EncodeQueries(ds.Alphabet, ds.Queries, ds.RefMSA.Width())
	if err != nil {
		log.Fatal(err)
	}
	cfg := placement.DefaultConfig()
	cfg.ChunkSize = 20
	cfg.MaxMem = memacct.ReferenceFootprint(placement.PlanConfigFor(part, ds.Tree, cfg)) / 2
	eng, err := placement.New(part, ds.Tree, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Place(queries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placed %d queries, AMC %v\n", eng.Stats().QueriesPlaced, eng.Stats().AMC)

	acc, err := analyze.Accuracy(ds.Tree, res.Queries, ds.QueryOrigins)
	if err != nil {
		log.Fatal(err)
	}
	sum := analyze.Summarize(ds.Tree, res.Queries)
	fmt.Printf("mean node distance to the true origin %.3f; %d/%d within one node\n",
		acc.MeanNodeDist, acc.Histogram[0]+acc.Histogram[1], acc.Queries)
	fmt.Printf("mean best LWR %.3f, mean EDPL %.4f\n", sum.MeanBestLWR, sum.MeanEDPL)
	// Output:
	// fit: alpha 0.76 (simulated 0.6)
	// placed 60 queries, AMC true
	// mean node distance to the true origin 0.250; 57/60 within one node
	// mean best LWR 0.780, mean EDPL 0.0015
}
