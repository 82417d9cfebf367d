// Custom replacement strategy: the paper exposes CLV eviction as a callback
// interface "that allow[s] the developer to fully customize how a slot is
// chosen/overwritten". This example implements such a custom strategy — the
// classic recency-only cache policy — plugs it into the placement engine, and
// compares it against the two cost-aware built-ins on the same workload.
//
//	go run ./examples/custom-strategy
package main

import (
	"fmt"
	"log"
	"time"

	"phylomem/internal/core"
	"phylomem/internal/experiments"
	"phylomem/internal/placement"
	"phylomem/internal/workload"
)

// recency evicts the least recently used CLV, whatever it costs to recompute.
type recency struct{}

func (recency) Name() string { return "recency" }

func (recency) Victim(candidates []int, ctx *core.EvictionContext) int {
	best := candidates[0]
	for _, c := range candidates[1:] {
		if ctx.LastAccess[c] < ctx.LastAccess[best] {
			best = c
		}
	}
	return best
}

func main() {
	ds, err := workload.ProRef(64, 5)
	if err != nil {
		log.Fatal(err)
	}
	prep, err := experiments.Prepare(ds)
	if err != nil {
		log.Fatal(err)
	}

	base := placement.DefaultConfig()
	base.ChunkSize = 25
	base.DisableLookup = true // maximize CLV traffic so strategies matter
	min := prep.MinFeasibleBytes(base)
	ref := prep.ReferenceBytes(base)
	base.MaxMem = min + (ref-min)/8 // a tight budget

	strategies := []core.Strategy{core.CostBased{}, core.CostAge{}, recency{}}
	fmt.Printf("%-8s %10s %12s %12s\n", "strategy", "time", "recomputes", "leaf-work")
	for _, s := range strategies {
		cfg := base
		cfg.Strategy = s
		start := time.Now()
		eng, err := placement.New(prep.Part, prep.Tree, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := eng.Place(prep.Queries); err != nil {
			log.Fatal(err)
		}
		st := eng.Stats().CLVStats
		fmt.Printf("%-8s %10s %12d %12d\n",
			s.Name(), time.Since(start).Round(time.Millisecond), st.Recomputes, st.RecomputeLeafWork)
	}
	fmt.Println("\nAll strategies produce identical placements — only the recomputation")
	fmt.Println("cost differs. The paper's future work calls for adaptive strategies;")
	fmt.Println("this interface is where they plug in.")
}
