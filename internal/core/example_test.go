package core_test

import (
	"fmt"
	"log"
	"reflect"

	"phylomem/internal/core"
	"phylomem/internal/experiments"
	"phylomem/internal/jplace"
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

// cost evicts the CLV cheapest to recompute, the paper's default rule: fewest
// leaves below it, ties toward the least recently used.
type cost struct{}

func (cost) Name() string { return "cost" }

func (cost) Victim(candidates []int, ctx *core.EvictionContext) int {
	best := candidates[0]
	for _, c := range candidates[1:] {
		if ctx.Cost[c] < ctx.Cost[best] || ctx.Cost[c] == ctx.Cost[best] && ctx.LastAccess[c] < ctx.LastAccess[best] {
			best = c
		}
	}
	return best
}

// The paper exposes CLV eviction as a callback interface "that allow[s] the
// developer to fully customize how a slot is chosen/overwritten". The engine
// runs one rule, core.CostAge; this plugs two others — the paper's cost-only
// default and the classic recency-only cache policy — into the placement
// engine under a tight budget and compares the recomputation bills. Every
// rule yields the same placements; only the work to produce them differs.
func ExampleStrategy() {
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
	low, ref := prep.MinFeasibleBytes(base), prep.ReferenceBytes(base)
	base.MaxMem = low + (ref-low)/8

	var first []jplace.Placements
	for _, s := range []core.Strategy{cost{}, core.CostAge{}, recency{}} {
		cfg := base
		cfg.Strategy = s
		eng, err := placement.New(prep.Part, prep.Tree, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Place(prep.Queries)
		if err != nil {
			log.Fatal(err)
		}
		if first == nil {
			first = res.Queries
		}
		st := eng.Stats().CLVStats
		fmt.Printf("%-8s recomputes %5d, leaf work %6d, same placements %v\n",
			s.Name(), st.Recomputes, st.RecomputeLeafWork, reflect.DeepEqual(res.Queries, first))
		if err := eng.Close(); err != nil {
			log.Fatal(err)
		}
	}
	// Output:
	// cost     recomputes  5504, leaf work 774474, same placements true
	// costage  recomputes  5409, leaf work 791538, same placements true
	// recency  recomputes  5017, leaf work 787284, same placements true
}
