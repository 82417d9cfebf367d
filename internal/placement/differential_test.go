package placement

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// fixtureFromTree builds the reference alignment, partition and queries for
// an already-generated topology — the differential suite's way of covering
// the balanced (worst-case slot bound) and caterpillar (best-case) shapes
// that newFixture's random-addition trees never produce.
func fixtureFromTree(t testing.TB, tr *tree.Tree, seed int64, width, nQueries int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var seqs []seq.Sequence
	for _, leaf := range tr.Leaves() {
		data := make([]byte, width)
		for i := range data {
			data[i] = "ACGT"[rng.Intn(4)]
		}
		seqs = append(seqs, seq.Sequence{Label: leaf.Name, Data: data})
	}
	msa, err := seq.NewMSA(seq.DNA, seqs)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := seq.Compress(msa)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := model.GammaRates(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := phylo.NewPartition(model.JC69(), rates, comp, tr)
	if err != nil {
		t.Fatal(err)
	}
	var qseqs []seq.Sequence
	for i := 0; i < nQueries; i++ {
		src := seqs[rng.Intn(len(seqs))]
		data := append([]byte(nil), src.Data...)
		for m := 0; m < width/15; m++ {
			data[rng.Intn(width)] = "ACGT"[rng.Intn(4)]
		}
		qseqs = append(qseqs, seq.Sequence{Label: fmt.Sprintf("dq%03d", i), Data: data})
	}
	queries, err := EncodeQueries(seq.DNA, qseqs, width)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tr: tr, part: part, msa: msa, queries: queries}
}

// jplaceBytes renders a result as its wire-format jplace document, the
// representation the differential comparison is byte-exact over.
func jplaceBytes(t testing.TB, fx *fixture, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	doc := &jplace.Document{Tree: jplace.TreeString(fx.tr), Queries: res.Queries, Invocation: "differential"}
	if err := jplace.Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// minSlotMaxMem returns a budget that pins the AMC slot pool at the
// engine's floor — the tree's minimum slot requirement (bounded by the
// paper's log2(n)+2) plus the one in-flight extra the engine reserves —
// with no lookup table, the most eviction-heavy configuration reachable.
func minSlotMaxMem(t testing.TB, fx *fixture, cfg Config) int64 {
	t.Helper()
	cfg.MaxMem = 0
	eng, err := New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	p := eng.Plan()
	buf := 2 * int64(p.BlockSize) * memacct.CLVsPerBufferedBranch * fx.part.CLVBytes()
	minSlots := int64(fx.tr.MinSlots() + 1)
	return p.FixedBytes + p.ChunkBytes + buf + minSlots*fx.part.CLVBytes()
}

// TestDifferentialFullVsAMC is the randomized differential suite: for
// generated topologies of several shapes and sizes, the memory-managed
// engine at its minimum slot count must produce a byte-identical jplace
// document to the full-resident engine, under both built-in replacement
// strategies and two seeds of the adversary in adversary_test.go. Strategy
// choice may reorder evictions and recomputes but must never leak into results.
func TestDifferentialFullVsAMC(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(n int, rng *rand.Rand) (*tree.Tree, error)
	}{
		{"random", func(n int, rng *rand.Rand) (*tree.Tree, error) { return tree.Random(n, 0.12, rng) }},
		{"balanced", func(n int, _ *rand.Rand) (*tree.Tree, error) { return tree.Balanced(n, 0.1) }},
		{"caterpillar", func(n int, _ *rand.Rand) (*tree.Tree, error) { return tree.Caterpillar(n, 0.1) }},
	}
	strategies := []string{"cost", "costage", "lru", "random"}
	// Balanced requires a power of two; 64 is the deeper case where the
	// log2(n)+2 slot floor actually bites.
	sizes := []int{16, 64}
	if testing.Short() {
		sizes = []int{16}
	}

	for _, shape := range shapes {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s-n%d", shape.name, n), func(t *testing.T) {
				seed := int64(1000 + n)
				tr, err := shape.gen(n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				fx := fixtureFromTree(t, tr, seed, 120, 15)

				base := testConfig()
				refRes, refEng := placeWith(t, fx, base)
				if refEng.Plan().AMC {
					t.Fatal("reference run unexpectedly memory-managed")
				}
				refBytes := jplaceBytes(t, fx, refRes)
				if err := refEng.Close(); err != nil {
					t.Fatal(err)
				}

				maxmem := minSlotMaxMem(t, fx, base)
				for _, strat := range strategies {
					t.Run(strat, func(t *testing.T) {
						cfg := testConfig()
						cfg.MaxMem = maxmem
						cfg.Strategy = testStrategy(strat)
						res, eng := placeWith(t, fx, cfg)
						plan := eng.Plan()
						if !plan.AMC {
							t.Fatalf("budget %d did not force AMC", maxmem)
						}
						floor := fx.tr.MinSlots() + 1
						if plan.Slots != floor {
							t.Errorf("slots = %d, want the floor %d", plan.Slots, floor)
						}
						if got := jplaceBytes(t, fx, res); !bytes.Equal(got, refBytes) {
							t.Errorf("jplace output differs from full-resident reference")
						}
						if err := eng.Close(); err != nil {
							t.Errorf("audit: %v", err)
						}
					})
				}
			})
		}
	}
}
