package placement

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/seq"
	"phylomem/internal/workload"
)

// digestShape is one row of the placement golden: a tiny simulated dataset
// and the engine configuration that places it.
type digestShape struct {
	name      string
	aa        bool
	gamma4    bool
	sites     int
	coverage  float64 // QueryCoverage: below 1 the queries are gappy reads
	ambiguity bool    // about one covered query site in five becomes B, Z, J or X
	config    func() Config
}

var digestShapes = []digestShape{
	{name: "nt-g4-reads-ml", gamma4: true, sites: 240, coverage: 0.35, config: DefaultConfig},
	{name: "nt-g4-reads-bayes", gamma4: true, sites: 240, coverage: 0.35, config: func() Config {
		cfg := DefaultConfig()
		cfg.Scoring = ScoringBayes
		return cfg
	}},
	{name: "aa-g4-full-bayes-edpl", aa: true, gamma4: true, sites: 100, coverage: 1, config: func() Config {
		cfg := DefaultConfig()
		cfg.Scoring, cfg.EDPL = ScoringBayes, true
		return cfg
	}},
	{name: "aa-r1-ambiguity-thorough-ml", aa: true, sites: 100, coverage: 1, ambiguity: true, config: DefaultConfig},
}

// build simulates the shape's dataset: 16 leaves, 16 queries, seed 28.
func (s digestShape) build(t testing.TB) *fixture {
	t.Helper()
	rates := model.UniformRates()
	if s.gamma4 {
		var err error
		if rates, err = model.GammaRates(0.6, 4); err != nil {
			t.Fatal(err)
		}
	}
	alphabet, m := seq.AA, model.SyntheticAA()
	if !s.aa {
		gtr, err := model.GTR([]float64{0.3, 0.2, 0.2, 0.3}, []float64{1.1, 3.4, 0.9, 1.2, 2.8, 1})
		if err != nil {
			t.Fatal(err)
		}
		alphabet, m = seq.DNA, gtr
	}
	ds, err := workload.Simulate(workload.SimConfig{
		Name: s.name, Leaves: 16, Sites: s.sites, NumQueries: 16,
		Alphabet: alphabet, Model: m, Rates: rates, Seed: 28, QueryCoverage: s.coverage,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.ambiguity {
		rng := rand.New(rand.NewSource(28))
		for _, q := range ds.Queries {
			for site, c := range q.Data {
				if c != '-' && rng.Intn(5) == 0 {
					q.Data[site] = "BZJX"[rng.Intn(4)]
				}
			}
		}
	}
	comp, err := seq.Compress(ds.RefMSA)
	if err != nil {
		t.Fatal(err)
	}
	part, err := phylo.NewPartition(ds.Model, ds.Rates, comp, ds.Tree)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := EncodeQueries(alphabet, ds.Queries, s.sites)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tr: ds.Tree, part: part, msa: ds.RefMSA, queries: queries}
}

// TestPlacementDigestGolden pins the jplace bytes Engine.Place produces —
// not their agreement across variants, which share every kernel, but the
// bytes themselves — as SHA-256 digests in testdata/placements.golden: NT Γ4
// reads under ML and bayes, AA Γ4 full-length queries under bayes with EDPL,
// and AA queries with ambiguity codes under thorough ML at one rate. A kernel
// rewrite that claims to keep every bit must leave the file as it is; a
// change that moves bits on purpose pastes the table the failing test prints
// over the golden, and the diff of that file is the review. The digests are
// amd64's: compilers for arm64, ppc64le and s390x fuse a*b+c into one
// rounding, which yields other (equally valid) bits.
func TestPlacementDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests pin amd64 floating-point, which never fuses multiply-adds")
	}
	var got strings.Builder
	for _, s := range digestShapes {
		cfg := s.config()
		doc, eng := placeJplace(t, s.build(t), cfg, false, false)
		if err := eng.Close(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fmt.Fprintf(&got, "%-28s %x\n", s.name, sha256.Sum256(doc))
	}
	const golden = "testdata/placements.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("placement digests differ from %s:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}
