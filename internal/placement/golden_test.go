package placement

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"phylomem/internal/jplace"
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
		doc, eng := placeJplace(t, s.build(t), cfg, variant{}, false)
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

// closeRecord is one query of one digest shape in the closeness golden.
type closeRecord struct {
	Shape string      `json:"shape"`
	Name  string      `json:"n"`
	EDPL  *float64    `json:"edpl,omitempty"`
	P     [][]float64 `json:"p"` // per placement: edge, likelihood, LWR, post_prob, distal, pendant
}

// closeColumns names closeRecord.P's columns after the edge, with the
// largest difference each may show against the golden.
var closeColumns = []struct {
	name string
	tol  float64
}{{"likelihood", 1e-6}, {"like_weight_ratio", 1e-6}, {"post_prob", 1e-6}, {"distal_length", 1e-5}, {"pendant_length", 1e-5}}

// TestPlacementClosenessGolden holds the digest shapes' placements to
// testdata/placements_close.json, saved from an earlier build, within
// tolerances instead of to the bit: every query keeps its edge list;
// likelihood, LWR, post_prob and EDPL move by at most 1e-6, distal and
// pendant lengths by at most 1e-5 (the distal search stops at 0.02·L·x, see
// Attachment.BestDistal, so one trial decided the other way moves its
// optimum by about 1e-6). This is the gate of a change that moves output
// bits on purpose, where TestPlacementDigestGolden must be rebased; it logs
// the largest difference per column. Deleting the file makes the test write
// it afresh from the current build and fail.
func TestPlacementClosenessGolden(t *testing.T) {
	var got []closeRecord
	for _, s := range digestShapes {
		doc, eng := placeJplace(t, s.build(t), s.config(), variant{}, false)
		if err := eng.Close(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		d, err := jplace.Read(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range d.Queries {
			rec := closeRecord{Shape: s.name, Name: q.Name, EDPL: q.EDPL}
			for _, p := range q.Placements {
				rec.P = append(rec.P, []float64{float64(p.EdgeNum), p.LogLikelihood, p.LikeWeightRatio, p.PostProb, p.DistalLength, p.PendantLength})
			}
			got = append(got, rec)
		}
	}
	const golden = "testdata/placements_close.json"
	data, err := os.ReadFile(golden)
	if errors.Is(err, fs.ErrNotExist) {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, rec := range got {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s from this build; review it and rerun", golden)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []closeRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d queries placed, %s holds %d", len(got), golden, len(want))
	}
	worst := make([]float64, len(closeColumns)+1) // the columns, then EDPL
	for i, g := range got {
		w := want[i]
		if g.Shape != w.Shape || g.Name != w.Name || len(g.P) != len(w.P) || (g.EDPL == nil) != (w.EDPL == nil) {
			t.Fatalf("%s %s: %d placements (EDPL %v), golden %s %s has %d (EDPL %v)",
				g.Shape, g.Name, len(g.P), g.EDPL != nil, w.Shape, w.Name, len(w.P), w.EDPL != nil)
		}
		for j, row := range g.P {
			if row[0] != w.P[j][0] {
				t.Fatalf("%s %s: placement %d on edge %v, golden edge %v", g.Shape, g.Name, j, row[0], w.P[j][0])
			}
			for k, col := range closeColumns {
				d := math.Abs(row[k+1] - w.P[j][k+1])
				worst[k] = max(worst[k], d)
				if d > col.tol {
					t.Errorf("%s %s edge %v: %s %v, golden %v (|Δ| %.3g > %g)", g.Shape, g.Name, row[0], col.name, row[k+1], w.P[j][k+1], d, col.tol)
				}
			}
		}
		if g.EDPL != nil {
			d := math.Abs(*g.EDPL - *w.EDPL)
			worst[len(closeColumns)] = max(worst[len(closeColumns)], d)
			if d > 1e-6 {
				t.Errorf("%s %s: EDPL %v, golden %v (|Δ| %.3g > 1e-6)", g.Shape, g.Name, *g.EDPL, *w.EDPL, d)
			}
		}
	}
	for k, col := range closeColumns {
		t.Logf("largest |Δ| %-18s %.3g", col.name, worst[k])
	}
	t.Logf("largest |Δ| %-18s %.3g", "edpl", worst[len(closeColumns)])
}
