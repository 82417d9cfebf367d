package pplacer

import (
	"math/rand"
	"testing"

	"phylomem/internal/jplace"
	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

type fixture struct {
	tr      *tree.Tree
	part    *phylo.Partition
	msa     *seq.MSA
	queries []placement.Query
}

func newFixture(t testing.TB, seed int64, n, width, nQueries int) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, err := tree.Random(n, 0.15, rng)
	if err != nil {
		t.Fatal(err)
	}
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
	part, err := phylo.NewPartition(model.JC69(), model.UniformRates(), comp, tr)
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
		qseqs = append(qseqs, seq.Sequence{Label: "q" + string(rune('a'+i)), Data: data})
	}
	queries, err := placement.EncodeQueries(seq.DNA, qseqs, width)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tr: tr, part: part, msa: msa, queries: queries}
}

func TestFileBackedMatchesMemory(t *testing.T) {
	fx := newFixture(t, 1, 20, 100, 6)
	mem, err := New(fx.part, fx.tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	file, err := New(fx.part, fx.tr, Config{FileBacked: true})
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()

	resMem, err := mem.Place(fx.queries)
	if err != nil {
		t.Fatal(err)
	}
	resFile, err := file.Place(fx.queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(resMem) != len(resFile) {
		t.Fatal("result length mismatch")
	}
	for i := range resMem {
		a, b := resMem[i], resFile[i]
		if a.Name != b.Name || len(a.Placements) != len(b.Placements) {
			t.Fatalf("query %d shape mismatch", i)
		}
		for j := range a.Placements {
			if a.Placements[j] != b.Placements[j] {
				t.Fatalf("query %s placement %d differs: %+v vs %+v", a.Name, j, a.Placements[j], b.Placements[j])
			}
		}
	}
}

func TestFileBackedCutsMemory(t *testing.T) {
	fx := newFixture(t, 2, 24, 120, 4)
	mem, err := New(fx.part, fx.tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	file, err := New(fx.part, fx.tr, Config{FileBacked: true})
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if _, err := mem.Place(fx.queries); err != nil {
		t.Fatal(err)
	}
	if _, err := file.Place(fx.queries); err != nil {
		t.Fatal(err)
	}
	memPeak := mem.Stats().PeakBytes
	filePeak := file.Stats().PeakBytes
	if filePeak >= memPeak {
		t.Fatalf("file-backed peak %d not below in-memory peak %d", filePeak, memPeak)
	}
	if !file.Stats().FileBacked || mem.Stats().FileBacked {
		t.Fatal("FileBacked flags wrong")
	}
	if file.Stats().StoreReads == 0 {
		t.Fatal("no store reads recorded")
	}
}

func TestIdenticalQueryRecoversOrigin(t *testing.T) {
	fx := newFixture(t, 3, 14, 200, 1)
	leaf := fx.tr.Leaves()[4]
	codes, err := seq.DNA.Encode(fx.msa.Sequences[fx.msa.Index(leaf.Name)].Data)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(fx.part, fx.tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Place([]placement.Query{{Name: "copy", Codes: codes}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Placements[0].EdgeNum != leaf.Edges[0].ID {
		t.Fatalf("placed on edge %d, want %d", res[0].Placements[0].EdgeNum, leaf.Edges[0].ID)
	}
}

func TestAgreesWithEPANGOnBestEdge(t *testing.T) {
	// The baseline and the EPA-NG engine share the likelihood substrate, so
	// for well-separated queries the best edge should agree.
	fx := newFixture(t, 4, 16, 300, 5)
	pp, err := New(fx.part, fx.tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	resPP, err := pp.Place(fx.queries)
	if err != nil {
		t.Fatal(err)
	}
	cfg := placement.DefaultConfig()
	cfg.KeepFraction = 0.3 // generous candidates for a fair comparison
	epang, err := placement.New(fx.part, fx.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resEP, err := epang.Place(fx.queries)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range resPP {
		if resPP[i].Placements[0].EdgeNum == resEP.Queries[i].Placements[0].EdgeNum {
			agree++
		}
	}
	if agree < len(resPP)-1 {
		t.Fatalf("only %d/%d best edges agree between baseline and EPA-NG engine", agree, len(resPP))
	}
}

func TestThreadsDeterministic(t *testing.T) {
	fx := newFixture(t, 5, 16, 100, 4)
	run := func(threads int) []jplace.Placements {
		eng, err := New(fx.part, fx.tr, Config{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		res, err := eng.Place(fx.queries)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	for i := range a {
		for j := range a[i].Placements {
			if a[i].Placements[j] != b[i].Placements[j] {
				t.Fatalf("thread count changed results at query %d placement %d", i, j)
			}
		}
	}
}
