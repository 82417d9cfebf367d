package phylo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phylomem/internal/model"
	"phylomem/internal/seq"
)

// blockFixture builds a prescore row, a branch CLV, and a set of random
// queries (some gappy) on the shared placement fixture.
type blockFixture struct {
	fx      *placementFixture
	row     []float64
	bclv    []float64
	bscale  []int32
	ppend   []float64
	queries [][]uint32
}

func newBlockFixture(t *testing.T, seed int64, nq int) *blockFixture {
	t.Helper()
	fx := newFixture(t, seed, 9, 70)
	ppend := make([]float64, fx.p.PLen())
	fx.p.FillP(ppend, 0.07)
	e := fx.tr.Edges[3]
	bclv, bscale := fx.insertionCLV(e)
	row := make([]float64, fx.p.PrescoreRowLen())
	fx.p.BuildPrescoreRow(row, bclv, ppend)
	queries := make([][]uint32, nq)
	for i := range queries {
		queries[i] = fx.randomQuery(fx.p.Comp.OriginalWidth(), 0.25)
	}
	return &blockFixture{fx: fx, row: row, bclv: bclv, bscale: bscale, ppend: ppend, queries: queries}
}

// TestPrescoreQueryBlockBitIdentical: the block kernel must reproduce the
// per-query kernel bit for bit, for any block size and both gap modes.
func TestPrescoreQueryBlockBitIdentical(t *testing.T) {
	bf := newBlockFixture(t, 101, 17)
	p := bf.fx.p
	for _, skipGaps := range []bool{true, false} {
		for _, nq := range []int{1, 2, 5, 17} {
			qs := bf.queries[:nq]
			block := make([]uint32, p.QueryBlockLen(nq))
			p.FillQueryBlock(block, qs)
			out := make([]float64, nq)
			p.PrescoreQueryBlock(bf.row, bf.bscale, block, nq, skipGaps, out)
			for q := 0; q < nq; q++ {
				want := p.PrescoreQuery(bf.row, bf.bscale, qs[q], skipGaps)
				if out[q] != want {
					t.Fatalf("skipGaps=%v nq=%d q=%d: block %v != per-query %v (diff %g)",
						skipGaps, nq, q, out[q], want, out[q]-want)
				}
			}
		}
	}
}

// TestQueryLogLikBlockBitIdentical: same invariant for the non-lookup path.
func TestQueryLogLikBlockBitIdentical(t *testing.T) {
	bf := newBlockFixture(t, 103, 11)
	p := bf.fx.p
	sc := p.NewScratch()
	scRef := p.NewScratch()
	for _, skipGaps := range []bool{true, false} {
		for _, nq := range []int{1, 3, 11} {
			qs := bf.queries[:nq]
			block := make([]uint32, p.QueryBlockLen(nq))
			p.FillQueryBlock(block, qs)
			out := make([]float64, nq)
			p.QueryLogLikBlockScratch(bf.bclv, bf.bscale, block, nq, bf.ppend, skipGaps, sc, out)
			for q := 0; q < nq; q++ {
				want := p.QueryLogLikScratch(bf.bclv, bf.bscale, qs[q], bf.ppend, skipGaps, scRef)
				if out[q] != want {
					t.Fatalf("skipGaps=%v nq=%d q=%d: block %v != per-query %v (diff %g)",
						skipGaps, nq, q, out[q], want, out[q]-want)
				}
			}
		}
	}
}

// stateCountPartition returns a partition with the given state and rate
// counts for the query-kernel properties: DNA and AA go through the normal
// constructor; any other state count is fabricated around a reversible model
// of that size, because the query kernels depend on the alphabet only
// through its gap code (the DNA alphabet's 0xF stands in, leaving the wider
// masks as ordinary ambiguity codes).
func stateCountPartition(t *testing.T, states, nrates int, rng *rand.Rand) *Partition {
	t.Helper()
	rates := model.UniformRates()
	if nrates > 1 {
		var err error
		if rates, err = model.GammaRates(0.6, nrates); err != nil {
			t.Fatal(err)
		}
	}
	switch states {
	case 4:
		gtr, err := model.GTR([]float64{0.3, 0.25, 0.2, 0.25}, []float64{1.2, 3.1, 0.8, 1.0, 2.5, 1.0})
		if err != nil {
			t.Fatal(err)
		}
		return kernelPartition(t, kernelCase{alphabet: seq.DNA, model: gtr, rates: rates}, rng)
	case 20:
		return kernelPartition(t, kernelCase{alphabet: seq.AA, model: model.SyntheticAA(), rates: rates}, rng)
	}
	freqs := make([]float64, states)
	exch := make([]float64, states*states)
	for i := range freqs {
		freqs[i] = 1 / float64(states)
		for j := i + 1; j < states; j++ {
			x := 0.5 + rng.Float64()
			exch[i*states+j], exch[j*states+i] = x, x
		}
	}
	m, err := model.NewReversible("test", freqs, exch)
	if err != nil {
		t.Fatal(err)
	}
	const width, patterns = 70, 61
	s2p := make([]int, width)
	for site := range s2p {
		s2p[site] = site % patterns
	}
	comp := &seq.Compressed{Alphabet: seq.DNA, Weights: make([]float64, patterns), SiteToPattern: s2p}
	return &Partition{Model: m, Rates: rates, Comp: comp, patterns: patterns, states: states, nrates: nrates}
}

// queryTile fabricates nq reads of the given shape over p's alignment.
func queryTile(p *Partition, shape string, nq int, rng *rand.Rand) [][]uint32 {
	width := p.Comp.OriginalWidth()
	gap := p.Comp.Alphabet.GapMask()
	full := uint32(1)<<uint(p.states) - 1
	single := func() uint32 { return 1 << uint(rng.Intn(p.states)) }
	read := func() []uint32 {
		q := make([]uint32, width)
		lo, hi := rng.Intn(width/2), width/2+rng.Intn(width/2)
		for site := range q {
			q[site] = gap
			if site >= lo && site < hi {
				q[site] = single()
			}
		}
		return q
	}
	tile := make([][]uint32, nq)
	for i := range tile {
		tile[i] = read()
	}
	switch shape {
	case "duplicate":
		for i := range tile {
			tile[i] = tile[0]
		}
	case "distinct":
		for _, q := range tile {
			for site := range q {
				q[site] = single()
			}
		}
	case "gap-columns":
		for _, q := range tile {
			for site := range q {
				if site%3 == 0 {
					q[site] = gap
				}
			}
		}
	case "ambiguity":
		for _, q := range tile {
			for site := range q {
				if rng.Intn(4) == 0 {
					q[site] = uint32(rng.Intn(int(full))) + 1
				}
			}
		}
	case "code-zero":
		for _, q := range tile {
			q[rng.Intn(width)] = 0
		}
	case "all-gap-read":
		q := tile[rng.Intn(nq)]
		for site := range q {
			q[site] = gap
		}
	}
	return tile
}

// TestQueryKernelsBitIdenticalToGenericLoop: the memoising block kernels and
// the 4-state query kernel reproduce the per-query generic loops bit for bit
// — over tiles where the memo serves every cell, none, or a mix; over gap
// columns, ambiguity codes, the invalid code 0 and an all-gap read; for any
// tile size, state count, rate count and gap mode.
func TestQueryKernelsBitIdenticalToGenericLoop(t *testing.T) {
	shapes := []string{"reads", "duplicate", "distinct", "gap-columns", "ambiguity", "code-zero", "all-gap-read"}
	for _, states := range []int{4, 5, 20} {
		for _, nrates := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(100*states + nrates)))
			p := stateCountPartition(t, states, nrates, rng)
			sc := p.NewScratch()
			bclv := randCLVOperand(p, rng, false)
			ppend := make([]float64, p.PLen())
			p.FillP(ppend, 0.07)
			row := make([]float64, p.PrescoreRowLen())
			p.BuildPrescoreRow(row, bclv.CLV, ppend)
			for _, shape := range shapes {
				for _, nq := range []int{1, 2, 7, 64} {
					tile := queryTile(p, shape, nq, rng)
					block := make([]uint32, p.QueryBlockLen(nq))
					p.FillQueryBlock(block, tile)
					pre := make([]float64, nq)
					ll := make([]float64, nq)
					for _, skipGaps := range []bool{true, false} {
						label := fmt.Sprintf("S=%d R=%d %s nq=%d skipGaps=%v", states, nrates, shape, nq, skipGaps)
						p.PrescoreQueryBlock(row, bclv.Scale, block, nq, skipGaps, pre)
						p.QueryLogLikBlockScratch(bclv.CLV, bclv.Scale, block, nq, ppend, skipGaps, sc, ll)
						for q, codes := range tile {
							wantPre := p.PrescoreQuery(row, bclv.Scale, codes, skipGaps)
							if math.Float64bits(pre[q]) != math.Float64bits(wantPre) {
								t.Fatalf("%s q=%d: PrescoreQueryBlock %v, per-query %v", label, q, pre[q], wantPre)
							}
							wantLL := p.queryLogLikGeneric(bclv.CLV, bclv.Scale, codes, foldPendant(p, ppend, sc), skipGaps)
							if math.Float64bits(ll[q]) != math.Float64bits(wantLL) {
								t.Fatalf("%s q=%d: QueryLogLikBlockScratch %v, generic loop %v", label, q, ll[q], wantLL)
							}
							if got := p.QueryLogLikScratch(bclv.CLV, bclv.Scale, codes, ppend, skipGaps, sc); math.Float64bits(got) != math.Float64bits(wantLL) {
								t.Fatalf("%s q=%d: QueryLogLikScratch %v, generic loop %v", label, q, got, wantLL)
							}
						}
					}
				}
			}
		}
	}
}

// TestFillQueryBlockLayout pins the site-major SoA layout.
func TestFillQueryBlockLayout(t *testing.T) {
	bf := newBlockFixture(t, 109, 3)
	p := bf.fx.p
	nq := 3
	block := make([]uint32, p.QueryBlockLen(nq))
	p.FillQueryBlock(block, bf.queries[:nq])
	width := p.Comp.OriginalWidth()
	for q := 0; q < nq; q++ {
		for site := 0; site < width; site++ {
			if block[site*nq+q] != bf.queries[q][site] {
				t.Fatalf("layout mismatch at site=%d q=%d", site, q)
			}
		}
	}
}

func BenchmarkPrescoreQueryBlock(b *testing.B) {
	bf := newBlockFixtureB(b)
	p := bf.fx.p
	nq := len(bf.queries)
	block := make([]uint32, p.QueryBlockLen(nq))
	p.FillQueryBlock(block, bf.queries)
	out := make([]float64, nq)
	b.Run("per-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range bf.queries {
				p.PrescoreQuery(bf.row, bf.bscale, q, true)
			}
		}
	})
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.PrescoreQueryBlock(bf.row, bf.bscale, block, nq, true, out)
		}
	})
}

func newBlockFixtureB(b *testing.B) *blockFixture {
	b.Helper()
	var t testing.T
	bf := newBlockFixture(&t, 111, 32)
	if t.Failed() {
		b.Fatal("fixture construction failed")
	}
	return bf
}
