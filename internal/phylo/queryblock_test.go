package phylo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	bclv, bscale := fx.midpointCLV(e)
	row := make([]float64, fx.p.PrescoreRowLen())
	fx.p.BuildPrescoreRow(row, bclv, ppend)
	queries := make([][]uint32, nq)
	for i := range queries {
		queries[i] = fx.randomQuery(fx.p.Comp.OriginalWidth(), 0.25)
	}
	return &blockFixture{fx: fx, row: row, bclv: bclv, bscale: bscale, ppend: ppend, queries: queries}
}

// densePrescore is the independent reference of the lookup kernels: the
// per-query loop over every site of the alignment, testing each cell for a
// gap, that the covered-site index replaced. A site's term is the log of its
// one state's entry less the scaling penalty; a code of several states is the
// log-sum-exp of its states' terms about the largest, ascending; code 0 and
// all-zero entries are −Inf.
func densePrescore(p *Partition, row []float64, bscale []int32, query []uint32, skipGaps bool) float64 {
	S := p.states
	gap := p.Comp.Alphabet.GapMask()
	total := 0.0
	for site, pat := range p.Comp.SiteToPattern {
		code := query[site]
		if skipGaps && code == gap {
			continue
		}
		pen := float64(bscale[pat]) * logScaleFactor
		var terms []float64
		for s := 0; s < S; s++ {
			if code&(1<<uint(s)) != 0 {
				terms = append(terms, math.Log(row[pat*S+s])-pen)
			}
		}
		term := math.Inf(-1)
		switch {
		case len(terms) == 1:
			term = terms[0]
		case len(terms) > 1:
			top := slices.Max(terms)
			if math.IsInf(top, -1) {
				break
			}
			sum := 0.0
			for _, t := range terms {
				sum += math.Exp(t - top)
			}
			term = top + math.Log(sum)
		}
		total += term
	}
	return total
}

// denseSiteLiks is the independent reference of the likelihood kernels: the
// any-state-count loop over every site, with its own π-folded pendant
// matrices. It returns each scored site's likelihood and scale count, in
// ascending site order.
func denseSiteLiks(p *Partition, bclv []float64, bscale []int32, query []uint32, ppend []float64, skipGaps bool) (liks []float64, counts []int32) {
	S, R := p.states, p.nrates
	pi := p.Model.Freqs()
	piP := make([]float64, R*S*S)
	for r := 0; r < R; r++ {
		for s := 0; s < S; s++ {
			for sp := 0; sp < S; sp++ {
				piP[(r*S+sp)*S+s] = pi[s] * ppend[(r*S+s)*S+sp]
			}
		}
	}
	gap := p.Comp.Alphabet.GapMask()
	for site, pat := range p.Comp.SiteToPattern {
		code := query[site]
		if skipGaps && code == gap {
			continue
		}
		base := pat * R * S
		site64 := 0.0
		for r := 0; r < R; r++ {
			bv := bclv[base+r*S : base+r*S+S]
			sum := 0.0
			c := code
			for c != 0 {
				sp := trailingZeros32(c)
				c &= c - 1
				row := piP[(r*S+sp)*S : (r*S+sp)*S+S]
				for s := 0; s < S; s++ {
					sum += row[s] * bv[s]
				}
			}
			site64 += p.Rates.Weights[r] * sum
		}
		liks = append(liks, site64)
		counts = append(counts, bscale[pat])
	}
	return liks, counts
}

// productLog folds site likelihoods as phase 2 does: one logProduct.
func productLog(liks []float64, counts []int32) float64 {
	acc := newLogProduct()
	for i, l := range liks {
		acc.mul(l, counts[i])
	}
	return acc.log()
}

// sumOfLogs folds site likelihoods as the phase-1 block kernel does: one log
// per site, summed in site order.
func sumOfLogs(liks []float64, counts []int32) float64 {
	total := 0.0
	for i, l := range liks {
		total += math.Log(l) - float64(counts[i])*logScaleFactor
	}
	return total
}

// TestPrescoreQueryBlockBitIdentical: the block kernel must reproduce the
// dense per-query loop bit for bit, for any block size and both gap modes.
func TestPrescoreQueryBlockBitIdentical(t *testing.T) {
	bf := newBlockFixture(t, 101, 17)
	p := bf.fx.p
	for _, skipGaps := range []bool{true, false} {
		for _, nq := range []int{1, 2, 5, 17} {
			qs := bf.queries[:nq]
			tile := p.AppendQueryTile(nil, qs, skipGaps)
			out := make([]float64, nq)
			p.PrescoreQueryBlock(bf.row, bf.bscale, tile, nq, skipGaps, out)
			for q := 0; q < nq; q++ {
				want := densePrescore(p, bf.row, bf.bscale, qs[q], skipGaps)
				if math.Float64bits(out[q]) != math.Float64bits(want) {
					t.Fatalf("skipGaps=%v nq=%d q=%d: block %v != per-query %v (diff %g)",
						skipGaps, nq, q, out[q], want, out[q]-want)
				}
			}
		}
	}
}

// TestQueryLogLikBlockBitIdentical: the no-lookup block kernel scores a tile
// bit for bit as the lookup path does from a whole BuildPrescoreRow row of
// the same CLV — the row it builds over the tile's patterns alone, poisoned
// everywhere beforehand, leaves no entry it reads unbuilt — and within
// rounding of QueryLogLikScratch, which folds the sites as phase 2 does.
func TestQueryLogLikBlockBitIdentical(t *testing.T) {
	bf := newBlockFixture(t, 103, 11)
	p := bf.fx.p
	sc := p.NewScratch()
	for _, skipGaps := range []bool{true, false} {
		for _, nq := range []int{1, 3, 11} {
			qs := bf.queries[:nq]
			tile := p.AppendQueryTile(nil, qs, skipGaps)
			want := make([]float64, nq)
			p.PrescoreQueryBlock(bf.row, bf.bscale, tile, nq, skipGaps, want)
			out := make([]float64, nq)
			poisonRow(p, sc)
			p.QueryLogLikBlockScratch(bf.bclv, bf.bscale, tile, nq, bf.ppend, skipGaps, sc, out)
			for q := 0; q < nq; q++ {
				if math.Float64bits(out[q]) != math.Float64bits(want[q]) {
					t.Fatalf("skipGaps=%v nq=%d q=%d: block %v != lookup row %v (diff %g)",
						skipGaps, nq, q, out[q], want[q], out[q]-want[q])
				}
				if ll := p.QueryLogLikScratch(bf.bclv, bf.bscale, qs[q], bf.ppend, skipGaps, sc); !closeLogLik(out[q], ll) {
					t.Fatalf("skipGaps=%v nq=%d q=%d: block %v, QueryLogLikScratch %v", skipGaps, nq, q, out[q], ll)
				}
			}
		}
	}
}

// poisonRow fills sc's prescore-row buffer with NaN, so that a score reading
// an entry TilePrescoreRow did not build comes out NaN.
func poisonRow(p *Partition, sc *Scratch) {
	sc.row = grow(sc.row, p.PrescoreRowLen())
	for i := range sc.row {
		sc.row[i] = math.NaN()
	}
}

// closeLogLik reports whether two log-likelihoods of one query, folded in
// different orders, agree to rounding.
func closeLogLik(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
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
	case "all-gap-site":
		site := width/4 + rng.Intn(width/2) // inside most reads
		for _, q := range tile {
			q[site] = gap
		}
	}
	return tile
}

// TestQueryKernelsBitIdenticalToGenericLoop: the covered-site kernels — the
// block kernel over a tile's index and the per-query kernels over a covered
// list — reproduce the dense per-site loops bit for bit, each under its own
// fold (a sum of site logs in phase 1, one logProduct in phase 2); the
// no-lookup block kernel equals the lookup one over a BuildPrescoreRow row
// bit for bit, reading no entry of its own row it did not build, and phase
// 2's fold to rounding; and the 4- and 20-state walks equal
// queryLogLikGeneric on the same list: over
// tiles where a group serves every cell, one cell, or a mix; over gap
// columns, an all-gap site, ambiguity codes, the invalid code 0 and an
// all-gap read; for any tile size, state count, rate count and gap mode.
func TestQueryKernelsBitIdenticalToGenericLoop(t *testing.T) {
	shapes := []string{"reads", "duplicate", "distinct", "gap-columns", "ambiguity", "code-zero", "all-gap-read", "all-gap-site"}
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
				for _, nq := range []int{1, 2, 7, 64, 256} {
					tile := queryTile(p, shape, nq, rng)
					pre := make([]float64, nq)
					ll := make([]float64, nq)
					for _, skipGaps := range []bool{true, false} {
						label := fmt.Sprintf("S=%d R=%d %s nq=%d skipGaps=%v", states, nrates, shape, nq, skipGaps)
						index := p.AppendQueryTile(nil, tile, skipGaps)
						if len(index) > p.QueryBlockLen(nq) {
							t.Fatalf("%s: index has %d words, QueryBlockLen promises at most %d", label, len(index), p.QueryBlockLen(nq))
						}
						p.PrescoreQueryBlock(row, bclv.Scale, index, nq, skipGaps, pre)
						poisonRow(p, sc)
						p.QueryLogLikBlockScratch(bclv.CLV, bclv.Scale, index, nq, ppend, skipGaps, sc, ll)
						for q, codes := range tile {
							wantPre := densePrescore(p, row, bclv.Scale, codes, skipGaps)
							if math.Float64bits(pre[q]) != math.Float64bits(wantPre) {
								t.Fatalf("%s q=%d: PrescoreQueryBlock %v, dense loop %v", label, q, pre[q], wantPre)
							}
							if math.Float64bits(ll[q]) != math.Float64bits(pre[q]) {
								t.Fatalf("%s q=%d: QueryLogLikBlockScratch %v, lookup row %v", label, q, ll[q], pre[q])
							}
							if q > 8 && q < nq-8 && states == 20 {
								continue // the likelihood references are the slow part: ends of the tile only
							}
							liks, counts := denseSiteLiks(p, bclv.CLV, bclv.Scale, codes, ppend, skipGaps)
							want := productLog(liks, counts)
							if !closeLogLik(ll[q], want) {
								t.Fatalf("%s q=%d: QueryLogLikBlockScratch %v, dense loop %v", label, q, ll[q], want)
							}
							if got := p.QueryLogLikScratch(bclv.CLV, bclv.Scale, codes, ppend, skipGaps, sc); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s q=%d: QueryLogLikScratch %v, dense loop %v", label, q, got, want)
							}
							if generic := p.queryLogLikGeneric(bclv.CLV, bclv.Scale, sc.cover, sc.piP); math.Float64bits(generic) != math.Float64bits(want) {
								t.Fatalf("%s q=%d: queryLogLikGeneric %v, dense loop %v", label, q, generic, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestQueryLogLikSiteBitIdentical: the per-query kernels reproduce each site
// likelihood of the dense loop bit for bit. A whole query's total can hide a
// last-bit difference in one site — the running product and its log round
// it away — so every covered site is scored alone, on a branch CLV scaled so
// that the site's likelihood is close to 1.25. There the product's mantissa
// is the site likelihood itself and its log moves by several units in the
// last place per unit of the site's: the test checks, per site, that the
// next float64 up would give other bits.
func TestQueryLogLikSiteBitIdentical(t *testing.T) {
	for _, states := range []int{4, 5, 20} {
		for _, nrates := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(11*states + nrates)))
			p := stateCountPartition(t, states, nrates, rng)
			sc := p.NewScratch()
			bclv := randCLVOperand(p, rng, false)
			clear(bclv.Scale)
			ppend := make([]float64, p.PLen())
			p.FillP(ppend, 0.07)
			gap, blk := p.Comp.Alphabet.GapMask(), nrates*states
			one := make([]uint32, p.Comp.OriginalWidth())
			for _, codes := range queryTile(p, "ambiguity", 4, rng) {
				for site, code := range codes {
					if code == gap {
						continue
					}
					for i := range one {
						one[i] = gap
					}
					one[site] = code
					pat := p.Comp.SiteToPattern[site]
					liks, _ := denseSiteLiks(p, bclv.CLV, bclv.Scale, one, ppend, true)
					for i := pat * blk; i < (pat+1)*blk; i++ {
						bclv.CLV[i] *= 1.25 / liks[0]
					}
					liks, counts := denseSiteLiks(p, bclv.CLV, bclv.Scale, one, ppend, true)
					want := productLog(liks, counts)
					if next := productLog([]float64{math.Nextafter(liks[0], 2)}, counts); next == want {
						t.Fatalf("S=%d R=%d site %d: a one-ulp change of the site likelihood %v leaves its log %v", states, nrates, site, liks[0], want)
					}
					if got := p.QueryLogLikScratch(bclv.CLV, bclv.Scale, one, ppend, true, sc); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("S=%d R=%d site %d code %#x: QueryLogLikScratch %v, dense loop %v", states, nrates, site, code, got, want)
					}
				}
			}
		}
	}
}

// patternRunsRef is the premask run list as it was computed before the
// covered-site list shared its pass: mark the patterns of the non-gap sites,
// then collect maximal runs of marks.
func patternRunsRef(p *Partition, query []uint32, skipGaps bool) []patternRun {
	if !skipGaps {
		return []patternRun{{0, p.patterns}}
	}
	mark := make([]bool, p.patterns)
	gap := p.Comp.Alphabet.GapMask()
	for site, pat := range p.Comp.SiteToPattern {
		if query[site] != gap {
			mark[pat] = true
		}
	}
	var runs []patternRun
	for pat := 0; pat < len(mark); pat++ {
		if !mark[pat] {
			continue
		}
		lo := pat
		for pat < len(mark) && mark[pat] {
			pat++
		}
		runs = append(runs, patternRun{lo, pat})
	}
	return runs
}

// TestCoveredListBitIdenticalToDenseLoop: one queryPatternRuns pass yields the
// premask runs of the former mark-and-collect pass and a covered-site list
// through which coveredLogLik, QueryLogLikScratch, coveredPendantGrid and
// QueryLogLikPendantGrid equal the dense per-site loop bit for bit —
// full-width and gappy queries, both gap modes, and the list survives any
// number of evaluations at different pendant lengths.
func TestCoveredListBitIdenticalToDenseLoop(t *testing.T) {
	pends := []float64{1e-8, 0.003, 0.04, 0.11, 0.9}
	logw := []float64{-2.5, -1.25, -0.75, -1.5, -3}
	for _, states := range []int{4, 5, 20} {
		for _, nrates := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(7*states + nrates)))
			p := stateCountPartition(t, states, nrates, rng)
			sc := p.NewScratch()
			bclv := randCLVOperand(p, rng, false)
			ppend := make([]float64, p.PLen())
			for _, shape := range []string{"reads", "distinct", "ambiguity", "code-zero", "all-gap-read", "gap-columns"} {
				for _, codes := range queryTile(p, shape, 3, rng) {
					for _, skipGaps := range []bool{true, false} {
						label := fmt.Sprintf("S=%d R=%d %s skipGaps=%v", states, nrates, shape, skipGaps)
						runs := p.queryPatternRuns(codes, skipGaps, sc)
						if want := patternRunsRef(p, codes, skipGaps); fmt.Sprint(runs) != fmt.Sprint(want) {
							t.Fatalf("%s: runs %v, want %v", label, runs, want)
						}
						// Streaming log-sum-exp over the dense loop's values, in grid order.
						m, s := math.Inf(-1), 0.0
						for i, pend := range pends {
							p.FillP(ppend, pend)
							want := productLog(denseSiteLiks(p, bclv.CLV, bclv.Scale, codes, ppend, skipGaps))
							if got := p.coveredLogLik(bclv.CLV, bclv.Scale, ppend, sc); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s pend=%g: coveredLogLik %v, dense loop %v", label, pend, got, want)
							}
							if term := logw[i] + want; term <= m {
								s += math.Exp(term - m)
							} else {
								s = s*math.Exp(m-term) + 1
								m = term
							}
						}
						want := m
						if !math.IsInf(m, -1) {
							want = m + math.Log(s)
						}
						if got := p.coveredPendantGrid(bclv.CLV, bclv.Scale, pends, logw, sc); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: coveredPendantGrid %v, dense fold %v", label, got, want)
						}
						if got := p.QueryLogLikPendantGrid(bclv.CLV, bclv.Scale, codes, pends, logw, skipGaps, p.NewScratch()); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: QueryLogLikPendantGrid %v, dense fold %v", label, got, want)
						}
					}
				}
			}
		}
	}
}

// tileCell is one (query, site) cell of a tile.
type tileCell struct{ q, site int }

// decodeTile reads a covered-site index back into the cells it encodes,
// failing on anything the format rules out: a site whose groups repeat a
// code, an empty group, members out of order or out of range, words left
// over.
func decodeTile(t testing.TB, p *Partition, index []uint32) (nq int, skipGaps bool, cells map[tileCell]uint32) {
	t.Helper()
	if len(index) < tileHeader || index[1] > 1 {
		t.Fatalf("bad tile header %v", index[:min(len(index), tileHeader)])
	}
	nq, skipGaps = int(index[0]), index[1] == 1
	cells = make(map[tileCell]uint32)
	pos := tileHeader
	for site := 0; site < p.Comp.OriginalWidth(); site++ {
		groups := int(index[pos])
		pos++
		seen := make(map[uint32]bool)
		for ; groups > 0; groups-- {
			code, m := index[pos], int(index[pos+1])
			pos += 2
			if seen[code] || m == 0 {
				t.Fatalf("site %d: code %#x repeated or empty (%d members)", site, code, m)
			}
			seen[code] = true
			prev := -1
			for _, q := range index[pos : pos+m] {
				if int(q) <= prev || int(q) >= nq {
					t.Fatalf("site %d code %#x: member %d after %d of %d queries", site, code, q, prev, nq)
				}
				prev = int(q)
				cells[tileCell{int(q), site}] = code
			}
			pos += m
		}
	}
	if pos != len(index) {
		t.Fatalf("decoded %d of %d words", pos, len(index))
	}
	return nq, skipGaps, cells
}

// checkTileRoundTrip builds the tile of queries in the given gap mode and
// requires it to decode to exactly the cells a dense scan of the queries
// finds: every cell, or every non-gap cell.
func checkTileRoundTrip(t testing.TB, p *Partition, queries [][]uint32, skipGaps bool) []uint32 {
	t.Helper()
	index := p.AppendQueryTile(nil, queries, skipGaps)
	if len(index) > p.QueryBlockLen(len(queries)) {
		t.Fatalf("index has %d words, QueryBlockLen promises at most %d", len(index), p.QueryBlockLen(len(queries)))
	}
	nq, mode, cells := decodeTile(t, p, index)
	if nq != len(queries) || mode != skipGaps {
		t.Fatalf("header says %d queries skipGaps=%v, built with %d and %v", nq, mode, len(queries), skipGaps)
	}
	gap := p.Comp.Alphabet.GapMask()
	want := 0
	for q, codes := range queries {
		for site, code := range codes {
			if skipGaps && code == gap {
				continue
			}
			want++
			if got, ok := cells[tileCell{q, site}]; !ok || got != code {
				t.Fatalf("cell (q=%d, site=%d) = %#x present=%v, want %#x", q, site, got, ok, code)
			}
		}
	}
	if len(cells) != want {
		t.Fatalf("index holds %d cells, the tile has %d", len(cells), want)
	}
	return index
}

// mustPanic runs f and fails unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestFillQueryBlockLayout pins the covered-site encoding by decoding it back
// to exactly the tile's cells, and the refusal of a tile built for another
// query count or gap mode.
func TestFillQueryBlockLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	p := stateCountPartition(t, 4, 1, rng)
	for _, shape := range []string{"reads", "duplicate", "distinct", "gap-columns", "ambiguity", "code-zero", "all-gap-read", "all-gap-site"} {
		for _, nq := range []int{1, 3, 40} {
			tile := queryTile(p, shape, nq, rng)
			for _, skipGaps := range []bool{true, false} {
				checkTileRoundTrip(t, p, tile, skipGaps)
			}
			// FillQueryBlock is the gap-skipping builder, in place.
			block := make([]uint32, p.QueryBlockLen(nq))
			p.FillQueryBlock(block, tile)
			want := p.AppendQueryTile(nil, tile, true)
			if fmt.Sprint(block[:len(want)]) != fmt.Sprint(want) {
				t.Fatalf("%s nq=%d: FillQueryBlock differs from AppendQueryTile(skipGaps)", shape, nq)
			}
		}
	}

	tile := queryTile(p, "reads", 3, rng)
	index := p.AppendQueryTile(nil, tile, true)
	row := make([]float64, p.PrescoreRowLen())
	clv := make([]float64, p.CLVLen())
	scale := make([]int32, p.ScaleLen())
	ppend := make([]float64, p.PLen())
	out := make([]float64, 4)
	sc := p.NewScratch()
	mustPanic(t, "lookup kernel, wrong query count", func() { p.PrescoreQueryBlock(row, scale, index, 4, true, out) })
	mustPanic(t, "lookup kernel, wrong gap mode", func() { p.PrescoreQueryBlock(row, scale, index, 3, false, out) })
	mustPanic(t, "likelihood kernel, wrong query count", func() { p.QueryLogLikBlockScratch(clv, scale, index, 2, ppend, true, sc, out) })
	mustPanic(t, "likelihood kernel, wrong gap mode", func() { p.QueryLogLikBlockScratch(clv, scale, index, 3, ppend, false, sc, out) })
	mustPanic(t, "short output", func() { p.PrescoreQueryBlock(row, scale, index, 3, true, out[:2]) })
	mustPanic(t, "short block", func() { p.FillQueryBlock(make([]uint32, p.QueryBlockLen(3)-1), tile) })
	mustPanic(t, "short query", func() { p.AppendQueryTile(nil, [][]uint32{tile[0][:5]}, true) })
}

// FuzzQueryTileRoundTrip: whatever the cells — any code, gaps anywhere, any
// query count — the index decodes back to exactly the tile's cells, stays
// within QueryBlockLen, and the lookup kernel over it equals the dense loop
// bit for bit.
func FuzzQueryTileRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 4, 8, 15}, uint8(3), true)
	f.Add([]byte{15, 15, 15, 15}, uint8(1), true)
	f.Add([]byte{0, 3, 5, 15, 1, 1, 1, 2}, uint8(40), false)
	f.Add([]byte{}, uint8(0), true)
	const width, patterns, states = 23, 19, 4
	s2p := make([]int, width)
	for site := range s2p {
		s2p[site] = (site * 7) % patterns
	}
	p := &Partition{
		Comp:     &seq.Compressed{Alphabet: seq.DNA, Weights: make([]float64, patterns), SiteToPattern: s2p},
		patterns: patterns, states: states, nrates: 1,
	}
	rng := rand.New(rand.NewSource(1))
	row := make([]float64, p.PrescoreRowLen())
	for i := range row {
		row[i] = rng.Float64() + 1e-3
	}
	scale := make([]int32, p.ScaleLen())
	for i := range scale {
		scale[i] = int32(rng.Intn(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint8, skipGaps bool) {
		nq := int(n)%48 + 1
		queries := make([][]uint32, nq)
		for q := range queries {
			queries[q] = make([]uint32, width)
			for site := range queries[q] {
				code := seq.DNA.GapMask()
				if i := q*width + site; i < len(data) {
					code = uint32(data[i]) & 0x1f // 0, the 15 DNA codes, and masks beyond the alphabet
				}
				queries[q][site] = code
			}
		}
		index := checkTileRoundTrip(t, p, queries, skipGaps)
		for _, codes := range queries {
			for site := range codes {
				codes[site] &= 0xf // the kernels index a 4-state row
			}
		}
		index = p.AppendQueryTile(index[:0], queries, skipGaps)
		out := make([]float64, nq)
		p.PrescoreQueryBlock(row, scale, index, nq, skipGaps, out)
		for q, codes := range queries {
			if want := densePrescore(p, row, scale, codes, skipGaps); math.Float64bits(out[q]) != math.Float64bits(want) {
				t.Fatalf("q=%d: PrescoreQueryBlock %v, dense loop %v", q, out[q], want)
			}
		}
	})
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
				densePrescore(p, bf.row, bf.bscale, q, true)
			}
		}
	})
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.PrescoreQueryBlock(bf.row, bf.bscale, block, nq, true, out)
		}
	})
	// The lookup table's steady state: the row holds the tile's terms.
	need := make([]uint32, p.NumPatterns())
	p.TileStates(block, need)
	terms := termRow(p, bf.row, bf.bscale, need)
	b.Run("terms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.PrescoreQueryBlock(terms, nil, block, nq, true, out)
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

// benchPartition fabricates a partition of the bench workloads' shape for the
// query kernels, which depend on the alignment only through its width, its
// site-to-pattern map (the identity here) and the gap code.
func benchPartition(b *testing.B, states, nrates, width int) *Partition {
	b.Helper()
	rates := model.UniformRates()
	if nrates > 1 {
		var err error
		if rates, err = model.GammaRates(0.6, nrates); err != nil {
			b.Fatal(err)
		}
	}
	m, alphabet := model.JC69(), seq.DNA
	if states == 20 {
		m, alphabet = model.SyntheticAA(), seq.AA
	}
	s2p := make([]int, width)
	for site := range s2p {
		s2p[site] = site
	}
	comp := &seq.Compressed{Alphabet: alphabet, Weights: make([]float64, width), SiteToPattern: s2p}
	return &Partition{Model: m, Rates: rates, Comp: comp, patterns: width, states: states, nrates: nrates}
}

// benchReads fabricates nq reads, each one window of coverage × width
// single-state sites at a random offset and gaps elsewhere.
func benchReads(p *Partition, nq int, coverage float64, rng *rand.Rand) [][]uint32 {
	width := p.Comp.OriginalWidth()
	span := int(coverage * float64(width))
	reads := make([][]uint32, nq)
	for i := range reads {
		reads[i] = make([]uint32, width)
		lo := rng.Intn(width - span + 1)
		for site := range reads[i] {
			reads[i][site] = p.Comp.Alphabet.GapMask()
			if site >= lo && site < lo+span {
				reads[i][site] = 1 << uint(rng.Intn(p.states))
			}
		}
	}
	return reads
}

// BenchmarkTileKernels times one phase-1 kernel call — a query tile against
// one branch — and reports it per (query, branch) cell: the lookup path over
// a prebuilt row, the no-lookup path (which first builds the row over the
// patterns the tile covers), and the cost of building the tile's index (paid
// once per chunk, not per call). The shapes are Γ4: reads-full's (4 states,
// 600 sites), bigtree-spill's (4 states, 100 sites, reads at coverage 0.5,
// in a one-read tile and a tile of 50) and aa-bayes' (20 states, 800 sites,
// 60 full-length queries).
func BenchmarkTileKernels(b *testing.B) {
	for _, sh := range []struct {
		states, width int
		nqs           []int
		coverages     []float64
	}{
		{4, 600, []int{8, 64, 216}, []float64{0.35, 1}},
		{4, 100, []int{1, 50}, []float64{0.5}},
		{20, 800, []int{60}, []float64{1}},
	} {
		p := benchPartition(b, sh.states, 4, sh.width)
		rng := rand.New(rand.NewSource(23))
		bclv := randCLVOperand(p, rng, false)
		ppend := make([]float64, p.PLen())
		p.FillP(ppend, 0.05)
		row := make([]float64, p.PrescoreRowLen())
		p.BuildPrescoreRow(row, bclv.CLV, ppend)
		sc := p.NewScratch()
		for _, nq := range sh.nqs {
			for _, coverage := range sh.coverages {
				reads := benchReads(p, nq, coverage, rng)
				tile := p.AppendQueryTile(nil, reads, true)
				out := make([]float64, nq)
				perCell := func(b *testing.B) {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nq), "ns/cell")
				}
				name := fmt.Sprintf("S=%d/sites=%d/nq=%d/coverage=%.2f/", sh.states, sh.width, nq, coverage)
				b.Run(name+"lookup", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						p.PrescoreQueryBlock(row, bclv.Scale, tile, nq, true, out)
					}
					perCell(b)
				})
				b.Run(name+"no-lookup", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						p.QueryLogLikBlockScratch(bclv.CLV, bclv.Scale, tile, nq, ppend, true, sc, out)
					}
					perCell(b)
				})
				b.Run(name+"build", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						tile = p.AppendQueryTile(tile[:0], reads, true)
					}
				})
			}
		}
	}
}

// BenchmarkQueryLogLikScratch times one phase-2 likelihood evaluation the
// ways it is paid: as the engine runs it — a query attached once per
// candidate and evaluated by some forty optimizer trials, each filling the
// pendant matrices and walking the covered-site list (the per-evaluation
// unit cost of the Attachment seam); a distal trial, which also re-derives
// the premasked insertion CLV; and as bench/'s phylo.query_loglik_ns probe
// calls it, list build plus one walk.
func BenchmarkQueryLogLikScratch(b *testing.B) {
	for _, tc := range []struct {
		name           string
		states, nrates int
		width          int
		coverage       float64
	}{
		{"4-state-R1-reads", 4, 1, 600, 0.35},
		{"4-state-R4-reads", 4, 4, 600, 0.35},
		{"20-state-R1-full", 20, 1, 800, 1},
		{"20-state-R4-full", 20, 4, 800, 1},
	} {
		p := benchPartition(b, tc.states, tc.nrates, tc.width)
		rng := rand.New(rand.NewSource(29))
		bclv := randCLVOperand(p, rng, false)
		ppend := make([]float64, p.PLen())
		p.FillP(ppend, 0.05)
		q := benchReads(p, 1, tc.coverage, rng)[0]
		sc := p.NewScratch()
		att := p.NewAttachment(1)
		const walks = 40
		b.Run(tc.name+"/build-once-walk-40", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				att.Attach(q, true, false, bclv, bclv, bclv.CLV, bclv.Scale, 0.1)
				for w := 0; w < walks; w++ {
					att.LogLik(0.05)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/walks, "ns/eval")
		})
		b.Run(tc.name+"/distal-trial", func(b *testing.B) {
			att.Attach(q, true, false, bclv, bclv, bclv.CLV, bclv.Scale, 0.1)
			for i := 0; i < b.N; i++ {
				att.MoveTo(0.01 + 0.08*float64(i%2))
				att.LogLik(0.05)
			}
		})
		b.Run(tc.name+"/build-plus-one-walk", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.QueryLogLikScratch(bclv.CLV, bclv.Scale, q, ppend, true, sc)
			}
		})
	}
}

// BenchmarkFillP times one FillP — a transition matrix per rate category, the
// price of every phase-2 evaluation and of both ends of every move — for NT
// and AA under one rate and under Γ4.
func BenchmarkFillP(b *testing.B) {
	for _, states := range []int{4, 20} {
		for _, nrates := range []int{1, 4} {
			p := benchPartition(b, states, nrates, 1)
			dst := make([]float64, p.PLen())
			b.Run(fmt.Sprintf("S=%d/R=%d", states, nrates), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.FillP(dst, 0.05)
				}
			})
		}
	}
}

// queryLogLik4RateLoop is queryLogLik4 without its Γ4 step: every
// single-state site goes through the rate loop. It exists to be the other
// side of BenchmarkQueryLogLik4Rates.
func (p *Partition) queryLogLik4RateLoop(bclv []float64, bscale []int32, cover []coveredSite, piP []float64) float64 {
	const S = 4
	weights := p.Rates.Weights[:p.nrates]
	acc := newLogProduct()
	for _, cs := range cover {
		base := int(cs.pat) * len(weights) * S
		site64 := 0.0
		for r, w := range weights {
			bv := bclv[base+r*S : base+r*S+S : base+r*S+S]
			sum := 0.0
			if cs.off >= 0 {
				off := int(cs.off)
				row := piP[r*S*S+off : r*S*S+off+S : r*S*S+off+S]
				sum += row[0] * bv[0]
				sum += row[1] * bv[1]
				sum += row[2] * bv[2]
				sum += row[3] * bv[3]
			} else {
				for c := cs.code; c != 0; c &= c - 1 {
					sp := trailingZeros32(c)
					row := piP[(r*S+sp)*S : (r*S+sp)*S+S : (r*S+sp)*S+S]
					sum += row[0] * bv[0]
					sum += row[1] * bv[1]
					sum += row[2] * bv[2]
					sum += row[3] * bv[3]
				}
			}
			site64 += w * sum
		}
		acc.mul(site64, bscale[cs.pat])
	}
	return acc.log()
}

// BenchmarkQueryLogLik4Rates isolates queryLogLik4's Γ4 single-state step:
// one walk of a read's covered list (210 of 600 sites) with the four rates'
// dot products side by side, against the same walk through the rate loop.
// The two return the same bits. Run with -count and compare medians or
// minima; the step is kept only while it is worth at least a tenth.
func BenchmarkQueryLogLik4Rates(b *testing.B) {
	p := benchPartition(b, 4, 4, 600)
	rng := rand.New(rand.NewSource(31))
	bclv := randCLVOperand(p, rng, false)
	ppend := make([]float64, p.PLen())
	p.FillP(ppend, 0.05)
	sc := p.NewScratch()
	p.queryPatternRuns(benchReads(p, 1, 0.35, rng)[0], true, sc)
	piP := foldPendant(p, ppend, sc)
	loop := p.queryLogLik4RateLoop(bclv.CLV, bclv.Scale, sc.cover, piP)
	if side := p.queryLogLik4(bclv.CLV, bclv.Scale, sc.cover, piP); math.Float64bits(side) != math.Float64bits(loop) {
		b.Fatalf("side by side %v, rate loop %v", side, loop)
	}
	b.Run("rate-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.queryLogLik4RateLoop(bclv.CLV, bclv.Scale, sc.cover, piP)
		}
	})
	b.Run("side-by-side", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.queryLogLik4(bclv.CLV, bclv.Scale, sc.cover, piP)
		}
	})
}

// BenchmarkBuildPrescoreRow times one lookup row (one branch) for NT and AA
// under Γ4, over 500 patterns.
func BenchmarkBuildPrescoreRow(b *testing.B) {
	for _, states := range []int{4, 20} {
		p := benchPartition(b, states, 4, 500)
		rng := rand.New(rand.NewSource(3))
		bclv, ppend := make([]float64, p.CLVLen()), make([]float64, p.PLen())
		for i := range bclv {
			bclv[i] = rng.Float64()
		}
		p.FillP(ppend, 0.05)
		row := make([]float64, p.PrescoreRowLen())
		b.Run(fmt.Sprintf("S=%d/R=4", states), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.BuildPrescoreRow(row, bclv, ppend)
			}
		})
	}
}
