package phylo

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"phylomem/internal/seq"
)

// termRow returns a copy of row whose entries named by want are converted to
// terms and whose other entries are NaN, so that a kernel reading an entry
// outside want comes out NaN.
func termRow(p *Partition, row []float64, bscale []int32, want []uint32) []float64 {
	conv := slices.Clone(row)
	p.PrescoreTerms(conv, bscale, want)
	S := p.states
	for pat, c := range want {
		for s := 0; s < S; s++ {
			if c&(1<<uint(s)) == 0 {
				conv[pat*S+s] = math.NaN()
			}
		}
	}
	return conv
}

// scaledRow fills a prescore row as a heavily scaled branch leaves it: about
// a quarter of the entries zero, a quarter near the scaling threshold's
// underflow, the rest ordinary, with up to five scalings per pattern.
func scaledRow(p *Partition, rng *rand.Rand) ([]float64, []int32) {
	row := make([]float64, p.PrescoreRowLen())
	for i := range row {
		switch rng.Intn(4) {
		case 0:
		case 1:
			row[i] = math.Ldexp(rng.Float64(), -1000)
		default:
			row[i] = rng.Float64()
		}
	}
	bscale := make([]int32, p.ScaleLen())
	for i := range bscale {
		bscale[i] = int32(rng.Intn(6))
	}
	return row, bscale
}

// oneSiteQueries returns, per (site, code) pair of codes, a query covering
// only that site with that code: each query's score is one site term.
func oneSiteQueries(p *Partition, codes func(site int) []uint32) [][]uint32 {
	width, gap := p.Comp.OriginalWidth(), p.Comp.Alphabet.GapMask()
	var qs [][]uint32
	for site := 0; site < width; site++ {
		for _, c := range codes(site) {
			q := make([]uint32, width)
			for i := range q {
				q[i] = gap
			}
			q[site] = c
			qs = append(qs, q)
		}
	}
	return qs
}

// parentTerm is the site term as a log of summed raw entries — the formula
// phase 1 used before the table held log terms: log(0 + Σ entries) − pen.
func parentTerm(rs []float64, c uint32, scale int32) float64 {
	sum := 0.0
	for ; c != 0; c &= c - 1 {
		sum += rs[trailingZeros32(c)]
	}
	pen := float64(scale) * logScaleFactor
	return math.Log(sum) - pen
}

// TestPrescoreTermsSingleStateBitwise: a single-state code's term — the
// converted table entry, and the score of a one-site query in both kernel
// modes — is the log-of-sum formula's bits, log(0 + x) − pen, on scaled rows
// with zero entries, at 4 and 20 states.
func TestPrescoreTermsSingleStateBitwise(t *testing.T) {
	for _, states := range []int{4, 20} {
		rng := rand.New(rand.NewSource(int64(states)))
		p := stateCountPartition(t, states, 4, rng)
		S := p.states
		row, bscale := scaledRow(p, rng)
		all := make([]uint32, p.patterns)
		for i := range all {
			all[i] = 1<<uint(S) - 1
		}
		terms := termRow(p, row, bscale, all)
		for pat := 0; pat < p.patterns; pat++ {
			for s := 0; s < S; s++ {
				want := parentTerm(row[pat*S:], 1<<uint(s), bscale[pat])
				if got := terms[pat*S+s]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("S=%d pat %d state %d: term %v, log of sum %v", S, pat, s, got, want)
				}
			}
		}
		qs := oneSiteQueries(p, func(int) []uint32 {
			c := make([]uint32, S)
			for s := range c {
				c[s] = 1 << uint(s)
			}
			return c
		})
		tile := p.AppendQueryTile(nil, qs, true)
		inline, table := make([]float64, len(qs)), make([]float64, len(qs))
		p.PrescoreQueryBlock(row, bscale, tile, len(qs), true, inline)
		p.PrescoreQueryBlock(terms, nil, tile, len(qs), true, table)
		for q, codes := range qs {
			site := slices.IndexFunc(codes, func(c uint32) bool { return c != p.Comp.Alphabet.GapMask() })
			pat := p.Comp.SiteToPattern[site]
			want := 0 + parentTerm(row[pat*S:], codes[site], bscale[pat])
			if math.Float64bits(inline[q]) != math.Float64bits(want) || math.Float64bits(table[q]) != math.Float64bits(want) {
				t.Fatalf("S=%d q=%d: inline %v, term row %v, log of sum %v", S, q, inline[q], table[q], want)
			}
		}
	}
}

// TestPrescoreTermsAmbiguityClose: a code of several states scores the
// log-sum-exp of its states' terms, within 1e-13 relative (absolute below
// magnitude 1) of the log of the summed entries, on heavily scaled rows; on
// an all-zero row every code, and code 0 on any row, scores −Inf. Both kernel
// modes give the same bits.
func TestPrescoreTermsAmbiguityClose(t *testing.T) {
	for _, states := range []int{4, 20} {
		rng := rand.New(rand.NewSource(int64(40 + states)))
		p := stateCountPartition(t, states, 4, rng)
		S := p.states
		full, gap := uint32(1)<<uint(S)-1, p.Comp.Alphabet.GapMask()
		scaled, bscale := scaledRow(p, rng)
		for name, row := range map[string][]float64{"scaled": scaled, "all-zero": make([]float64, p.PrescoreRowLen())} {
			qs := oneSiteQueries(p, func(int) []uint32 {
				codes := []uint32{0}
				for len(codes) < 8 {
					if c := uint32(rng.Int63()) & full; !singleState(c) && c != 0 && c != gap {
						codes = append(codes, c)
					}
				}
				return codes
			})
			need := make([]uint32, p.patterns)
			tile := p.AppendQueryTile(nil, qs, true)
			p.TileStates(tile, need)
			inline, table := make([]float64, len(qs)), make([]float64, len(qs))
			p.PrescoreQueryBlock(row, bscale, tile, len(qs), true, inline)
			p.PrescoreQueryBlock(termRow(p, row, bscale, need), nil, tile, len(qs), true, table)
			for q, codes := range qs {
				site := slices.IndexFunc(codes, func(c uint32) bool { return c != p.Comp.Alphabet.GapMask() })
				pat, code := p.Comp.SiteToPattern[site], codes[site]
				want := parentTerm(row[pat*S:], code, bscale[pat])
				if math.Float64bits(inline[q]) != math.Float64bits(table[q]) {
					t.Fatalf("S=%d %s q=%d code %#x: inline %v, term row %v", S, name, q, code, inline[q], table[q])
				}
				if math.IsInf(want, -1) || math.IsInf(inline[q], -1) {
					if inline[q] != want {
						t.Fatalf("S=%d %s q=%d code %#x: score %v, log of sum %v", S, name, q, code, inline[q], want)
					}
					continue
				}
				if math.Abs(inline[q]-want) > 1e-13*math.Max(1, math.Abs(want)) {
					t.Fatalf("S=%d %s q=%d code %#x: score %v, log of sum %v (diff %g)", S, name, q, code, inline[q], want, inline[q]-want)
				}
			}
		}
	}
}

// FuzzPrescoreTerms: for any tile of codes and any row, the kernel over a
// term row — converted only where TileStates says the tile reads, NaN
// elsewhere — equals the kernel taking the terms inline, bit for bit.
func FuzzPrescoreTerms(f *testing.F) {
	f.Add([]byte{1, 2, 4, 8, 15, 0, 3}, uint8(3), int64(1), false)
	f.Add([]byte{0, 0, 0}, uint8(1), int64(2), false)
	f.Add([]byte{7, 200, 13, 99, 1, 2, 3, 4, 5}, uint8(40), int64(3), true)
	const width, patterns = 23, 19
	s2p := make([]int, width)
	for site := range s2p {
		s2p[site] = (site * 7) % patterns
	}
	parts := map[bool]*Partition{}
	for aa, alphabet := range map[bool]*seq.Alphabet{false: seq.DNA, true: seq.AA} {
		states := alphabet.States()
		parts[aa] = &Partition{
			Comp:     &seq.Compressed{Alphabet: alphabet, Weights: make([]float64, patterns), SiteToPattern: s2p},
			patterns: patterns, states: states, nrates: 1,
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint8, seed int64, aa bool) {
		p := parts[aa]
		full := uint32(1)<<uint(p.states) - 1
		rng := rand.New(rand.NewSource(seed))
		row, bscale := scaledRow(p, rng)
		nq := int(n)%48 + 1
		queries := make([][]uint32, nq)
		for q := range queries {
			queries[q] = make([]uint32, width)
			for site := range queries[q] {
				code := p.Comp.Alphabet.GapMask()
				if i := q*width + site; i < len(data) {
					code = uint32(data[i]) * 0x9e3779b1 >> 7 & full
					if data[i]&1 == 0 {
						code &= -code // single states are the common case
					}
				}
				queries[q][site] = code
			}
		}
		tile := p.AppendQueryTile(nil, queries, true)
		need := make([]uint32, patterns)
		p.TileStates(tile, need)
		inline, table := make([]float64, nq), make([]float64, nq)
		p.PrescoreQueryBlock(row, bscale, tile, nq, true, inline)
		p.PrescoreQueryBlock(termRow(p, row, bscale, need), nil, tile, nq, true, table)
		for q := range inline {
			if math.Float64bits(inline[q]) != math.Float64bits(table[q]) {
				t.Fatalf("q=%d: inline %v, term row %v", q, inline[q], table[q])
			}
		}
	})
}
