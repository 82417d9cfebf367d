package phylo

import (
	"fmt"
	"math"
)

// This file contains the blocked (query-tile × branch) placement kernel and
// the covered-site index it iterates: the score of a whole tile of queries
// against one prescore row, read from the lookup table or built from a
// branch CLV for the patterns the tile covers.
//
// A tile is encoded site-major and grouped (DESIGN.md "Covered-site index"):
//
//	nq, mode, then per alignment site: g, then g × (code, m, m query indices)
//
// — per site the distinct codes present in the tile and, per code, the
// ascending tile-local indices of the queries carrying it. With gap skipping
// (mode 1) gap cells are simply absent, so an all-gap site is the single
// word 0; without it (mode 0) the gap code is a group like any other. A
// kernel computes the site term once per (branch, site, code) and adds it to
// each member's accumulator. Every query still receives exactly the terms of
// its covered sites in ascending site order, so each cell is bit-identical to
// the dense per-query loop's sum of site terms regardless of tile size or of
// which other queries share the tile.

// tileHeader is the number of words before the first site record: the query
// count and the gap mode the tile was built with.
const tileHeader = 2

// QueryBlockLen returns the worst-case word count of a tile of nq queries:
// the header and, per site, the group count plus nq one-member groups.
func (p *Partition) QueryBlockLen(nq int) int {
	return tileHeader + p.Comp.OriginalWidth()*(1+3*nq)
}

// FillQueryBlock builds the gap-skipping tile of the given queries (each
// OriginalWidth codes) in place; dst must have QueryBlockLen(len(queries))
// entries.
func (p *Partition) FillQueryBlock(dst []uint32, queries [][]uint32) {
	if want := p.QueryBlockLen(len(queries)); len(dst) < want {
		panic(fmt.Sprintf("phylo: query block has %d entries, want %d", len(dst), want))
	}
	p.AppendQueryTile(dst[:0], queries, true)
}

// AppendQueryTile appends the tile of the given queries to dst and returns
// the extended slice. This is the one place that tests a tile's cells for
// gaps. Per site it gathers the tile's cells and peels off one group per
// distinct code, in order of first appearance — O(cells × distinct codes) —
// which is why the engine builds each tile once per chunk and lets every
// branch reuse it.
func (p *Partition) AppendQueryTile(dst []uint32, queries [][]uint32, skipGaps bool) []uint32 {
	width, nq := p.Comp.OriginalWidth(), len(queries)
	for q, codes := range queries {
		if len(codes) != width {
			panic(fmt.Sprintf("phylo: query %d has %d sites, alignment has %d", q, len(codes), width))
		}
	}
	gap := p.Comp.Alphabet.GapMask()
	mode := uint32(0)
	if skipGaps {
		mode = 1
	}
	dst = append(dst, uint32(nq), mode)
	// The site's cells not yet in a group: codes and query indices. On the
	// stack up to the largest automatic tile.
	var stack [2 * 256]uint32
	work := stack[:]
	if 2*nq > len(work) {
		work = make([]uint32, 2*nq)
	}
	col, idx := work[:nq], work[nq:2*nq]
	for site := 0; site < width; site++ {
		n := 0
		for q, codes := range queries {
			if code := codes[site]; !skipGaps || code != gap {
				col[n], idx[n] = code, uint32(q)
				n++
			}
		}
		rec := len(dst)
		dst = append(dst, 0)
		for n > 0 {
			code, group, rest := col[0], len(dst), 0
			dst = append(dst, code, 0)
			for i := 0; i < n; i++ {
				if col[i] == code {
					dst = append(dst, idx[i])
				} else {
					col[rest], idx[rest] = col[i], idx[i]
					rest++
				}
			}
			dst[group+1] = uint32(len(dst) - group - 2)
			dst[rec]++
			n = rest
		}
	}
	return dst
}

// PrescoreQueryBlock evaluates a tile of nq queries against one branch's
// prescore row in a single pass over the sites, writing each query's score to
// out[q]: the sum over the query's covered sites of its code's site term.
// State s at pattern pat has the term
//
//	t_s = log row[pat·S+s] − bscale[pat]·log(scale factor)
//
// and a code scores the term of its one state, or for several states
// m + log Σ_s exp(t_s − m) over them in ascending order, m the largest; code 0,
// or a code whose terms are all −Inf, scores −Inf. With bscale nil, row is a
// term row — every entry the tile reads already holds its term (PrescoreTerms),
// the lookup table's form — so a single-state code costs one load and one
// add. Otherwise row is a BuildPrescoreRow row and the terms are taken inline,
// the same bits. The score equals up to rounding QueryLogLikScratch at the
// pendant length the row was built with.
func (p *Partition) PrescoreQueryBlock(row []float64, bscale []int32, block []uint32, nq int, skipGaps bool, out []float64) {
	S := p.states
	out = checkQueryTile(block, nq, skipGaps, out)
	terms := bscale == nil
	pos := tileHeader
	for _, pat := range p.Comp.SiteToPattern {
		groups := block[pos]
		pos++
		if groups == 0 {
			continue
		}
		rs := row[pat*S : pat*S+S]
		pen := 0.0
		if !terms {
			pen = float64(bscale[pat]) * logScaleFactor
		}
		for ; groups > 0; groups-- {
			c, m := block[pos], int(block[pos+1])
			pos += 2
			var term float64
			switch {
			case !singleState(c):
				term = codeTerm(rs, c, pen, terms)
			case terms:
				term = rs[trailingZeros32(c)]
			default:
				term = math.Log(rs[trailingZeros32(c)]) - pen
			}
			for _, q := range block[pos : pos+m] {
				out[q] += term
			}
			pos += m
		}
	}
}

// codeTerm is the site term of a code of zero or several states over one
// pattern's entries rs (PrescoreQueryBlock): the log-sum-exp of the states'
// terms, which rs holds when terms is set and which are taken from raw
// entries with the penalty pen otherwise.
func codeTerm(rs []float64, c uint32, pen float64, terms bool) float64 {
	var t [32]float64
	n, top := 0, math.Inf(-1)
	for ; c != 0; c &= c - 1 {
		v := rs[trailingZeros32(c)]
		if !terms {
			v = math.Log(v) - pen
		}
		t[n] = v
		n++
		if v > top {
			top = v
		}
	}
	if math.IsInf(top, -1) {
		return top
	}
	sum := 0.0
	for _, v := range t[:n] {
		sum += math.Exp(v - top)
	}
	return top + math.Log(sum)
}

// PrescoreTerms turns, in place, the entries of a BuildPrescoreRow row that
// want names — per pattern, a mask of states — into the terms
// PrescoreQueryBlock reads from a term row:
// row[pat·S+s] becomes log row[pat·S+s] − bscale[pat]·log(scale factor). The
// caller converts each entry at most once; the others are left alone.
func (p *Partition) PrescoreTerms(row []float64, bscale []int32, want []uint32) {
	S := p.states
	for pat, c := range want[:p.patterns] {
		if c == 0 {
			continue
		}
		rs := row[pat*S : pat*S+S]
		pen := float64(bscale[pat]) * logScaleFactor
		for ; c != 0; c &= c - 1 {
			s := trailingZeros32(c)
			rs[s] = math.Log(rs[s]) - pen
		}
	}
}

// TileStates ORs into need[pat] the code of every group the tile block has at
// a site of pattern pat: the states whose prescore-row entries
// PrescoreQueryBlock over block reads. need has one mask per pattern.
func (p *Partition) TileStates(block []uint32, need []uint32) {
	pos := tileHeader
	for _, pat := range p.Comp.SiteToPattern {
		groups := block[pos]
		pos++
		for ; groups > 0; groups-- {
			need[pat] |= block[pos]
			pos += 2 + int(block[pos+1])
		}
	}
}

// QueryLogLikBlockScratch evaluates a tile of nq queries against one branch
// CLV, writing each query's score to out[q]: it builds the branch's prescore
// row for the patterns the tile covers (TilePrescoreRow) and scores the tile
// through it (PrescoreQueryBlock). out[q] is therefore bit-identical to the
// lookup path's score from a BuildPrescoreRow row of the same CLV and ppend,
// and equal up to rounding to QueryLogLikScratch(bclv, bscale, query q,
// ppend, skipGaps, sc), which folds the sites another way.
func (p *Partition) QueryLogLikBlockScratch(bclv []float64, bscale []int32, block []uint32, nq int, ppend []float64, skipGaps bool, sc *Scratch, out []float64) {
	p.PrescoreQueryBlock(p.TilePrescoreRow(bclv, ppend, block, sc), bscale, block, nq, skipGaps, out)
}

// TilePrescoreRow returns sc's prescore-row buffer (PrescoreRowLen values)
// holding BuildPrescoreRow's entries for every pattern whose entries the tile
// block reads (TileStates); the other patterns' entries are left as they
// were, and PrescoreQueryBlock over block reads none of them. The buffer is
// valid until the next call on sc.
func (p *Partition) TilePrescoreRow(bclv, ppend []float64, block []uint32, sc *Scratch) []float64 {
	sc.tileNeed = grow(sc.tileNeed, p.patterns)
	clear(sc.tileNeed)
	p.TileStates(block, sc.tileNeed)
	sc.row = grow(sc.row, p.PrescoreRowLen())
	p.prescoreRow(sc.row, bclv, ppend, sc.tileNeed)
	return sc.row
}

// checkQueryTile panics unless block is a tile of nq queries built in the
// given gap mode and out can hold their scores; it returns out[:nq], zeroed.
func checkQueryTile(block []uint32, nq int, skipGaps bool, out []float64) []float64 {
	if len(block) < tileHeader || int(block[0]) != nq || (block[1] == 1) != skipGaps {
		panic(fmt.Sprintf("phylo: query tile was not built for %d queries with skipGaps=%v", nq, skipGaps))
	}
	if len(out) < nq {
		panic(fmt.Sprintf("phylo: block output has %d entries, want %d", len(out), nq))
	}
	out = out[:nq]
	clear(out)
	return out
}

// BlockOut returns the reusable per-query block accumulator with at least n
// entries, growing it on first use.
func (s *Scratch) BlockOut(n int) []float64 {
	s.blkOut = grow(s.blkOut, n)
	return s.blkOut
}
