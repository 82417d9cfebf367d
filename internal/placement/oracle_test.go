package placement

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// This file is the placement oracle: a deliberately naive placer that the
// engine's reported likelihoods are checked against. Every identity row of
// identity_test.go shares the engine's kernels, so a bug they all share is
// invisible there; the oracle shares none of them. It knows no CLV, pattern,
// lookup row, premask, tile or covered-site list, and not even the model's
// eigendecomposition: P(t) = exp(Q·t) is a Taylor series with scaling and
// squaring of a rate matrix it builds itself from the same frequencies and
// exchangeabilities. For one reported placement it grafts the query onto the
// reported edge at the reported distal and pendant lengths, then runs
// Felsenstein pruning over the whole augmented tree from scratch, site by
// site, dividing every partial by its largest entry so that no site
// underflows however deep the tree.

// oracleModel is a reversible substitution model with discrete rates, as
// the oracle sees it.
type oracleModel struct {
	states         int
	pi, q          []float64 // stationary frequencies; rate matrix, row-major, one substitution per unit length
	rates, weights []float64
	p              map[float64][]float64 // exp(Q·t) by t
}

// newOracleModel builds Q_ij = exch_ij·π_j with the diagonal closing each
// row, normalized to one expected substitution per unit length.
func newOracleModel(pi, exch []float64, rh *model.RateHet) *oracleModel {
	S := len(pi)
	q := make([]float64, S*S)
	mu := 0.0
	for i := 0; i < S; i++ {
		out := 0.0
		for j := 0; j < S; j++ {
			if j != i {
				q[i*S+j] = exch[i*S+j] * pi[j]
				out += q[i*S+j]
			}
		}
		q[i*S+i] = -out
		mu += pi[i] * out
	}
	for i := range q {
		q[i] /= mu
	}
	return &oracleModel{states: S, pi: pi, q: q, rates: rh.Rates, weights: rh.Weights, p: map[float64][]float64{}}
}

// matMul returns the S×S product a·b.
func matMul(a, b []float64, S int) []float64 {
	out := make([]float64, S*S)
	for i := 0; i < S; i++ {
		for k := 0; k < S; k++ {
			for j := 0; j < S; j++ {
				out[i*S+j] += a[i*S+k] * b[k*S+j]
			}
		}
	}
	return out
}

// transition returns exp(Q·t): the Taylor series of exp(Q·t/2^k), with k
// chosen so that the scaled matrix's row sums are at most 1/2, squared k
// times. Matrices are memoized by t, since every graft shares all but three
// branch lengths with the reference tree.
func (o *oracleModel) transition(t float64) []float64 {
	if p, ok := o.p[t]; ok {
		return p
	}
	S := o.states
	norm := 0.0
	for i := 0; i < S; i++ {
		row := 0.0
		for j := 0; j < S; j++ {
			row += math.Abs(o.q[i*S+j])
		}
		norm = max(norm, row*t)
	}
	k := 0
	for ; norm > 0.5; norm /= 2 {
		k++
	}
	a := make([]float64, S*S)
	for i := range a {
		a[i] = math.Ldexp(o.q[i]*t, -k)
	}
	sum := make([]float64, S*S)
	term := make([]float64, S*S)
	for i := 0; i < S; i++ {
		sum[i*S+i], term[i*S+i] = 1, 1
	}
	for n := 1; n <= 24; n++ {
		term = matMul(term, a, S)
		for i := range term {
			term[i] /= float64(n)
			sum[i] += term[i]
		}
	}
	for ; k > 0; k-- {
		sum = matMul(sum, sum, S)
	}
	o.p[t] = sum
	return sum
}

// oracleEdge is one half of an undirected branch of a graft.
type oracleEdge struct {
	to     int
	length float64
}

// graft is the reference tree with one query attached: adjacency lists by
// node index, per-site state codes on the leaves (nil on inner nodes), and
// the attachment node, where pruning is rooted.
type graft struct {
	adj   [][]oracleEdge
	codes [][]uint32
	root  int
}

// newGraft inserts a node on edge e at distance distal from e's first node
// (the jplace distal_length, see analyze.EDPL) and hangs the query from it on
// a branch of length pendant.
func newGraft(tr *tree.Tree, leafCodes map[string][]uint32, e *tree.Edge, distal, pendant float64, query []uint32) *graft {
	index := make(map[*tree.Node]int, len(tr.Nodes))
	for i, n := range tr.Nodes {
		index[n] = i
	}
	n := len(tr.Nodes)
	g := &graft{adj: make([][]oracleEdge, n+2), codes: make([][]uint32, n+2), root: n}
	for i, node := range tr.Nodes {
		if node.IsLeaf() {
			g.codes[i] = leafCodes[node.Name]
		}
		for _, b := range node.Edges {
			if b != e {
				g.adj[i] = append(g.adj[i], oracleEdge{index[b.Other(node)], b.Length})
			}
		}
	}
	a, b := e.Nodes()
	link := func(x, y int, length float64) {
		g.adj[x] = append(g.adj[x], oracleEdge{y, length})
		g.adj[y] = append(g.adj[y], oracleEdge{x, length})
	}
	link(index[a], g.root, distal)
	link(g.root, index[b], e.Length-distal)
	link(g.root, n+1, pendant)
	g.codes[n+1] = query
	return g
}

// partial returns the conditional likelihoods of the subtree that hangs from
// node away from `from` (all of the tree when from is −1), for every scored
// site and rate, v[(i·R+r)·S+s], and per site the log of what was divided
// out of them.
func (o *oracleModel) partial(g *graft, node, from int, sites []int) (v, logScale []float64) {
	S, R, W := o.states, len(o.rates), len(sites)
	v = make([]float64, W*R*S)
	logScale = make([]float64, W)
	if codes := g.codes[node]; codes != nil {
		for i, site := range sites {
			for r := 0; r < R; r++ {
				for s := 0; s < S; s++ {
					if codes[site]>>uint(s)&1 != 0 {
						v[(i*R+r)*S+s] = 1
					}
				}
			}
		}
		return v, logScale
	}
	for i := range v {
		v[i] = 1
	}
	for _, e := range g.adj[node] {
		if e.to == from {
			continue
		}
		cv, cl := o.partial(g, e.to, node, sites)
		for r, rate := range o.rates {
			p := o.transition(e.length * rate)
			for i := 0; i < W; i++ {
				child := cv[(i*R+r)*S : (i*R+r+1)*S]
				for s := 0; s < S; s++ {
					x := 0.0
					for sp := 0; sp < S; sp++ {
						x += p[s*S+sp] * child[sp]
					}
					v[(i*R+r)*S+s] *= x
				}
			}
		}
		for i := range logScale {
			logScale[i] += cl[i]
		}
	}
	for i := range logScale {
		blk := v[i*R*S : (i+1)*R*S]
		top := 0.0
		for _, x := range blk {
			top = max(top, x)
		}
		if top > 0 {
			for j := range blk {
				blk[j] /= top
			}
			logScale[i] += math.Log(top)
		}
	}
	return v, logScale
}

// logLik is the log-likelihood of the graft over the given alignment sites.
func (o *oracleModel) logLik(g *graft, sites []int) float64 {
	S, R := o.states, len(o.rates)
	v, logScale := o.partial(g, g.root, -1, sites)
	total := 0.0
	for i := range sites {
		site := 0.0
		for r, w := range o.weights {
			for s := 0; s < S; s++ {
				site += w * o.pi[s] * v[(i*R+r)*S+s]
			}
		}
		total += math.Log(site) + logScale[i]
	}
	return total
}

// oracleCase is one simulated placement problem the engine is checked on.
type oracleCase struct {
	name          string
	aa, gamma4    bool
	shape         string // "caterpillar" or "balanced"
	leaves, sites int
	queries       int
	branch        float64 // branch lengths are drawn from [0.5, 1.5)·branch
	coverage      float64 // below 1 the queries are gappy fragments
	ambiguity     bool    // one covered query site in eight becomes an ambiguity code
	rescaling     bool    // the reference CLVs must carry scale counts
}

var oracleCases = []oracleCase{
	{name: "nt-r1-caterpillar-reads", shape: "caterpillar", leaves: 24, sites: 150, queries: 8, branch: 0.1, coverage: 0.35},
	{name: "nt-g4-balanced-full", gamma4: true, shape: "balanced", leaves: 32, sites: 120, queries: 8, branch: 0.1, coverage: 1},
	{name: "aa-r1-balanced-reads-ambiguity", aa: true, shape: "balanced", leaves: 16, sites: 80, queries: 6, branch: 0.15, coverage: 0.4, ambiguity: true},
	{name: "aa-g4-caterpillar-full", aa: true, gamma4: true, shape: "caterpillar", leaves: 10, sites: 50, queries: 4, branch: 0.15, coverage: 1},
	{name: "nt-g4-caterpillar-rescaling", gamma4: true, shape: "caterpillar", leaves: 300, sites: 40, queries: 4, branch: 1, coverage: 1, rescaling: true},
}

// oracleFixture is one case's reference, queries and oracle.
type oracleFixture struct {
	fx        *fixture
	alphabet  *seq.Alphabet
	leafCodes map[string][]uint32
	om        *oracleModel
}

// build simulates the case: the tree with randomized branch lengths, a
// model of the case's alphabet, leaf sequences evolved down the tree under
// the oracle's own transition matrices (the reference keeps one cell in
// twenty as a gap), and queries copied from random leaves with one site in
// ten mutated.
func (c oracleCase) build(t *testing.T, seed int64) *oracleFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var tr *tree.Tree
	var err error
	if c.shape == "balanced" {
		tr, err = tree.Balanced(c.leaves, c.branch)
	} else {
		tr, err = tree.Caterpillar(c.leaves, c.branch)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Edges {
		e.Length = c.branch * (0.5 + rng.Float64())
	}
	alphabet, S := seq.DNA, 4
	if c.aa {
		alphabet, S = seq.AA, 20
	}
	pi := make([]float64, S)
	exch := make([]float64, S*S)
	sum := 0.0
	for i := range pi {
		pi[i] = 0.5 + rng.Float64()
		sum += pi[i]
		for j := 0; j < i; j++ {
			x := math.Exp(3 * rng.Float64())
			exch[i*S+j], exch[j*S+i] = x, x
		}
	}
	for i := range pi {
		pi[i] /= sum
	}
	m, err := model.NewReversible("oracle", pi, exch)
	if err != nil {
		t.Fatal(err)
	}
	rates := model.UniformRates()
	if c.gamma4 {
		if rates, err = model.GammaRates(0.6, 4); err != nil {
			t.Fatal(err)
		}
	}
	om := newOracleModel(m.Freqs(), exch, rates)

	// Evolve leaf states from the first inner node outward, each site at
	// one rate category drawn by weight.
	draw := func(w []float64) int {
		u := rng.Float64()
		for i, x := range w {
			if u -= x; u < 0 {
				return i
			}
		}
		return len(w) - 1
	}
	siteRate := make([]float64, c.sites)
	for i := range siteRate {
		siteRate[i] = rates.Rates[draw(rates.Weights)]
	}
	states := make(map[*tree.Node][]int, len(tr.Nodes))
	var evolve func(n *tree.Node, from *tree.Edge)
	evolve = func(n *tree.Node, from *tree.Edge) {
		for _, e := range n.Edges {
			if e == from {
				continue
			}
			child := make([]int, c.sites)
			for i, s := range states[n] {
				p := om.transition(e.Length * siteRate[i])
				child[i] = draw(p[s*S : (s+1)*S])
			}
			states[e.Other(n)] = child
			evolve(e.Other(n), e)
		}
	}
	root := tr.Nodes[len(tr.Nodes)-1]
	states[root] = make([]int, c.sites)
	for i := range states[root] {
		states[root][i] = draw(om.pi)
	}
	evolve(root, nil)

	var refs []seq.Sequence
	leafCodes := make(map[string][]uint32, tr.NumLeaves())
	for _, leaf := range tr.Leaves() {
		data := make([]byte, c.sites)
		for i, s := range states[leaf] {
			data[i] = alphabet.Symbol(s)
			if rng.Intn(20) == 0 {
				data[i] = '-'
			}
		}
		refs = append(refs, seq.Sequence{Label: leaf.Name, Data: data})
		if leafCodes[leaf.Name], err = alphabet.Encode(data); err != nil {
			t.Fatal(err)
		}
	}
	msa, err := seq.NewMSA(alphabet, refs)
	if err != nil {
		t.Fatal(err)
	}
	var qs []seq.Sequence
	for qi := 0; qi < c.queries; qi++ {
		src := states[tr.Leaves()[rng.Intn(tr.NumLeaves())]]
		data := make([]byte, c.sites)
		covered := max(1, int(c.coverage*float64(c.sites)))
		lo := rng.Intn(c.sites - covered + 1)
		for i, s := range src {
			switch {
			case i < lo || i >= lo+covered:
				data[i] = '-'
			case c.ambiguity && rng.Intn(8) == 0:
				data[i] = "RYSB"[rng.Intn(4)]
				if c.aa {
					data[i] = "BZJX"[rng.Intn(4)]
				}
			case rng.Intn(10) == 0:
				data[i] = alphabet.Symbol(rng.Intn(S))
			default:
				data[i] = alphabet.Symbol(s)
			}
		}
		qs = append(qs, seq.Sequence{Label: fmt.Sprintf("q%d", qi), Data: data})
	}
	comp, err := seq.Compress(msa)
	if err != nil {
		t.Fatal(err)
	}
	part, err := phylo.NewPartition(m, rates, comp, tr)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := EncodeQueries(alphabet, qs, c.sites)
	if err != nil {
		t.Fatal(err)
	}
	return &oracleFixture{
		fx:        &fixture{tr: tr, part: part, msa: msa, queries: queries},
		alphabet:  alphabet,
		leafCodes: leafCodes,
		om:        om,
	}
}

// keepAll widens the engine under test, which runs the defaults (ML,
// thorough insertion, premasking): every candidate is kept up to
// keepFraction and every one of them reported up to filterMax, so each query
// is checked at several edges and not only its best one.
func keepAll(e *Engine) {
	e.keepFraction = 0.2
	e.prescoreThreshold = 2
	e.filterAccThreshold = 2
}

// scoredSites lists the alignment sites the engine scores a query on: under
// premasking, its non-gap sites.
func scoredSites(codes []uint32, gap uint32) []int {
	var sites []int
	for i, c := range codes {
		if c != gap {
			sites = append(sites, i)
		}
	}
	return sites
}

// withinOracle reports whether the engine's ℓ agrees with the oracle's.
func withinOracle(engine, oracle float64) bool {
	return math.Abs(engine-oracle) <= 1e-9*max(1, math.Abs(oracle))
}

// TestEngineMatchesPlacementOracle: at every reported (edge, distal_length,
// pendant_length) of every query, the engine's log-likelihood equals the
// oracle's on the grafted tree to 1e-9·max(1, |ℓ|) — NT and AA, one rate
// and Γ4, caterpillar and balanced trees, gappy fragments (the premask
// path), full-length queries, ambiguity codes, and a 300-leaf tree on long
// branches whose CLVs carry scale counts. The check also fixes the
// direction of distal_length: measured from the edge's first node, the
// oracle agrees; measured from the other end it must disagree somewhere.
func TestEngineMatchesPlacementOracle(t *testing.T) {
	flippedOff := 0
	for ci, c := range oracleCases {
		t.Run(c.name, func(t *testing.T) {
			of := c.build(t, int64(29+ci))
			fx := of.fx
			if c.rescaling && !hasScaleCounts(t, fx) {
				t.Fatal("the rescaling case's reference CLVs carry no scale counts")
			}
			res, eng := placeWith(t, fx, DefaultConfig(), keepAll)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			gap := of.alphabet.GapMask()
			checked, worst := 0, 0.0
			for qi, q := range res.Queries {
				codes := fx.queries[qi].Codes
				sites := scoredSites(codes, gap)
				if len(q.Placements) < 2 {
					t.Fatalf("%s: %d placements reported, the check wants several", q.Name, len(q.Placements))
				}
				for _, p := range q.Placements {
					e := fx.tr.Edges[p.EdgeNum]
					want := of.om.logLik(newGraft(fx.tr, of.leafCodes, e, p.DistalLength, p.PendantLength, codes), sites)
					if !withinOracle(p.LogLikelihood, want) {
						t.Fatalf("%s edge %d (distal %g of %g, pendant %g): engine ℓ %.12f, oracle %.12f (Δ %.3g)",
							q.Name, p.EdgeNum, p.DistalLength, e.Length, p.PendantLength, p.LogLikelihood, want, p.LogLikelihood-want)
					}
					worst = max(worst, math.Abs(p.LogLikelihood-want)/max(1, math.Abs(want)))
					flipped := of.om.logLik(newGraft(fx.tr, of.leafCodes, e, e.Length-p.DistalLength, p.PendantLength, codes), sites)
					if !withinOracle(p.LogLikelihood, flipped) {
						flippedOff++
					}
					checked++
				}
			}
			t.Logf("%d placements of %d queries agree with the oracle, to %.2g·max(1, |ℓ|) at worst", checked, len(res.Queries), worst)
		})
	}
	if flippedOff == 0 {
		t.Error("no placement tells the two directions of distal_length apart")
	}
	t.Logf("%d placements disagree with the oracle when distal_length is measured from the edge's other end", flippedOff)
}

// TestThoroughImprovesLikelihood: thorough insertion starts every candidate
// at its branch midpoint and keeps a distal move only when it gains, so no
// query's best placement is below what the midpoint offers. The midpoint is
// checked with the oracle over a geometric grid of pendant lengths, so the
// search needs no switch to turn it off; at least one placement must have
// moved, or the check proves nothing.
func TestThoroughImprovesLikelihood(t *testing.T) {
	c := oracleCase{name: "nt-g4-caterpillar-reads", gamma4: true, shape: "caterpillar", leaves: 16, sites: 120, queries: 8, branch: 0.1, coverage: 0.5}
	of := c.build(t, 5)
	fx := of.fx
	res, eng := placeWith(t, fx, DefaultConfig())
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	gap := of.alphabet.GapMask()
	moved := 0
	for qi, q := range res.Queries {
		best := q.Placements[0]
		e := fx.tr.Edges[best.EdgeNum]
		if best.DistalLength != e.Length/2 {
			moved++
		}
		codes := fx.queries[qi].Codes
		sites := scoredSites(codes, gap)
		for pend := 1e-6; pend < 10; pend *= 2 {
			mid := of.om.logLik(newGraft(fx.tr, of.leafCodes, e, e.Length/2, pend, codes), sites)
			if mid > best.LogLikelihood+1e-6*max(1, math.Abs(mid)) {
				t.Fatalf("%s: best ℓ %.9f on edge %d, below %.9f at the midpoint with pendant %g",
					q.Name, best.LogLikelihood, best.EdgeNum, mid, pend)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no best placement left its branch midpoint")
	}
}

// hasScaleCounts reports whether any directional CLV of fx's reference has
// been rescaled.
func hasScaleCounts(t *testing.T, fx *fixture) bool {
	t.Helper()
	full, err := phylo.ComputeFullCLVSet(fx.part, fx.tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fx.tr.Edges {
		a, b := e.Nodes()
		for _, n := range []*tree.Node{a, b} {
			for _, c := range full.Operand(fx.tr.DirOf(e, n)).Scale {
				if c > 0 {
					return true
				}
			}
		}
	}
	return false
}

// TestPlacementOracleAcceptance is the acceptance list of a naive placer
// (SNIPPETS.md snippet 2) on the engine: a copy of a leaf lands on that
// leaf's pendant edge at the oracle's likelihood; an unrelated sequence
// attaches on a longer pendant than every copy; a rerun is bit-exact.
func TestPlacementOracleAcceptance(t *testing.T) {
	c := oracleCase{name: "nt-g4-balanced", gamma4: true, shape: "balanced", leaves: 16, sites: 200, branch: 0.1, coverage: 1}
	of := c.build(t, 41)
	fx := of.fx
	rng := rand.New(rand.NewSource(41))
	leaves := fx.tr.Leaves()[:4]
	fx.queries = nil
	for _, leaf := range leaves {
		fx.queries = append(fx.queries, Query{Name: "copy-" + leaf.Name, Codes: of.leafCodes[leaf.Name]})
	}
	divergent := make([]uint32, c.sites)
	for i := range divergent {
		divergent[i] = 1 << uint(rng.Intn(4))
	}
	fx.queries = append(fx.queries, Query{Name: "divergent", Codes: divergent})

	res, eng := placeWith(t, fx, DefaultConfig())
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	gap := of.alphabet.GapMask()
	longest := 0.0
	for i, leaf := range leaves {
		best := res.Queries[i].Placements[0]
		if best.EdgeNum != leaf.Edges[0].ID {
			t.Errorf("copy of %s placed on edge %d, want its pendant edge %d", leaf.Name, best.EdgeNum, leaf.Edges[0].ID)
		}
		codes := fx.queries[i].Codes
		e := fx.tr.Edges[best.EdgeNum]
		if want := of.om.logLik(newGraft(fx.tr, of.leafCodes, e, best.DistalLength, best.PendantLength, codes), scoredSites(codes, gap)); !withinOracle(best.LogLikelihood, want) {
			t.Errorf("copy of %s: engine ℓ %.12f, oracle %.12f", leaf.Name, best.LogLikelihood, want)
		}
		longest = max(longest, best.PendantLength)
	}
	if div := res.Queries[len(leaves)].Placements[0].PendantLength; div <= longest {
		t.Errorf("divergent query attaches on pendant %g, no longer than a leaf copy's %g", div, longest)
	}

	again, eng2 := placeWith(t, fx, DefaultConfig())
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	if !sameJplace(t, fx, DefaultConfig(), res.Queries, again.Queries) {
		t.Error("a rerun moved a placement")
	}
}
