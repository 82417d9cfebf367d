package placement

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// randomChunk draws n queries over fx's alignment: reads with gap flanks
// whose covered cells are mostly single states, some ambiguity codes and the
// invalid code 0, and now and then an all-gap read.
func randomChunk(fx *fixture, n int, rng *rand.Rand) []Query {
	alpha := fx.part.Comp.Alphabet
	width, gap := fx.part.Comp.OriginalWidth(), alpha.GapMask()
	full := uint32(1)<<uint(alpha.States()) - 1
	chunk := make([]Query, n)
	for i := range chunk {
		codes := make([]uint32, width)
		lo := rng.Intn(width)
		hi := lo + rng.Intn(width-lo+1)
		if rng.Intn(8) == 0 {
			hi = lo // an all-gap read
		}
		for site := range codes {
			codes[site] = gap
			if site < lo || site >= hi {
				continue
			}
			switch r := rng.Intn(40); {
			case r == 0:
				codes[site] = 0
			case r < 4:
				codes[site] = uint32(rng.Int63())&full | 1<<uint(rng.Intn(alpha.States()))
			default:
				codes[site] = 1 << uint(rng.Intn(alpha.States()))
			}
		}
		chunk[i] = Query{Name: fmt.Sprintf("q%d", i), Codes: codes}
	}
	return chunk
}

// TestLookupTermsBitIdentical drives one lookup engine through random chunk
// sequences, NT and AA, with ambiguity codes, code 0 and all-gap reads, at
// random tile sizes. After every chunk its phase-1 scores equal a
// DisableLookup engine's bit for bit; the table's converted-state masks are
// exactly the states the chunks so far had at each pattern; and every table
// entry is its log term where the mask says so and the untouched
// BuildPrescoreRow value of a freshly built table elsewhere.
func TestLookupTermsBitIdentical(t *testing.T) {
	aa := digestShapes[3]
	for name, fx := range map[string]*fixture{"nt": newFixture(t, 53, 18, 90, 0), "aa": aa.build(t)} {
		newEngine := func(noLookup bool) *Engine {
			cfg := testConfig()
			cfg.DisableLookup = noLookup
			eng, err := New(fx.part, fx.tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			return eng
		}
		lk, nl, fresh := newEngine(false), newEngine(true), newEngine(false)
		if lk.lookup == nil || nl.lookup != nil {
			t.Fatalf("%s: want one engine with the table and one without", name)
		}
		part, nb := fx.part, fx.tr.NumBranches()
		S, rowLen := part.States(), part.PrescoreRowLen()
		terms := slices.Clone(fresh.lookup)
		all := make([]uint32, part.NumPatterns())
		for i := range all {
			all[i] = 1<<uint(S) - 1
		}
		for b := 0; b < nb; b++ {
			_, scale := fresh.lookupRow(b)
			part.PrescoreTerms(terms[b*rowLen:(b+1)*rowLen], scale, all)
		}
		read := make([]uint32, part.NumPatterns())
		gap := part.Comp.Alphabet.GapMask()
		rng := rand.New(rand.NewSource(int64(len(name))))
		for c := 0; c < 12; c++ {
			chunk := randomChunk(fx, 1+rng.Intn(9), rng)
			lk.tileQ, lk.tileB = 1+rng.Intn(4), 1+rng.Intn(nb)
			nl.tileQ, nl.tileB = 1+rng.Intn(4), 1+rng.Intn(nb)
			got, want := make([]float64, len(chunk)*nb), make([]float64, len(chunk)*nb)
			if err := lk.prescore(context.Background(), chunk, got); err != nil {
				t.Fatal(err)
			}
			if err := nl.prescore(context.Background(), chunk, want); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s chunk %d: query %d branch %d scores %v from the term table, %v without a table",
						name, c, i/nb, i%nb, got[i], want[i])
				}
			}
			converted := 0
			for _, q := range chunk {
				for site, code := range q.Codes {
					if code != gap {
						read[part.Comp.SiteToPattern[site]] |= code
					}
				}
			}
			for pat, mask := range lk.lookupDone {
				if mask != read[pat] {
					t.Fatalf("%s chunk %d: pattern %d has states %#x converted, the chunks read %#x", name, c, pat, mask, read[pat])
				}
				converted += bits.OnesCount32(mask)
			}
			if want := int64(converted * nb); lk.stats.LookupTerms != want {
				t.Fatalf("%s chunk %d: lookup_terms %d, want %d", name, c, lk.stats.LookupTerms, want)
			}
			for i, v := range lk.lookup {
				pat, s := i%rowLen/S, i%S
				want, what := fresh.lookup[i], "raw"
				if lk.lookupDone[pat]&(1<<uint(s)) != 0 {
					want, what = terms[i], "term"
				}
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("%s chunk %d: branch %d pattern %d state %d holds %v, want its %s %v",
						name, c, i/rowLen, pat, s, v, what, want)
				}
			}
		}
	}
}
