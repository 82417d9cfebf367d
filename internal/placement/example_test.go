package placement_test

import (
	"fmt"
	"log"

	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// Example places two queries — a full-length sequence and a gappy read — on a
// five-taxon reference under GTR+Γ4 with the engine's defaults (memory
// unlimited, lookup-table pre-scoring on) and prints each query's best
// placement. jplace.Write serializes the same result as a jplace document.
func Example() {
	tr, err := tree.ParseNewick("((human:0.1,chimp:0.12):0.08,(mouse:0.3,rat:0.28):0.15,frog:0.6);")
	if err != nil {
		log.Fatal(err)
	}
	// The reference alignment, one sequence per leaf.
	msa, err := seq.NewMSA(seq.DNA, []seq.Sequence{
		{Label: "human", Data: []byte("ACGTACGTTGCAACGTGGCCAACTGACTGAAC")},
		{Label: "chimp", Data: []byte("ACGTACGTTGCAACGTGGCCAACTGACTGGAC")},
		{Label: "mouse", Data: []byte("ACGTTCGATGCAACGAGGCCTACTCACTGAAC")},
		{Label: "rat", Data: []byte("ACGTTCGATGCATCGAGGCCTACTCACTCAAC")},
		{Label: "frog", Data: []byte("TCGTTCGATGGAACGAGCCCTACACACTGTAC")},
	})
	if err != nil {
		log.Fatal(err)
	}
	gtr, err := model.GTR([]float64{0.26, 0.24, 0.25, 0.25}, []float64{1, 2.5, 0.8, 1.1, 3.0, 1})
	if err != nil {
		log.Fatal(err)
	}
	rates, err := model.GammaRates(1.0, 4)
	if err != nil {
		log.Fatal(err)
	}
	comp, err := seq.Compress(msa)
	if err != nil {
		log.Fatal(err)
	}
	part, err := phylo.NewPartition(gtr, rates, comp, tr)
	if err != nil {
		log.Fatal(err)
	}

	// Queries aligned against the reference (gaps allowed).
	queries, err := placement.EncodeQueries(seq.DNA, []seq.Sequence{
		{Label: "query_primate", Data: []byte("ACGTACGTTGCAACGTGGCCAACTGACTGAAT")},
		{Label: "query_rodent_read", Data: []byte("--------TGCAACGAGGCCTACT--------")},
	}, msa.Width())
	if err != nil {
		log.Fatal(err)
	}
	eng, err := placement.New(part, tr, placement.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Place(queries)
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range res.Queries {
		best := q.Placements[0]
		a, b := tr.Edges[best.EdgeNum].Nodes()
		fmt.Printf("%-17s -> edge %d (%s-%s), logL %.3f, LWR %.3f, pendant %.4f\n",
			q.Name, best.EdgeNum, nodeName(a), nodeName(b), best.LogLikelihood, best.LikeWeightRatio, best.PendantLength)
	}
	// Output:
	// query_primate     -> edge 0 (inner6-human), logL -125.931, LWR 0.594, pendant 0.0457
	// query_rodent_read -> edge 3 (inner7-mouse), logL -58.224, LWR 0.599, pendant 0.0000
}

func nodeName(n *tree.Node) string {
	if n.Name != "" {
		return n.Name
	}
	return fmt.Sprintf("inner%d", n.ID)
}
