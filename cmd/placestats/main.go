// Command placestats post-processes placement tool output: a jplace result
// (the gappa-equivalent — per-query EDPL, the best-LWR distribution, and the
// edges carrying the most placement mass) or an epang --trace event stream
// (per-event-type counts and durations plus a chunk pipeline summary).
//
// Usage:
//
//	placestats --jplace result.jplace --tree reference.nwk
//	placestats --jplace result.jplace --tree reference.nwk --per-query
//	placestats --jplace bayes.jplace --tree reference.nwk --post-prob
//	placestats --trace run.trace
//	placestats --trace run.trace --events
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"phylomem/internal/analyze"
	"phylomem/internal/jplace"
	"phylomem/internal/tree"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "placestats:", err)
		os.Exit(1)
	}
}

// hasPostProb reports whether the document carries the post_prob column.
func hasPostProb(doc *jplace.Document) bool {
	for _, f := range doc.Fields {
		if f == "post_prob" {
			return true
		}
	}
	return false
}

func run(args []string) error {
	fs := flag.NewFlagSet("placestats", flag.ContinueOnError)
	var (
		jplaceFile = fs.String("jplace", "", "jplace result file")
		treeFile   = fs.String("tree", "", "reference tree (Newick; must match the jplace edge numbering)")
		perQuery   = fs.Bool("per-query", false, "print per-query best placement and EDPL")
		postProb   = fs.Bool("post-prob", false, "summarize posterior probabilities (requires a --scoring=bayes jplace file)")
		traceFile  = fs.String("trace", "", "summarize an epang --trace event stream instead of a jplace result")
		events     = fs.Bool("events", false, "with --trace: also print every event")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: this command takes flags only", fs.Arg(0))
	}
	if *traceFile != "" {
		return summarizeTrace(os.Stdout, *traceFile, *events)
	}
	if *jplaceFile == "" || *treeFile == "" {
		return fmt.Errorf("--jplace and --tree are required (or use --trace)")
	}
	jf, err := os.Open(*jplaceFile)
	if err != nil {
		return err
	}
	doc, err := jplace.Read(jf)
	jf.Close()
	if err != nil {
		return err
	}
	tdata, err := os.ReadFile(*treeFile)
	if err != nil {
		return err
	}
	tr, err := tree.ParseNewick(strings.TrimSpace(string(tdata)))
	if err != nil {
		return err
	}

	// Every distance-based analysis below indexes tr.Edges by the file's
	// edge numbers; a mismatched tree must be a clean error, not a panic.
	if err := analyze.ValidateEdges(tr, doc.Queries); err != nil {
		return err
	}
	if *postProb && !hasPostProb(doc) {
		return fmt.Errorf("--post-prob requires a post_prob column, but %s has fields %v (produced by --scoring=ml?)",
			*jplaceFile, jplace.Fields)
	}

	if *perQuery {
		fmt.Printf("%-24s %6s %10s %8s %8s\n", "query", "edge", "logL", "LWR", "EDPL")
		for _, q := range doc.Queries {
			if len(q.Placements) == 0 {
				continue
			}
			best := q.Placements[0]
			edpl := analyze.EDPL(tr, q)
			if q.EDPL != nil {
				edpl = *q.EDPL // trust the engine-computed value when present
			}
			fmt.Printf("%-24s %6d %10.3f %8.4f %8.5f\n",
				q.Name, best.EdgeNum, best.LogLikelihood, best.LikeWeightRatio, edpl)
		}
		fmt.Println()
	}

	if *postProb {
		// Posterior mass concentration: how decisive the Bayes mode was.
		var sum, min, max float64
		min = 1
		n := 0
		for _, q := range doc.Queries {
			if len(q.Placements) == 0 {
				continue
			}
			pp := q.Placements[0].PostProb
			sum += pp
			if pp < min {
				min = pp
			}
			if pp > max {
				max = pp
			}
			n++
		}
		if n > 0 {
			fmt.Printf("best post_prob:   mean %.4f  min %.4f  max %.4f\n", sum/float64(n), min, max)
		}
	}

	s := analyze.Summarize(tr, doc.Queries)
	fmt.Printf("queries:          %d\n", s.Queries)
	fmt.Printf("mean best LWR:    %.4f\n", s.MeanBestLWR)
	fmt.Printf("median best LWR:  %.4f\n", s.MedianBestLWR)
	fmt.Printf("mean EDPL:        %.5f\n", s.MeanEDPL)
	fmt.Printf("mean candidates:  %.2f\n", s.MeanCandidates)
	fmt.Println("top placement-mass edges:")
	for _, em := range s.MassTopEdges {
		fmt.Printf("  edge %5d  mass %8.3f\n", em.Edge, em.Mass)
	}
	return nil
}
