// Command pplacer is the baseline placement tool of the paper's Fig. 5
// comparison: full-scan maximum-likelihood placement with all CLVs
// precomputed up front, and an on/off memory-saving mode that backs the CLV
// store with a file (the portable equivalent of the original pplacer's
// --mmap-file).
//
// Usage:
//
//	pplacer --tree ref.nwk --ref-msa ref.fasta --query q.fasta --out out.jplace
//	pplacer ... --mmap-file clvs.bin   # memory-saving mode
//	pplacer ... --strict               # abort on malformed queries instead of skipping
//
// Exit codes: 0 success, 1 input or usage error, 2 internal invariant
// violation (accounting leak or overcommit — a bug, not bad input).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/pplacer"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
	"phylomem/internal/tree"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pplacer:", err)
		code := 1
		if errors.Is(err, memacct.ErrNotDrained) || errors.Is(err, memacct.ErrOvercommit) {
			code = 2
		}
		os.Exit(code)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pplacer", flag.ContinueOnError)
	var (
		treeFile  = fs.String("tree", "", "reference tree (Newick)")
		refFile   = fs.String("ref-msa", "", "reference alignment (FASTA)")
		queryFile = fs.String("query", "", "aligned query sequences (FASTA)")
		outFile   = fs.String("out", "pplacer_result.jplace", "output jplace path")
		mmapFile  = fs.String("mmap-file", "", "enable memory saving: back the CLV store with this file (use a path or 'tmp')")
		keep      = fs.Int("keep", 7, "branches per query receiving optimization")
		threads   = fs.Int("threads", 1, "scoring worker threads")
		dataType  = fs.String("type", "NT", "data type: NT or AA")
		gamma     = fs.Float64("gamma", 1.0, "Gamma shape (4 categories); 0 disables")
		strict    = fs.Bool("strict", false, "abort on malformed query sequences instead of skipping them")
		statsJSON = fs.String("stats-json", "", "write a structured JSON run report (counters, memory, telemetry) to this file")
		verbose   = fs.Bool("verbose", false, "print statistics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: this command takes flags only", fs.Arg(0))
	}
	if *treeFile == "" || *refFile == "" || *queryFile == "" {
		return fmt.Errorf("--tree, --ref-msa and --query are required")
	}

	tr, part, alphabet, err := loadReference(*treeFile, *refFile, *dataType, *gamma)
	if err != nil {
		return err
	}
	qf, err := os.Open(*queryFile)
	if err != nil {
		return err
	}
	qseqs, err := seq.ReadFasta(qf)
	qf.Close()
	if err != nil {
		return err
	}
	var queries []placement.Query
	if *strict {
		queries, err = placement.EncodeQueries(alphabet, qseqs, part.Comp.OriginalWidth())
		if err != nil {
			return err
		}
	} else {
		var qerrs []*placement.QueryError
		queries, qerrs = placement.EncodeQueriesLenient(alphabet, qseqs, part.Comp.OriginalWidth())
		for _, qe := range qerrs {
			fmt.Fprintln(os.Stderr, "pplacer: skipping:", qe)
		}
	}

	cfg := pplacer.Config{KeepCount: *keep, Threads: *threads}
	if *statsJSON != "" {
		cfg.Telemetry = telemetry.NewSink()
	}
	if *mmapFile != "" {
		cfg.FileBacked = true
		if *mmapFile != "tmp" {
			cfg.FilePath = *mmapFile
		}
	}
	eng, err := pplacer.New(part, tr, cfg)
	if err != nil {
		return err
	}
	defer eng.Close()

	results, err := eng.Place(queries)
	if err != nil {
		return err
	}
	out, err := os.Create(*outFile)
	if err != nil {
		return err
	}
	doc := &jplace.Document{
		Tree:       jplace.TreeString(tr),
		Queries:    results,
		Invocation: "pplacer " + strings.Join(args, " "),
	}
	if err := jplace.Write(out, doc); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	st := eng.Stats()
	// Report() must run before Close releases the persistent accounting.
	if *statsJSON != "" {
		if err := telemetry.WriteJSONFile(*statsJSON, eng.Report()); err != nil {
			return err
		}
	}
	// End-of-run audit: Close asserts the accountant drained to zero; a
	// failure here is an internal error (exit 2).
	if err := eng.Close(); err != nil {
		return err
	}
	fmt.Printf("placed %d queries -> %s\n", len(results), *outFile)
	if *verbose {
		fmt.Printf("precompute %v, placement %v, store reads %d, peak %s\n",
			st.Precompute, st.PlaceTime, st.StoreReads, memacct.FormatBytes(st.PeakBytes))
	}
	return nil
}

func loadReference(treeFile, refFile, dataType string, gamma float64) (*tree.Tree, *phylo.Partition, *seq.Alphabet, error) {
	tdata, err := os.ReadFile(treeFile)
	if err != nil {
		return nil, nil, nil, err
	}
	tr, err := tree.ParseNewick(strings.TrimSpace(string(tdata)))
	if err != nil {
		return nil, nil, nil, err
	}
	rf, err := os.Open(refFile)
	if err != nil {
		return nil, nil, nil, err
	}
	refSeqs, err := seq.ReadFasta(rf)
	rf.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	var alphabet *seq.Alphabet
	var m *model.Model
	switch dataType {
	case "NT":
		alphabet = seq.DNA
		m, err = model.GTR([]float64{0.26, 0.24, 0.25, 0.25}, []float64{1, 2.5, 0.8, 1.1, 3.0, 1})
		if err != nil {
			return nil, nil, nil, err
		}
	case "AA":
		alphabet = seq.AA
		m = model.SyntheticAA()
	default:
		return nil, nil, nil, fmt.Errorf("unknown type %q", dataType)
	}
	msa, err := seq.NewMSA(alphabet, refSeqs)
	if err != nil {
		return nil, nil, nil, err
	}
	comp, err := seq.Compress(msa)
	if err != nil {
		return nil, nil, nil, err
	}
	rates := model.UniformRates()
	if gamma > 0 {
		rates, err = model.GammaRates(gamma, 4)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	part, err := phylo.NewPartition(m, rates, comp, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	return tr, part, alphabet, nil
}
