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
	"flag"
	"fmt"
	"os"
	"strings"

	"phylomem/internal/jplace"
	"phylomem/internal/memacct"
	"phylomem/internal/placement"
	"phylomem/internal/pplacer"
	"phylomem/internal/refdb"
	"phylomem/internal/seq"
	"phylomem/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pplacer:", err)
		os.Exit(placement.ExitCode(err))
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

	// The reference epang opens from the same files: GTR+G4 (SYNAA+G4 for AA)
	// with empirical frequencies.
	ref, err := refdb.Source{Tree: *treeFile, RefMSA: *refFile, Type: *dataType, EmpFreqs: true}.Open()
	if err != nil {
		return err
	}
	part, err := ref.Partition()
	if err != nil {
		return err
	}
	tr, alphabet := ref.Tree, ref.Alphabet
	qf, err := os.Open(*queryFile)
	if err != nil {
		return err
	}
	qseqs, err := seq.ReadFasta(qf)
	qf.Close()
	if err != nil {
		return err
	}
	src := placement.NewSequenceSource(qseqs, alphabet, part.Comp.OriginalWidth())
	queries, qerrs, err := placement.ReadQueries(src, *strict)
	if err != nil {
		return err
	}
	for _, qe := range qerrs {
		fmt.Fprintln(os.Stderr, "pplacer: skipping:", qe)
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
