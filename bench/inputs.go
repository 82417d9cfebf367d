package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"phylomem/internal/mlfit"
	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/placement"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
	"phylomem/internal/workload"
)

// inputs is one workload's seed-generated data: the files handed to the
// program under test, plus the in-process view the checks and the traced
// pass need.
type inputs struct {
	ds   *workload.Dataset
	seed int64  // the simulator seed this dataset came from
	dir  string // this dataset's files and outputs

	treeFile, refFile, queryFile, oneQueryFile string

	// tr is the reference tree as the programs see it — parsed back from the
	// Newick file, so its edge numbers are the ones jplace output uses.
	// origins[i] is query i's true origin node in tr.
	tr      *tree.Tree
	origins []*tree.Node

	// The reference loaded the way epang loads it (empirical frequencies,
	// default model spec), shared by the planner check and the traced pass.
	part *phylo.Partition
	msa  *seq.MSA
}

// simConfig maps a workload spec onto the simulator, with the model
// parameters of the canonical datasets of the same flavour
// (workload.Neotrop, ProRef, Serratus).
func simConfig(sp *spec, seed int64, queries int) (workload.SimConfig, error) {
	cfg := workload.SimConfig{
		Name: sp.name, Leaves: sp.leaves, Sites: sp.sites, NumQueries: queries,
		Seed: seed, QueryCoverage: sp.coverage,
	}
	var err error
	switch {
	case sp.aa:
		cfg.Alphabet = seq.AA
		cfg.Model = model.SyntheticAA()
		cfg.Rates, err = model.GammaRates(1.0, 4)
	case sp.memFraction > 0:
		cfg.Alphabet = seq.DNA
		if cfg.Model, err = model.GTR([]float64{0.25, 0.23, 0.27, 0.25}, []float64{1.0, 2.5, 0.8, 1.1, 2.8, 1.0}); err == nil {
			cfg.Rates, err = model.GammaRates(0.9, 4)
		}
	default:
		cfg.Alphabet = seq.DNA
		if cfg.Model, err = model.GTR([]float64{0.28, 0.22, 0.24, 0.26}, []float64{1.1, 2.9, 0.7, 0.9, 3.2, 1.0}); err == nil {
			cfg.Rates, err = model.GammaRates(0.7, 4)
		}
	}
	return cfg, err
}

// numQueries is how many queries each of the run's datasets holds. A batch
// workload pins it; serve-mixed needs a pool that lasts both phases of the
// load one server gets.
func (r *run) numQueries(traced bool) int {
	if !r.spec.serve {
		return r.spec.queries
	}
	return max(serveVerifyCount, r.load(traced).requests()*(requestQueries-requestRepeats))
}

// generateAll derives the run's datasets from --seed; runs on consecutive
// seeds share no dataset.
func generateAll(sp *spec, seed int64, queries int, workDir string) ([]*inputs, error) {
	ins := make([]*inputs, sp.datasets)
	for k := range ins {
		dir := filepath.Join(workDir, fmt.Sprintf("data%d", k))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if ins[k], err = generate(sp, seed*maxDatasets+int64(k), queries, dir); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// generate simulates one dataset from its seed and writes the files the
// binaries read into dir.
func generate(sp *spec, seed int64, queries int, dir string) (*inputs, error) {
	cfg, err := simConfig(sp, seed, queries)
	if err != nil {
		return nil, err
	}
	ds, err := workload.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		ds:           ds,
		seed:         seed,
		dir:          dir,
		treeFile:     filepath.Join(dir, "reference.nwk"),
		refFile:      filepath.Join(dir, "reference.fasta"),
		queryFile:    filepath.Join(dir, "queries.fasta"),
		oneQueryFile: filepath.Join(dir, "one_query.fasta"),
	}
	newick := ds.Tree.WriteNewick()
	if err := os.WriteFile(in.treeFile, []byte(newick+"\n"), 0o644); err != nil {
		return nil, err
	}
	for _, f := range []struct {
		path string
		seqs []seq.Sequence
	}{{in.refFile, ds.RefMSA.Sequences}, {in.queryFile, ds.Queries}, {in.oneQueryFile, ds.Queries[:1]}} {
		if err := os.WriteFile(f.path, fastaBytes(f.seqs), 0o644); err != nil {
			return nil, err
		}
	}
	if in.tr, err = tree.ParseNewick(newick); err != nil {
		return nil, err
	}
	if in.origins, err = mapNodes(ds.Tree, in.tr, ds.QueryOrigins); err != nil {
		return nil, err
	}
	in.msa = ds.RefMSA
	if in.part, err = loadPartition(sp, in.msa, in.tr); err != nil {
		return nil, err
	}
	return in, nil
}

func fastaBytes(seqs []seq.Sequence) []byte {
	var buf bytes.Buffer
	_ = seq.WriteFasta(&buf, seqs) // a bytes.Buffer never fails a write
	return buf.Bytes()
}

func (sp *spec) alphabet() *seq.Alphabet {
	if sp.aa {
		return seq.AA
	}
	return seq.DNA
}

// chunkSize is the --chunk-size in effect; serve-mixed leaves placed's
// default.
func (sp *spec) chunkSize() int {
	if sp.chunk > 0 {
		return sp.chunk
	}
	return 5000
}

// modelSpec is the model both binaries default to for the data type.
func (sp *spec) modelSpec() string {
	if sp.aa {
		return "SYNAA+G4"
	}
	return "GTR+G4"
}

// loadPartition mirrors what epang and placed do between reading the
// reference alignment and building the engine.
func loadPartition(sp *spec, msa *seq.MSA, tr *tree.Tree) (*phylo.Partition, error) {
	freqs, err := mlfit.EmpiricalFreqs(msa)
	if err != nil {
		return nil, err
	}
	m, rates, err := model.ParseSpec(sp.modelSpec(), freqs)
	if err != nil {
		return nil, err
	}
	comp, err := seq.Compress(msa)
	if err != nil {
		return nil, err
	}
	return phylo.NewPartition(m, rates, comp, tr)
}

// engineConfig is the placement.Config the workload's command line produces
// in epang / placed; maxMem comes from maxMemBytes.
func (sp *spec) engineConfig(maxMem int64) placement.Config {
	cfg := placement.DefaultConfig()
	cfg.Threads = sp.threads
	cfg.ChunkSize = sp.chunkSize()
	cfg.MaxMem = maxMem
	if sp.bayes {
		cfg.Scoring = placement.ScoringBayes
		cfg.EDPL = true
	}
	return cfg
}

// maxMemBytes turns the workload's pinned budget fraction into the --maxmem
// value for this dataset (0 = unlimited), and checks that the planner lands
// in the regime the workload exists to exercise. reference is the planned
// footprint with memory saving off, the denominator of the fraction.
func (in *inputs) maxMemBytes(sp *spec) (maxMem, reference int64, err error) {
	ref, err := placement.PlanFor(in.part, in.tr, sp.engineConfig(0))
	if err != nil {
		return 0, 0, err
	}
	if sp.memFraction > 0 {
		maxMem = int64(sp.memFraction * float64(ref.TotalBytes))
	}
	plan, err := placement.PlanFor(in.part, in.tr, sp.engineConfig(maxMem))
	if err != nil {
		return 0, 0, err
	}
	if plan.AMC != sp.wantAMC || plan.LookupEnabled != sp.wantLookup {
		return 0, 0, fmt.Errorf("%s: planner chose AMC=%v lookup=%v at --maxmem %d, workload needs AMC=%v lookup=%v",
			sp.name, plan.AMC, plan.LookupEnabled, maxMem, sp.wantAMC, sp.wantLookup)
	}
	return maxMem, ref.TotalBytes, nil
}

// mapNodes translates nodes of the simulator's tree into the same nodes of
// the tree parsed back from its Newick string (parsing renumbers nodes and
// edges). A node is identified by the leaf sets its incident branches cut
// off, hashed order-independently.
func mapNodes(from, to *tree.Tree, nodes []*tree.Node) ([]*tree.Node, error) {
	bySig := make(map[uint64]*tree.Node, len(to.Nodes))
	for i, sig := range nodeSignatures(to) {
		bySig[sig] = to.Nodes[i]
	}
	if len(bySig) != len(to.Nodes) {
		return nil, fmt.Errorf("node signatures collide (%d nodes, %d signatures)", len(to.Nodes), len(bySig))
	}
	fromSig := nodeSignatures(from)
	out := make([]*tree.Node, len(nodes))
	for i, n := range nodes {
		m, ok := bySig[fromSig[n.ID]]
		if !ok {
			return nil, fmt.Errorf("origin node %d has no counterpart in the parsed tree", n.ID)
		}
		out[i] = m
	}
	return out, nil
}

// nodeSignatures returns one signature per node, indexed like t.Nodes.
func nodeSignatures(t *tree.Tree) []uint64 {
	leafHash := func(name string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(name))
		return h.Sum64()
	}
	var total uint64
	for _, l := range t.Leaves() {
		total += leafHash(l.Name)
	}
	// below[n] = hash sum of the leaves on n's side of the edge to its
	// parent, for a traversal rooted at node 0 (iterative post-order).
	below := make([]uint64, len(t.Nodes))
	parent := make([]*tree.Edge, len(t.Nodes))
	order := make([]*tree.Node, 0, len(t.Nodes))
	stack := []*tree.Node{t.Nodes[0]}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, n)
		for _, e := range n.Edges {
			if e != parent[n.ID] {
				c := e.Other(n)
				parent[c.ID] = e
				stack = append(stack, c)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.IsLeaf() {
			below[n.ID] += leafHash(n.Name)
		}
		if p := parent[n.ID]; p != nil {
			below[p.Other(n).ID] += below[n.ID]
		}
	}
	mix := func(x uint64) uint64 { x ^= x >> 31; x *= 0x9e3779b97f4a7c15; return x ^ x>>29 }
	sigs := make([]uint64, len(t.Nodes))
	for _, n := range t.Nodes {
		var sig uint64
		for _, e := range n.Edges {
			far := below[e.Other(n).ID] // the neighbour is a child: its own subtree
			if e == parent[n.ID] {
				far = total - below[n.ID] // the neighbour is the parent: everything else
			}
			sig += mix(far)
		}
		sigs[n.ID] = sig
	}
	return sigs
}

// request is one HTTP request of serve-mixed: its FASTA body and the pool
// indices of the queries it carries (fresh ones first, then repeats).
type request struct {
	body    []byte
	queries []int
}

// requestStream builds the serve-mixed request sequence of one dataset
// from its seed:
// each request draws requestQueries-requestRepeats fresh pool queries in
// order and requestRepeats queries already sent by an earlier request, so
// every request carries cache misses (latency stays unimodal) while the
// repeats keep the result cache doing real work. The stream ends when the
// pool is exhausted.
func requestStream(in *inputs) []request {
	ds := in.ds
	rng := rand.New(rand.NewSource(in.seed ^ 0x5e7e))
	fresh := requestQueries - requestRepeats
	var out []request
	for next := 0; next+fresh <= len(ds.Queries); next += fresh {
		req := request{}
		for i := 0; i < fresh; i++ {
			req.queries = append(req.queries, next+i)
		}
		for len(req.queries) < requestQueries && next > 0 {
			cand := rng.Intn(next)
			dup := false
			for _, q := range req.queries {
				dup = dup || q == cand
			}
			if !dup {
				req.queries = append(req.queries, cand)
			}
		}
		seqs := make([]seq.Sequence, len(req.queries))
		for i, q := range req.queries {
			seqs[i] = ds.Queries[q]
		}
		req.body = fastaBytes(seqs)
		out = append(out, req)
	}
	return out
}

// epangArgs is the command line of the batch program under test. No
// --stats-json and no --trace: both switch the telemetry sink on.
func (sp *spec) epangArgs(in *inputs, queryFile, outFile string, maxMem int64) []string {
	args := []string{
		"--tree", in.treeFile, "--ref-msa", in.refFile, "--query", queryFile, "--out", outFile,
		"--threads", fmt.Sprint(sp.threads), "--chunk-size", fmt.Sprint(sp.chunkSize()),
	}
	if sp.aa {
		args = append(args, "--type", "AA")
	}
	if maxMem > 0 {
		args = append(args, "--maxmem", fmt.Sprint(maxMem))
	}
	if sp.spill {
		args = append(args, "--clv-spill")
	}
	if sp.bayes {
		args = append(args, "--scoring", "bayes", "--edpl")
	}
	return args
}

// fullMemoryArgs is the same run with memory saving off: the reference the
// memory-limited workloads are checked and timed against.
func (sp *spec) fullMemoryArgs(in *inputs, outFile string) []string {
	unlimited := *sp
	unlimited.spill = false
	return unlimited.epangArgs(in, in.queryFile, outFile, 0)
}

// describe is a one-line summary of the command under test for the log.
func describe(args []string, dir string) string {
	return strings.ReplaceAll(strings.Join(args, " "), dir+string(filepath.Separator), "")
}
