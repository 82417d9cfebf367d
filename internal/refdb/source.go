package refdb

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"phylomem/internal/mlfit"
	"phylomem/internal/model"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// Source names a reference the way a command line or a catalog row does: one
// database file, or a tree and an alignment with the model to evaluate them
// under. Open is the one resolution of either form into a Reference. The
// json tags are the flag names with underscores, the keys of a placed
// catalog row.
type Source struct {
	DB       string `json:"db"`        // refdb file; answers every field below
	Tree     string `json:"tree"`      // Newick file
	RefMSA   string `json:"ref_msa"`   // reference alignment (FASTA)
	Model    string `json:"model"`     // model.ParseSpec syntax; empty = GTR+G4 (NT) or SYNAA+G4 (AA)
	Type     string `json:"type"`      // "NT" or "AA"; empty = NT
	EmpFreqs bool   `json:"emp_freqs"` // stationary frequencies from the alignment instead of the spec's
}

// sourceFlags name a tree + alignment reference; --db answers all of them.
var sourceFlags = []string{"tree", "ref-msa", "model", "type", "emp-freqs"}

// BindFlags declares the reference flags on fs, writing into s.
func (s *Source) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.DB, "db", "", "load the reference (tree+alignment+model) from a refdb file instead of --tree/--ref-msa/--model")
	fs.StringVar(&s.Tree, "tree", "", "reference tree (Newick)")
	fs.StringVar(&s.RefMSA, "ref-msa", "", "reference alignment (FASTA)")
	fs.StringVar(&s.Model, "model", "", "substitution model spec, e.g. GTR+G4{0.5} (default: GTR+G4 for NT, SYNAA+G4 for AA)")
	fs.StringVar(&s.Type, "type", "NT", "data type: NT or AA")
	fs.BoolVar(&s.EmpFreqs, "emp-freqs", true, "use empirical stationary frequencies from the reference alignment")
}

// CheckFlags rejects a parsed command line that names the reference twice.
// by is a flag that names a whole reference by itself ("db", or placed's
// "catalog"): a tree + alignment flag given explicitly beside it — or one of
// also, the caller's flags that only act on such a reference — would
// otherwise be ignored without a word.
func CheckFlags(fs *flag.FlagSet, by string, also ...string) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set[by] {
		return nil
	}
	for _, name := range append(sourceFlags, also...) {
		if set[name] {
			return fmt.Errorf("--%s and --%s are mutually exclusive: --%[1]s already names the tree, alignment and model", by, name)
		}
	}
	return nil
}

// Open resolves the source into a ready-to-place reference.
func (s Source) Open() (*Reference, error) {
	if s.DB != "" {
		f, err := os.Open(s.DB)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return Load(f)
	}
	tr, err := s.ReadTree()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(s.RefMSA)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	seqs, err := seq.ReadFasta(f)
	if err != nil {
		return nil, err
	}
	return s.Assemble(tr, seqs)
}

// ReadTree parses the source's Newick file.
func (s Source) ReadTree() (*tree.Tree, error) {
	data, err := os.ReadFile(s.Tree)
	if err != nil {
		return nil, err
	}
	return tree.ParseNewick(strings.TrimSpace(string(data)))
}

// Alphabet resolves the source's data type.
func (s Source) Alphabet() (*seq.Alphabet, error) {
	switch s.Type {
	case "", "NT":
		return seq.DNA, nil
	case "AA":
		return seq.AA, nil
	}
	return nil, fmt.Errorf("unknown type %q (want NT or AA)", s.Type)
}

// Assemble builds the reference from an already parsed tree and reference
// sequences (epang --split cuts them out of a combined alignment), applying
// the source's data type, default-spec rule and frequency choice.
func (s Source) Assemble(tr *tree.Tree, refSeqs []seq.Sequence) (*Reference, error) {
	alphabet, err := s.Alphabet()
	if err != nil {
		return nil, err
	}
	msa, err := seq.NewMSA(alphabet, refSeqs)
	if err != nil {
		return nil, err
	}
	spec := s.Model
	if spec == "" {
		spec = "GTR+G4"
		if alphabet == seq.AA {
			spec = "SYNAA+G4"
		}
	}
	var freqs []float64
	if s.EmpFreqs {
		if freqs, err = mlfit.EmpiricalFreqs(msa); err != nil {
			return nil, err
		}
	}
	m, rates, err := model.ParseSpec(spec, freqs)
	if err != nil {
		return nil, err
	}
	return &Reference{Tree: tr, MSA: msa, Alphabet: alphabet, Model: m, Rates: rates, Spec: spec, Freqs: freqs}, nil
}
