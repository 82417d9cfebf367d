// Package refdb serializes a prepared placement reference — tree, alignment
// and evaluated model — into a single binary database, the two-phase design
// of the paper's related work (RAPpAS): build the reference once, possibly
// on bigger hardware and with ML fitting, then run many placement jobs
// against it without repeating the preprocessing.
package refdb

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"strings"

	"phylomem/internal/model"
	"phylomem/internal/phylo"
	"phylomem/internal/seq"
	"phylomem/internal/tree"
)

// record is the on-disk form (gob-encoded behind a magic header).
type record struct {
	Newick   string
	Fasta    []byte
	DataType string // "NT" or "AA"
	Spec     string // model spec in the model.ParseSpec syntax
	Freqs    []float64
}

const magic = "phylomem-refdb-v1\n"

// Reference is a loaded, ready-to-place reference.
type Reference struct {
	Tree     *tree.Tree
	MSA      *seq.MSA
	Alphabet *seq.Alphabet
	Model    *model.Model
	Rates    *model.RateHet
	Spec     string
	// Freqs are the explicit stationary frequencies the model was evaluated
	// with (nil = the spec's own), as Save persists them.
	Freqs []float64
}

// Partition compresses the reference alignment and binds it to the tree and
// model: what every placement engine scores against.
func (r *Reference) Partition() (*phylo.Partition, error) {
	comp, err := seq.Compress(r.MSA)
	if err != nil {
		return nil, err
	}
	return phylo.NewPartition(r.Model, r.Rates, comp, r.Tree)
}

// Save writes a reference database: the tree, the reference alignment, and
// a model spec (model.ParseSpec syntax, e.g. "GTR{1.1/2.9/...}+G4{0.7}")
// with optional explicit stationary frequencies (nil = uniform/spec-defined).
func Save(w io.Writer, tr *tree.Tree, msa *seq.MSA, spec string, freqs []float64) error {
	// Validate the spec before persisting anything.
	if _, _, err := model.ParseSpec(spec, freqs); err != nil {
		return fmt.Errorf("refdb: invalid model spec: %w", err)
	}
	var fasta bytes.Buffer
	if err := seq.WriteFasta(&fasta, msa.Sequences); err != nil {
		return err
	}
	dataType := "NT"
	if msa.Alphabet.States() == 20 {
		dataType = "AA"
	}
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(record{
		Newick:   tr.WriteNewick(),
		Fasta:    fasta.Bytes(),
		DataType: dataType,
		Spec:     spec,
		Freqs:    freqs,
	})
}

// Load reads a reference database and reconstructs all components.
func Load(r io.Reader) (*Reference, error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("refdb: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("refdb: not a reference database (bad magic)")
	}
	var rec record
	if err := gob.NewDecoder(r).Decode(&rec); err != nil {
		return nil, fmt.Errorf("refdb: decoding: %w", err)
	}
	tr, err := tree.ParseNewick(strings.TrimSpace(rec.Newick))
	if err != nil {
		return nil, fmt.Errorf("refdb: tree: %w", err)
	}
	alphabet := seq.DNA
	if rec.DataType == "AA" {
		alphabet = seq.AA
	} else if rec.DataType != "NT" {
		return nil, fmt.Errorf("refdb: unknown data type %q", rec.DataType)
	}
	seqs, err := seq.ReadFasta(bytes.NewReader(rec.Fasta))
	if err != nil {
		return nil, fmt.Errorf("refdb: alignment: %w", err)
	}
	msa, err := seq.NewMSA(alphabet, seqs)
	if err != nil {
		return nil, fmt.Errorf("refdb: alignment: %w", err)
	}
	m, rates, err := model.ParseSpec(rec.Spec, rec.Freqs)
	if err != nil {
		return nil, fmt.Errorf("refdb: model: %w", err)
	}
	// Cross-validate: every tree leaf must be in the alignment.
	for _, leaf := range tr.Leaves() {
		if msa.Index(leaf.Name) < 0 {
			return nil, fmt.Errorf("refdb: leaf %q missing from stored alignment", leaf.Name)
		}
	}
	return &Reference{Tree: tr, MSA: msa, Alphabet: alphabet, Model: m, Rates: rates, Spec: rec.Spec, Freqs: rec.Freqs}, nil
}
