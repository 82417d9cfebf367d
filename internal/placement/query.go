// Package placement implements the EPA-NG equivalent: maximum-likelihood
// phylogenetic placement of query sequences on a fixed reference tree, with
// the paper's memory-saving machinery — budget-driven mode selection
// (internal/memacct), slot-managed CLVs (internal/core), the pre-placement
// lookup table memoization, query chunking, and branch-block precomputation
// with an asynchronous double-buffered pipeline.
//
// Every kernel reads its CLVs as phylo.Operands acquired from one store, the
// core.Manager's slot pool: filled with every CLV in reference mode, smaller
// under AMC. Enabling Active Management of CLVs therefore changes only where
// CLVs live, never the placement results: AMC on/off, slot counts,
// replacement strategies, and thread counts all produce bit-identical output.
package placement

import (
	"errors"
	"fmt"

	"phylomem/internal/seq"
)

// Query is one query sequence, encoded as per-site state bitmasks aligned to
// the reference alignment's columns.
type Query struct {
	Name  string
	Codes []uint32
}

// ErrQueryMalformed marks a query that failed validation or encoding (wrong
// alignment width, invalid character). Malformed queries are a per-query
// event, not a run-killer: by default the engine skips them (counting the
// skips in RunStats.QueriesSkipped) and Config.Strict restores the abort.
// Test with errors.Is; retrieve the query's name and input ordinal with
// errors.As on *QueryError.
var ErrQueryMalformed = errors.New("placement: malformed query")

// QueryError identifies one malformed query by name and 0-based position in
// the input stream. It matches ErrQueryMalformed under errors.Is and
// unwraps to the underlying cause.
type QueryError struct {
	Name  string
	Index int
	Err   error
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("placement: malformed query %q (input #%d): %v", e.Name, e.Index, e.Err)
}

// Unwrap lets errors.Is see both the sentinel and the cause.
func (e *QueryError) Unwrap() []error { return []error{ErrQueryMalformed, e.Err} }

// EncodeQueries validates and encodes aligned query sequences, the strict
// drain of a SequenceSource: every query must have exactly the reference
// alignment's width, and the first malformed query aborts with a *QueryError.
func EncodeQueries(a *seq.Alphabet, seqs []seq.Sequence, width int) ([]Query, error) {
	out, _, err := ReadQueries(NewSequenceSource(seqs, a, width), true)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// QueryBytes returns the accounted footprint of a set of encoded queries.
func QueryBytes(qs []Query) int64 {
	var b int64
	for _, q := range qs {
		b += int64(len(q.Codes)) * 4
	}
	return b
}
