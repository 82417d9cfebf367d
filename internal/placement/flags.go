package placement

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strconv"

	"phylomem/internal/core"
	"phylomem/internal/memacct"
)

// engineFlag is one engine option of the command-line surface: its name, its
// help text, and the flag.Value that parses, range-checks and writes the
// Config field it configures. The field's value at bind time is the default.
type engineFlag struct {
	name, help string
	value      func(*Config) flag.Value
}

// engineFlags is the one declaration of every engine option. epang, placed
// and pewo each bind the subset they expose by name (BindFlags); none of them
// declares an engine flag, its help text or its validation itself.
var engineFlags = []engineFlag{
	{"maxmem", "memory ceiling of one engine, e.g. 4G or 512M (empty = unlimited)",
		func(c *Config) flag.Value { return bytesFlag{&c.MaxMem} }},
	{"chunk-size", "queries per chunk",
		func(c *Config) flag.Value { return intFlag{&c.ChunkSize, 1} }},
	{"block-size", "branches per precompute block",
		func(c *Config) flag.Value { return intFlag{&c.BlockSize, 1} }},
	{"threads", "placement worker threads",
		func(c *Config) flag.Value { return intFlag{&c.Threads, 1} }},
	{"no-heur", "disable the pre-placement lookup table heuristic",
		func(c *Config) flag.Value { return boolFlag{&c.DisableLookup} }},
	{"strict", "abort on malformed query sequences instead of skipping them",
		func(c *Config) flag.Value { return boolFlag{&c.Strict} }},
	{"scoring", "scoring mode: ml (optimized likelihoods) or bayes (posterior probabilities via branch-length integration)",
		func(c *Config) flag.Value { return scoringFlag{&c.Scoring} }},
	{"edpl", "compute each query's expected distance between placement locations and write it to the jplace output",
		func(c *Config) flag.Value { return boolFlag{&c.EDPL} }},
	{"bayes-pendant-nodes", "pendant-length quadrature order for --scoring=bayes (0 = default 8)",
		func(c *Config) flag.Value { return intFlag{&c.BayesPendantNodes, 0} }},
	{"bayes-proximal-nodes", "proximal-position quadrature order for --scoring=bayes (0 = default 4)",
		func(c *Config) flag.Value { return intFlag{&c.BayesProximalNodes, 0} }},
	{"clv-spill", "spill evicted CLVs to a disk tier and reload them instead of recomputing; --clv-spill=discard|spill|hybrid picks the per-victim decision, bare means hybrid (AMC only; output is byte-identical)",
		func(c *Config) flag.Value { return core.SpillFlag{Policy: &c.SpillPolicy} }},
	{"clv-spill-path", "spill store file (empty = temporary file, removed on exit; placed appends the tree id under a multi-tree catalog)",
		func(c *Config) flag.Value { return stringFlag{&c.SpillPath} }},
	{"sync-precompute", "synchronous across-site branch-block precompute (experimental)",
		func(c *Config) flag.Value { return boolFlag{&c.SyncPrecompute} }},
}

// BindFlags declares the named engine options on fs. Each flag writes
// straight into its cfg field, so after fs.Parse the Config is complete; an
// out-of-range or unparsable value is a usage error from fs.Parse. A name
// that is not an engine option is a bug in the caller and panics.
func BindFlags(fs *flag.FlagSet, cfg *Config, names ...string) {
	for _, name := range names {
		f := engineFlagByName(name)
		fs.Var(f.value(cfg), name, f.help)
	}
}

func engineFlagByName(name string) engineFlag {
	for _, f := range engineFlags {
		if f.name == name {
			return f
		}
	}
	panic(fmt.Sprintf("placement: %q is not an engine flag", name))
}

// ExitCode separates a command's failure classes for scripting: 1 is an
// input or usage error, 2 an internal invariant violation (slot-map
// corruption, accounting leak or overcommit — a bug, not bad input), 130 an
// interrupt (the shell convention for SIGINT).
func ExitCode(err error) int {
	switch {
	case errors.Is(err, core.ErrInvariant),
		errors.Is(err, memacct.ErrNotDrained),
		errors.Is(err, memacct.ErrOvercommit):
		return 2
	case errors.Is(err, context.Canceled):
		return 130
	}
	return 1
}

// The flag.Value types below all write through a pointer into the Config and
// render the pointed-at value as the flag's default; a nil pointer (the zero
// Value the flag package builds to detect zero defaults) reads as zero or empty.

// intFlag is an integer option with a lower bound.
type intFlag struct {
	p   *int
	min int
}

func (f intFlag) String() string {
	if f.p == nil {
		return "0"
	}
	return strconv.Itoa(*f.p)
}

func (f intFlag) Set(s string) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return errors.New("want an integer")
	}
	if v < f.min {
		return fmt.Errorf("must be at least %d", f.min)
	}
	*f.p = v
	return nil
}

// boolFlag is a switch.
type boolFlag struct{ p *bool }

func (f boolFlag) String() string { return strconv.FormatBool(f.p != nil && *f.p) }

func (f boolFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return errors.New("want true or false")
	}
	*f.p = v
	return nil
}

func (boolFlag) IsBoolFlag() bool { return true }

type stringFlag struct{ p *string }

func (f stringFlag) String() string {
	if f.p == nil {
		return ""
	}
	return *f.p
}

func (f stringFlag) Set(s string) error { *f.p = s; return nil }

// bytesFlag is a byte count in memacct.ParseBytes syntax; empty means 0.
type bytesFlag struct{ p *int64 }

func (f bytesFlag) String() string {
	if f.p == nil || *f.p == 0 {
		return ""
	}
	return strconv.FormatInt(*f.p, 10)
}

func (f bytesFlag) Set(s string) (err error) {
	*f.p = 0
	if s != "" {
		*f.p, err = memacct.ParseBytes(s)
	}
	return err
}

type scoringFlag struct{ p *ScoringMode }

func (f scoringFlag) String() string {
	switch {
	case f.p == nil:
		return ""
	case *f.p == "":
		return string(ScoringML)
	}
	return string(*f.p)
}

func (f scoringFlag) Set(s string) (err error) {
	*f.p, err = ParseScoringMode(s)
	return err
}
