package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"phylomem/internal/memacct"
	"phylomem/internal/refdb"
)

// maxTreeIDLen bounds a tree id; ids are echoed into accountant categories,
// telemetry, and error bodies, so they stay short and filename-safe.
const maxTreeIDLen = 64

// validTreeID reports whether s is an acceptable tree id: 1–64 characters
// from [A-Za-z0-9._-]. The routing fuzz target hammers this together with
// the catalog lookup; anything else in `?tree=` is a 400, never a panic and
// never a path or category-name injection.
func validTreeID(s string) bool {
	if len(s) == 0 || len(s) > maxTreeIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// catalogEntry is one reference tree the fleet can serve: an id, a loader
// that resolves the reference data on first use (engines are built lazily),
// and the per-engine memory ceiling its planner runs under.
type catalogEntry struct {
	id     string
	maxMem int64 // per-engine budget (0 = unlimited)
	load   func() (*refdb.Reference, error)
}

// catalog is the fleet's tree registry, id → entry plus the file order (the
// deterministic iteration order for reports).
type catalog struct {
	entries map[string]*catalogEntry
	order   []string
}

// get resolves an id, nil when unknown.
func (c *catalog) get(id string) *catalogEntry { return c.entries[id] }

// defaultID returns the id requests may omit `tree` for: the sole entry of a
// single-tree catalog. Multi-tree catalogs have no default — the tree id is
// then part of the request contract.
func (c *catalog) defaultID() string {
	if len(c.order) == 1 {
		return c.order[0]
	}
	return ""
}

// add registers an entry, refusing duplicate or malformed ids.
func (c *catalog) add(e *catalogEntry) error {
	if !validTreeID(e.id) {
		return fmt.Errorf("catalog: invalid tree id %q (want 1-%d chars of [A-Za-z0-9._-])", e.id, maxTreeIDLen)
	}
	if _, dup := c.entries[e.id]; dup {
		return fmt.Errorf("catalog: duplicate tree id %q", e.id)
	}
	if c.entries == nil {
		c.entries = make(map[string]*catalogEntry)
	}
	c.entries[e.id] = e
	c.order = append(c.order, e.id)
	return nil
}

// catalogRow is one row of the checked-in catalog file: an id, an optional
// per-engine ceiling, and the reference as refdb.Source spells it. Either db
// or tree+ref_msa names the reference; the other fields default as the
// single-tree CLI flags do.
type catalogRow struct {
	ID     string `json:"id"`
	MaxMem string `json:"maxmem"`
	refdb.Source
}

// catalogFile is the on-disk catalog format:
//
//	{"trees": [{"id": "16s", "tree": "16s.nwk", "ref_msa": "16s.fasta"},
//	           {"id": "fungi", "db": "fungi.phydb", "maxmem": "512M"}]}
//
// Relative paths resolve against the catalog file's directory, so the file
// can live next to its data and be checked in as a unit.
type catalogFile struct {
	Trees []json.RawMessage `json:"trees"`
}

// loadCatalogFile parses a catalog file into lazy entries. defaultMaxMem is
// the --maxmem flag, used for entries without their own ceiling.
func loadCatalogFile(path string, defaultMaxMem int64) (*catalog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cf catalogFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("catalog %s: %w", path, err)
	}
	if len(cf.Trees) == 0 {
		return nil, fmt.Errorf("catalog %s: no trees", path)
	}
	dir := filepath.Dir(path)
	resolve := func(p *string) {
		if *p != "" && !filepath.IsAbs(*p) {
			*p = filepath.Join(dir, *p)
		}
	}
	cat := &catalog{}
	for _, raw := range cf.Trees {
		// Decoded over the flags' default, so an absent emp_freqs is true.
		row := catalogRow{Source: refdb.Source{EmpFreqs: true}}
		if err := json.Unmarshal(raw, &row); err != nil {
			return nil, fmt.Errorf("catalog %s: %w", path, err)
		}
		if row.DB == "" && (row.Tree == "" || row.RefMSA == "") {
			return nil, fmt.Errorf("catalog %s: tree %q needs either db or tree+ref_msa", path, row.ID)
		}
		maxMem := defaultMaxMem
		if row.MaxMem != "" {
			if maxMem, err = memacct.ParseBytes(row.MaxMem); err != nil {
				return nil, fmt.Errorf("catalog %s: tree %q maxmem: %w", path, row.ID, err)
			}
		}
		resolve(&row.DB)
		resolve(&row.Tree)
		resolve(&row.RefMSA)
		if err := cat.add(&catalogEntry{id: row.ID, maxMem: maxMem, load: row.Source.Open}); err != nil {
			return nil, err
		}
	}
	return cat, nil
}
