package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phylomem/internal/refdb"
)

// FuzzTreeRouting hammers the `tree` routing layer with arbitrary query
// strings: the handler must never panic, must answer every request from the
// documented status classes, must only ever try to build trees that exist in
// the catalog, and must leave the fleet untouched (no warm tenants, zero
// global bytes) when every build fails. The seed corpus under
// testdata/fuzz/FuzzTreeRouting covers the id grammar's edges: the default
// fallback, percent-encoded traversal attempts, repeated parameters,
// overlong ids, and every accepted character class.
func FuzzTreeRouting(f *testing.F) {
	f.Add("tree=default")
	f.Add("tree=b.tree_1-x")
	f.Add("")
	f.Add("tree=")
	f.Add("tree=no-such-tree")
	f.Add("tree=..%2F..%2Fetc%2Fpasswd")
	f.Add("tree=a&tree=b")
	f.Add("tree=" + strings.Repeat("a", maxTreeIDLen+1))
	f.Add("tree=A-Za.z0_9")
	f.Add("x=1&y=2")
	f.Add("tree=%zz")
	f.Add("tree=sp%20ace")
	f.Fuzz(func(t *testing.T, raw string) {
		if len(raw) > 4096 {
			return // bound fuzz work, not an invariant
		}
		cat := &catalog{}
		for _, id := range []string{"default", "b.tree_1-x"} {
			if err := cat.add(&catalogEntry{id: id,
				load: func() (*refdb.Reference, error) { return nil, errors.New("fuzz: load disabled") },
			}); err != nil {
				t.Fatal(err)
			}
		}
		fl := newFleet(cat, fleetOptions{})
		srv := newServer(fl, serverOptions{})
		h := srv.handler()

		req := httptest.NewRequest(http.MethodPost, "/v1/place", strings.NewReader(">q\nACGT\n"))
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		id := req.URL.Query().Get("tree")
		switch rec.Code {
		case http.StatusBadRequest:
			// Multi-tree catalog: a missing id is a 400 too, so the only
			// contradiction is a well-formed id that exists.
			if id != "" && validTreeID(id) && cat.get(id) != nil {
				t.Fatalf("400 for well-formed known id %q", id)
			}
		case http.StatusNotFound:
			if !validTreeID(id) {
				t.Fatalf("404 for malformed id %q (must be 400)", id)
			}
			if cat.get(id) != nil {
				t.Fatalf("404 for known id %q", id)
			}
		case http.StatusInternalServerError:
			// The only path to a build attempt: a valid id the catalog knows.
			if cat.get(id) == nil {
				t.Fatalf("build attempted for unknown id %q", id)
			}
		default:
			t.Fatalf("query %q: unexpected status %d: %s", raw, rec.Code, rec.Body.String())
		}
		if validTreeID(id) {
			if len(id) == 0 || len(id) > maxTreeIDLen {
				t.Fatalf("validTreeID accepted %d-byte id", len(id))
			}
			if strings.ContainsAny(id, "/\\\x00 %?&=") {
				t.Fatalf("validTreeID accepted unsafe id %q", id)
			}
		}
		if got := len(fl.snapshotTenants()); got != 0 {
			t.Fatalf("%d tenants warm after failed builds", got)
		}
		if cur := fl.acct.Current(); cur != 0 {
			t.Fatalf("global accountant at %d bytes after failed builds", cur)
		}
		if err := fl.close(); err != nil {
			t.Fatalf("fleet close: %v", err)
		}
	})
}

// FuzzCatalogFile feeds arbitrary bytes to the catalog loader as a --catalog
// file: it must never panic, and a catalog it accepts holds at least one
// entry, every id valid and listed once, and no negative per-engine ceiling
// (a maxmem past int64 once wrapped to one with a nil error). It never calls
// an entry's loader, so no reference file is read.
func FuzzCatalogFile(f *testing.F) {
	f.Add([]byte(`{"trees": [{"id": "16s", "tree": "16s.nwk", "ref_msa": "16s.fasta"}]}`))
	f.Add([]byte(`{"trees": [{"id": "a", "db": "/abs/a.phydb", "maxmem": "512M"}, {"id": "b", "db": "b.phydb", "type": "AA", "emp_freqs": false}]}`))
	f.Add([]byte(`{"trees": [{"id": "a", "db": "a"}, {"id": "a", "db": "b"}]}`))
	f.Add([]byte(`{"trees": [{"id": "../x", "db": "a"}]}`))
	f.Add([]byte(`{"trees": [{"id": "a", "db": "a", "maxmem": "1e30"}]}`))
	f.Add([]byte(`{"trees": [{"id": "a", "db": "a", "maxmem": "-5M"}]}`))
	f.Add([]byte(`{"trees": [{"id": "a", "tree": "t.nwk"}]}`))
	f.Add([]byte(`{"trees": []}`))
	f.Add([]byte(`{"trees": [null, 1, "x"]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound fuzz work, not an invariant
		}
		path := filepath.Join(t.TempDir(), "catalog.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		cat, err := loadCatalogFile(path, 1<<20)
		if err != nil {
			return
		}
		if len(cat.order) == 0 || len(cat.order) != len(cat.entries) {
			t.Fatalf("catalog of %d ids, %d entries", len(cat.order), len(cat.entries))
		}
		for _, id := range cat.order {
			e := cat.get(id)
			if !validTreeID(id) || e == nil || e.id != id {
				t.Fatalf("catalog id %q: entry %+v", id, e)
			}
			if e.maxMem < 0 {
				t.Fatalf("tree %q: negative maxmem %d", id, e.maxMem)
			}
		}
	})
}
