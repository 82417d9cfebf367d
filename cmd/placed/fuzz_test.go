package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
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
