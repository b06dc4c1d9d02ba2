package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzParseSelection fuzzes parseQuery, the one parser of the browse
// routes' query strings, over (route, raw query string). It must never
// panic, every limit it accepts must lie within the route's bounds, and
// every rejection must reach the client as a 400 in the unified
// envelope, carrying the parser's message.
func FuzzParseSelection(f *testing.F) {
	s := testServer(f)
	paths := map[string]string{
		"facets": "/api/v1/facets", "docs": "/api/v1/docs",
		"dates": "/api/v1/dates", "cross": "/api/v1/cross", "index": "/",
	}
	maxLimit := map[string]int{"facets": facetsLimitMax, "docs": docsLimitMax}
	for _, seed := range []struct{ route, raw string }{
		{"facets", "limit=1000&parent=europe"},
		{"facets", "limit=1001"},
		{"docs", "limit=0"},
		{"docs", "terms=europe,%20france,,&q=paris&from=2005-11-01&to=2005-11-03T00:00:00Z"},
		{"docs", "limit=99999999999999999999;%zz"},
		{"dates", "granularity=month&from=bogus"},
		{"cross", "a=europe"},
		{"cross", "a=europe&b=sports&to=2005-13-01"},
		{"index", "q=AT%26T+%231&terms=europe"},
		{"metrics", "limit=-1"},
	} {
		f.Add(seed.route, seed.raw)
	}
	f.Fuzz(func(t *testing.T, route, raw string) {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.URL.RawQuery = raw
		q, err := parseQuery(route, req)
		if err == nil {
			if max, limited := maxLimit[route]; limited && (q.Limit < 1 || q.Limit > max) || !limited && q.Limit != 0 {
				t.Fatalf("route %q, query %q: accepted limit %d out of bounds", route, raw, q.Limit)
			}
			return
		}
		path, served := paths[route]
		if !served {
			return
		}
		req = httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		var er ErrorResponse
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &er) != nil ||
			er.Error.Code != ErrCodeBadRequest || er.Error.Message != err.Error() {
			t.Fatalf("GET %s?%s rejected by the parser (%v) but answered %d %q", path, raw, err, rec.Code, rec.Body.String())
		}
	})
}
