package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/browse"
	"repro/internal/textdb"
)

// The limit parameter's default and maximum on each route that has one.
const (
	facetsLimitDefault, facetsLimitMax = 100, 1000
	docsLimitDefault, docsLimitMax     = 20, 500
)

// Query is one browse request's parsed query string: the selection plus
// the parameters of the route it was sent to.
type Query struct {
	Sel         browse.Selection
	Parent      string // facets: whose children to count ("" = roots)
	Limit       int    // facets, docs: within the route's bounds
	Granularity string // dates: "day" when absent
	A, B        string // cross: both required
}

// HandleQuery registers a GET browse route at /api/v1/<path>. Its
// handler receives the request's query parsed for the public route
// named by the path's last element ("facets", "docs", "dates" or
// "cross"), so a shard's cluster/facets accepts exactly what /facets
// does. A query the parser rejects is answered with a 400 in the
// unified envelope before the handler runs.
func (rt *Router) HandleQuery(path string, h func(http.ResponseWriter, *http.Request, Query)) {
	rt.Handle(http.MethodGet, path, withQuery(path[strings.LastIndexByte(path, '/')+1:], h))
}

// withQuery is the one place a browse request is parsed: every browse
// handler of the node, the shards and the coordinator runs behind it,
// so they reject the same requests with the same message.
func withQuery(route string, h func(http.ResponseWriter, *http.Request, Query)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q, err := parseQuery(route, r)
		if err != nil {
			badRequest(w, err)
			return
		}
		h(w, r, q)
	}
}

// parseQuery parses and validates the query string of a request to one
// browse route: "facets", "docs", "dates" or "cross"; any other route
// reads the selection alone. The selection is terms (comma separated),
// q, from and to (RFC 3339 dates or YYYY-MM-DD).
func parseQuery(route string, r *http.Request) (Query, error) {
	v := r.URL.Query()
	q := Query{Sel: browse.Selection{Query: v.Get("q")}}
	if raw := v.Get("terms"); raw != "" {
		for _, t := range strings.Split(raw, ",") {
			if t = strings.TrimSpace(t); t != "" {
				q.Sel.Terms = append(q.Sel.Terms, t)
			}
		}
	}
	var err error
	if q.Sel.From, err = parseDate(v.Get("from")); err != nil {
		return q, fmt.Errorf("from: %w", err)
	}
	if q.Sel.To, err = parseDate(v.Get("to")); err != nil {
		return q, fmt.Errorf("to: %w", err)
	}
	switch route {
	case "facets":
		q.Parent = v.Get("parent")
		q.Limit, err = boundedInt(v, "limit", facetsLimitDefault, facetsLimitMax)
	case "docs":
		q.Limit, err = boundedInt(v, "limit", docsLimitDefault, docsLimitMax)
	case "dates":
		if q.Granularity = v.Get("granularity"); q.Granularity == "" {
			q.Granularity = "day"
		}
	case "cross":
		if q.A, q.B = v.Get("a"), v.Get("b"); q.A == "" || q.B == "" {
			err = errors.New("need a and b facet parameters")
		}
	}
	return q, err
}

// boundedInt validates an optional positive bounded integer parameter;
// strconv.Atoi alone would admit negative, zero, and overflowing values
// that misbehave downstream.
func boundedInt(v url.Values, name string, def, max int) (int, error) {
	raw := v.Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 || n > max {
		return 0, fmt.Errorf("bad %s %q (want 1..%d)", name, raw, max)
	}
	return n, nil
}

// parseDate accepts RFC 3339 or YYYY-MM-DD; empty means the zero time.
// It is the single date parser for both selection query parameters and
// ingest payloads.
func parseDate(raw string) (time.Time, error) {
	if raw == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339, raw); err == nil {
		return t, nil
	}
	t, err := time.Parse("2006-01-02", raw)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad date %q (want RFC3339 or YYYY-MM-DD)", raw)
	}
	return t, nil
}

// Summaries renders the first limit documents of ids, snippets centred
// on the keyword query. id maps a document id of iface to the id the
// client sees: a shard maps its local ids to corpus-wide ones. No ids
// render as nil, which encodes as null.
func Summaries(iface *browse.Interface, ids []textdb.DocID, limit int, query string, id func(textdb.DocID) int) []DocSummary {
	n := min(limit, len(ids))
	if n == 0 {
		return nil
	}
	out := make([]DocSummary, n)
	for i, d := range ids[:n] {
		doc := iface.Corpus().Doc(d)
		out[i] = DocSummary{
			ID:      id(d),
			Title:   doc.Title,
			Source:  doc.Source,
			Date:    doc.Date.Format("2006-01-02"),
			Snippet: textdb.Snippet(doc, query, 24),
		}
	}
	return out
}
