package main

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/browse"
	"repro/internal/hierarchy"
	"repro/internal/lang"
	"repro/internal/serve"
	"repro/internal/textdb"
)

// request is one browse call of the route mix: /facets drill-downs, /docs
// with facet and keyword selections, /dates and /cross.
type request struct {
	route  string // facets, docs, dates or cross
	sel    browse.Selection
	parent string // facets
	a, b   string // cross
	gran   string // dates
	limit  int    // facets, docs
	path   string // path and query under the server root
}

// The simulated user study (internal/userstudy, the paper's §V-E
// sessions) opens every session with a keyword query, then narrows the
// results with facet clicks. Over its five sessions a user makes, on
// average, these many of each (go run ./cmd/experiments -run userstudy,
// 25 simulated users).
const (
	studyKeywordQueries = 2.04 + 2.04 + 2.04 + 1.76 + 1.48
	studyFacetClicks    = 2.20 + 2.80 + 3.96 + 4.60 + 6.20
)

// studyShare is the part of the mix the study's interactions make up: a
// facet click is a /facets drill-down, a keyword query a /docs result
// list. The study has no /dates or /cross interaction; their 15% each is
// an unverified assumption.
const studyShare = 0.7

// routeMix is the share of each route in generated requests.
var routeMix = []struct {
	route string
	share float64
}{
	{"facets", studyShare * studyFacetClicks / (studyFacetClicks + studyKeywordQueries)},
	{"docs", studyShare * studyKeywordQueries / (studyFacetClicks + studyKeywordQueries)},
	{"dates", 0.15},
	{"cross", 0.15},
}

// allRoutes lists every route of the mix.
var allRoutes = []string{"facets", "docs", "dates", "cross"}

// makeRequests draws n distinct selections from the engine's hierarchy
// and corpus and returns, for each, one request per route:
// pool[i*len(routes)+k] is selection i on routes[k]. The load picks a
// selection and then a route by the mix, so how popular a selection is
// does not decide what route it is read through. Selections start from a
// random document: a keyword from its text, as every study session starts
// with a keyword query, and one or two of its facet terms, so every
// selection matches at least that document. The study sets no date
// window, so none is drawn. The result depends only on rng's seed and the
// engine's contents.
func makeRequests(rng *rand.Rand, iface *browse.Interface, n int, routes []string) ([]request, error) {
	forest := iface.Forest()
	var inner []string // terms with children: drill-down parents and cross axes
	forest.Walk(func(nd *hierarchy.Node, _ int) {
		if len(nd.Children) > 0 {
			inner = append(inner, nd.Term)
		}
	})
	if len(inner) < 2 {
		return nil, fmt.Errorf("hierarchy has %d inner nodes, need 2", len(inner))
	}
	rows := iface.DocTermRows()
	corpus := iface.Corpus()
	seen := map[string]bool{}
	var out []request
	for attempts := 0; len(out) < n*len(routes); attempts++ {
		if attempts > 50*n {
			return nil, fmt.Errorf("only %d distinct selections found, want %d", len(out)/len(routes), n)
		}
		d := rng.Intn(corpus.Len())
		doc := corpus.Doc(textdb.DocID(d))
		var sel browse.Selection
		if row := rows[d]; len(row) > 0 {
			sel.Terms = append(sel.Terms, row[rng.Intn(len(row))])
			if len(row) > 1 && rng.Float64() < 0.5 {
				if t := row[rng.Intn(len(row))]; t != sel.Terms[0] {
					sel.Terms = append(sel.Terms, t)
				}
			}
		}
		sel.Query = keyword(rng, doc)
		key := selectionKey(sel)
		if seen[key] {
			continue
		}
		seen[key] = true
		for _, route := range routes {
			out = append(out, newRequest(rng, route, sel, inner))
		}
	}
	return out, nil
}

// newRequest completes a request for sel on route, with the route's own
// parameters drawn from rng.
func newRequest(rng *rand.Rand, route string, sel browse.Selection, inner []string) request {
	r := request{route: route, sel: sel}
	switch r.route {
	case "facets":
		if rng.Float64() < 0.7 {
			r.parent = inner[rng.Intn(len(inner))]
		}
		r.limit = 100
	case "docs":
		r.limit = 10
	case "dates":
		r.gran = "day"
		if rng.Float64() < 0.5 {
			r.gran = "month"
		}
	case "cross":
		r.a = inner[rng.Intn(len(inner))]
		for r.b = r.a; r.b == r.a; {
			r.b = inner[rng.Intn(len(inner))]
		}
	}
	r.path = r.encode()
	return r
}

// pickRoute draws the index in routes of a route, by the mix's shares
// among routes.
func pickRoute(rng *rand.Rand, routes []string) int {
	for {
		x := rng.Float64()
		for _, m := range routeMix {
			if x < m.share {
				if k := slices.Index(routes, m.route); k >= 0 {
					return k
				}
				break
			}
			x -= m.share
		}
	}
}

// keyword picks an indexed word of the document's text, as typed.
func keyword(rng *rand.Rand, doc *textdb.Document) string {
	var words []string
	for _, tok := range lang.Tokenize(doc.Text) {
		if len(tok.Norm) >= 4 && !lang.IsStopword(tok.Norm) {
			words = append(words, doc.Text[tok.Start:tok.End])
		}
	}
	if len(words) == 0 {
		return ""
	}
	return words[rng.Intn(len(words))]
}

func selectionKey(sel browse.Selection) string {
	return strings.Join(sel.Terms, ",") + "|" + sel.Query
}

// encode renders the request as the public API path with its query.
func (r request) encode() string {
	v := url.Values{}
	if len(r.sel.Terms) > 0 {
		v.Set("terms", strings.Join(r.sel.Terms, ","))
	}
	if r.sel.Query != "" {
		v.Set("q", r.sel.Query)
	}
	switch r.route {
	case "facets":
		if r.parent != "" {
			v.Set("parent", r.parent)
		}
		v.Set("limit", fmt.Sprint(r.limit))
	case "docs":
		v.Set("limit", fmt.Sprint(r.limit))
	case "dates":
		v.Set("granularity", r.gran)
	case "cross":
		v.Set("a", r.a)
		v.Set("b", r.b)
	}
	return "/api/v1/" + r.route + "?" + v.Encode()
}

// answer computes the body the server should send for r, encoded the way
// the handlers encode it. With naive set it answers from the engine's
// full-scan reference (ScanDocs, ScanChildren, ScanMatchCount) instead of
// the posting lists and the query cache.
func answer(iface *browse.Interface, r request, naive bool) ([]byte, error) {
	var payload any
	switch r.route {
	case "facets":
		resp := serve.FacetsResponse{Parent: r.parent}
		if naive {
			resp.Total, resp.Facets = iface.ScanMatchCount(r.sel), iface.ScanChildren(r.parent, r.sel)
		} else {
			resp.Total, resp.Facets = iface.MatchCount(r.sel), iface.Children(r.parent, r.sel)
		}
		if len(resp.Facets) > r.limit {
			resp.Facets = resp.Facets[:r.limit]
		}
		payload = resp
	case "docs":
		var ids []textdb.DocID
		if naive {
			ids = iface.ScanDocs(r.sel)
		} else {
			ids = iface.Docs(r.sel)
		}
		resp := serve.DocsResponse{Total: len(ids)}
		for i, id := range ids {
			if i >= r.limit {
				break
			}
			doc := iface.Corpus().Doc(id)
			resp.Docs = append(resp.Docs, serve.DocSummary{
				ID: int(id), Title: doc.Title, Source: doc.Source,
				Date: doc.Date.Format("2006-01-02"), Snippet: textdb.Snippet(doc, r.sel.Query, 24),
			})
		}
		payload = resp
	case "dates":
		var hist []browse.DateCount
		if naive {
			hist = naiveDates(iface, r.sel, r.gran)
		} else {
			var err error
			if hist, err = iface.DateHistogram(r.sel, r.gran); err != nil {
				return nil, err
			}
		}
		out := make([]serve.DateBucket, len(hist))
		for i, h := range hist {
			out[i] = serve.DateBucket{Bucket: h.Bucket.Format("2006-01-02"), Count: h.Count}
		}
		payload = out
	case "cross":
		var ct *browse.CrossTab
		if naive {
			ct = naiveCross(iface, r.a, r.b, r.sel)
		} else {
			var err error
			if ct, err = iface.Cross(r.a, r.b, r.sel); err != nil {
				return nil, err
			}
		}
		payload = ct
	default:
		return nil, fmt.Errorf("unknown route %q", r.route)
	}
	rec := httptest.NewRecorder()
	serve.WriteJSON(rec, payload)
	return rec.Body.Bytes(), nil
}

// naiveDates buckets the full-scan matches by day or month.
func naiveDates(iface *browse.Interface, sel browse.Selection, gran string) []browse.DateCount {
	counts := map[time.Time]int{}
	for _, id := range iface.ScanDocs(sel) {
		t := iface.Corpus().Doc(id).Date.UTC()
		day := 1
		if gran == "day" {
			day = t.Day()
		}
		counts[time.Date(t.Year(), t.Month(), day, 0, 0, 0, 0, time.UTC)]++
	}
	out := make([]browse.DateCount, 0, len(counts))
	for b, c := range counts {
		out = append(out, browse.DateCount{Bucket: b, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket.Before(out[j].Bucket) })
	return out
}

// naiveCross counts, over the full-scan matches, the documents annotated
// under both a child of a and a child of b.
func naiveCross(iface *browse.Interface, a, b string, sel browse.Selection) *browse.CrossTab {
	na, _ := iface.Forest().Find(a)
	nb, _ := iface.Forest().Find(b)
	ct := &browse.CrossTab{}
	var rowSub, colSub []map[string]bool
	for _, c := range na.Children {
		ct.RowTerms = append(ct.RowTerms, c.Term)
		rowSub = append(rowSub, subtree(c))
	}
	for _, c := range nb.Children {
		ct.ColTerms = append(ct.ColTerms, c.Term)
		colSub = append(colSub, subtree(c))
	}
	matches := iface.ScanDocs(sel)
	rows := iface.DocTermRows()
	ct.Cells = make([][]int, len(ct.RowTerms))
	for i := range ct.RowTerms {
		ct.Cells[i] = make([]int, len(ct.ColTerms))
		for j := range ct.ColTerms {
			for _, d := range matches {
				if hasAny(rows[d], rowSub[i]) && hasAny(rows[d], colSub[j]) {
					ct.Cells[i][j]++
				}
			}
		}
	}
	return ct
}

func subtree(n *hierarchy.Node) map[string]bool {
	out := map[string]bool{n.Term: true}
	for _, c := range n.Children {
		for t := range subtree(c) {
			out[t] = true
		}
	}
	return out
}

func hasAny(terms []string, set map[string]bool) bool {
	for _, t := range terms {
		if set[t] {
			return true
		}
	}
	return false
}
