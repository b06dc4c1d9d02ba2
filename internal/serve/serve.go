// Package serve exposes a faceted browsing interface over HTTP: a
// versioned JSON API under /api/v1/ (facet counts, documents, date
// histogram, cross-tabulation, ingest, metrics) plus a minimal
// server-rendered HTML front end with clickable facet links — the
// Flamenco-style deployment surface for the extracted hierarchies.
//
// Every route is instrumented through obsv.HTTPMetrics (request counts,
// status classes, latency histograms per route) and the registry is
// served at GET /api/v1/metrics. The API surface is /api/v1/ only: the
// unversioned /api/ aliases that shipped during the v1 migration carried
// Deprecation + successor Link headers for five releases and have been
// removed; unversioned paths now answer with the unified 404 envelope.
//
// Every non-2xx API response is the unified envelope
//
//	{"error": {"code": "...", "message": "..."}}
//
// written by a single WriteError path.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/browse"
	"repro/internal/ingest"
	"repro/internal/overload"
	"repro/internal/textdb"
)

// Server handles HTTP requests over a built browsing interface. The
// interface is held behind an atomic pointer so a live-ingestion epoch
// can republish it mid-flight: every request loads the pointer exactly
// once and serves that complete, immutable epoch — concurrent swaps can
// never produce a torn read mixing counts from two hierarchies.
type Server struct {
	*Router
	iface atomic.Pointer[browse.Interface]
	title string
}

// New builds the server over an initial interface.
func New(iface *browse.Interface, title string, opts ...Option) *Server {
	s := &Server{Router: NewRouter(opts...), title: title}
	s.iface.Store(iface)
	s.HandleQuery("facets", s.handleFacets)
	s.HandleQuery("docs", s.handleDocs)
	s.HandleQuery("dates", s.handleDates)
	s.HandleQuery("cross", s.handleCross)
	// Method-less like the API fallbacks (a "GET /" pattern would conflict
	// with them under the mux's precedence rules); handleIndex enforces GET.
	s.mux.Handle("/", s.wrap("index", http.HandlerFunc(s.handleIndex)))
	return s
}

// Publish atomically swaps the served browsing interface; in-flight
// requests finish on the epoch they started with. It is the OnPublish
// hook a live Ingester calls after every rebuild.
func (s *Server) Publish(iface *browse.Interface) {
	s.iface.Store(iface)
}

// current returns the interface snapshot a request should serve.
func (s *Server) current() *browse.Interface {
	return s.iface.Load()
}

// EnableIngest registers the live-ingestion endpoints — POST
// /api/v1/ingest (accept documents), GET /api/v1/ingest/stats
// (subsystem health), GET /api/v1/ingest/deadletter (documents whose
// analysis failed permanently), and POST /api/v1/ingest/retry
// (re-analyze the dead-letter queue) — and exposes the ingester's
// gauges through the server's metrics registry. It must be called
// before the server starts handling traffic.
func (s *Server) EnableIngest(ing *ingest.Ingester) {
	ing.RegisterMetrics(s.metrics)
	s.Handle(http.MethodPost, "ingest", func(w http.ResponseWriter, r *http.Request) {
		s.handleIngest(w, r, ing)
	})
	s.Handle(http.MethodGet, "ingest/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, ing.Stats())
	})
	s.Handle(http.MethodGet, "ingest/deadletter", func(w http.ResponseWriter, r *http.Request) {
		dls := ing.DeadLetters()
		WriteJSON(w, DeadLetterResponse{Total: len(dls), DeadLetters: dls})
	})
	s.Handle(http.MethodPost, "ingest/retry", func(w http.ResponseWriter, r *http.Request) {
		admitted, err := ing.RetryDeadLetters(r.Context())
		if err != nil {
			WriteError(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
				fmt.Errorf("retried %d documents: %w", admitted, err))
			return
		}
		WriteJSON(w, RetryResponse{Admitted: admitted, Remaining: len(ing.DeadLetters())})
	})
}

// DeadLetterResponse is the GET /api/v1/ingest/deadletter payload.
type DeadLetterResponse struct {
	Total       int                    `json:"total"`
	DeadLetters []ingest.DeadLetterDoc `json:"dead_letters"`
}

// RetryResponse is the POST /api/v1/ingest/retry payload.
type RetryResponse struct {
	// Admitted counts documents whose re-analysis succeeded and are now
	// ingested; Remaining counts documents that failed again and wait in
	// the queue.
	Admitted  int `json:"admitted"`
	Remaining int `json:"remaining"`
}

// WriteJSON writes v as the API's canonical two-space-indented JSON;
// every 2xx body — single-node or cluster — goes through it, which is
// what makes coordinator responses byte-comparable to single-node ones.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Stable machine-readable error codes of the unified envelope.
const (
	ErrCodeBadRequest       = "bad_request"
	ErrCodeUnavailable      = "unavailable"
	ErrCodeNotReady         = "not_ready"
	ErrCodeNotFound         = "not_found"
	ErrCodeMethodNotAllowed = "method_not_allowed"
)

// ErrorDetail is the payload of the unified error envelope.
type ErrorDetail struct {
	// Code is a stable machine-readable identifier (bad_request,
	// unavailable); Message is human-readable detail.
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the JSON body of every non-2xx API response:
// {"error":{"code":"...","message":"..."}}.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// WriteError is the single exit path for API errors; every handler's
// failure funnels through it so clients see one envelope shape.
func WriteError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(ErrorResponse{Error: ErrorDetail{Code: code, Message: err.Error()}})
}

func badRequest(w http.ResponseWriter, err error) {
	WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
}

// FacetsResponse is the /api/v1/facets payload.
type FacetsResponse struct {
	Parent string              `json:"parent"`
	Total  int                 `json:"total"`
	Facets []browse.FacetCount `json:"facets"`
}

func (s *Server) handleFacets(w http.ResponseWriter, _ *http.Request, q Query) {
	iface := s.current()
	facets := iface.Children(q.Parent, q.Sel)
	if len(facets) > q.Limit {
		facets = facets[:q.Limit]
	}
	WriteJSON(w, FacetsResponse{
		Parent: q.Parent,
		Total:  iface.MatchCount(q.Sel),
		Facets: facets,
	})
}

// DocSummary is one document in the /api/v1/docs payload.
type DocSummary struct {
	ID      int    `json:"id"`
	Title   string `json:"title"`
	Source  string `json:"source"`
	Date    string `json:"date"`
	Snippet string `json:"snippet"`
}

// DocsResponse is the /api/v1/docs payload.
type DocsResponse struct {
	Total int          `json:"total"`
	Docs  []DocSummary `json:"docs"`
}

func (s *Server) handleDocs(w http.ResponseWriter, _ *http.Request, q Query) {
	iface := s.current()
	ids := iface.Docs(q.Sel)
	WriteJSON(w, DocsResponse{
		Total: len(ids),
		Docs:  Summaries(iface, ids, q.Limit, q.Sel.Query, localID),
	})
}

// localID is the identity document-id mapping of a node serving the
// whole corpus.
func localID(d textdb.DocID) int { return int(d) }

// DateBucket is one histogram bucket in the /api/v1/dates payload.
type DateBucket struct {
	Bucket string `json:"bucket"`
	Count  int    `json:"count"`
}

func (s *Server) handleDates(w http.ResponseWriter, _ *http.Request, q Query) {
	hist, err := s.current().DateHistogram(q.Sel, q.Granularity)
	if err != nil {
		badRequest(w, err)
		return
	}
	out := make([]DateBucket, len(hist))
	for i, h := range hist {
		out[i] = DateBucket{Bucket: h.Bucket.Format("2006-01-02"), Count: h.Count}
	}
	WriteJSON(w, out)
}

func (s *Server) handleCross(w http.ResponseWriter, _ *http.Request, q Query) {
	ct, err := s.current().Cross(q.A, q.B, q.Sel)
	if err != nil {
		badRequest(w, err)
		return
	}
	WriteJSON(w, ct)
}

var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}}</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 70em; }
.facets { float: left; width: 20em; }
.docs { margin-left: 22em; }
.facet a { text-decoration: none; }
.count { color: #888; }
.sel { background: #eef; padding: 0.2em 0.5em; margin-right: 0.4em; }
</style></head><body>
<h1>{{.Title}}</h1>
<form method="get">
<input type="text" name="q" value="{{.Query}}" placeholder="keyword search">
<input type="hidden" name="terms" value="{{.TermsRaw}}">
<button>Search</button>
</form>
<p>
{{range .Selected}}<span class="sel">{{.Name}} <a href="{{.RemoveURL}}">×</a></span>{{end}}
{{.Total}} documents match.
</p>
<div class="facets"><h2>Facets</h2>
{{range .Facets}}<div class="facet"><a href="{{.URL}}">{{.Name}}</a> <span class="count">({{.Count}})</span></div>{{end}}
</div>
<div class="docs"><h2>Documents</h2>
{{range .Docs}}<p><b>{{.Title}}</b><br><small>{{.Source}} — {{.Date}}</small><br>{{.Snippet}}</p>{{end}}
</div>
</body></html>`))

type indexSelected struct {
	Name      string
	RemoveURL string
}

type indexFacet struct {
	Name  string
	Count int
	URL   string
}

type indexData struct {
	Title    string
	Query    string
	TermsRaw string
	Total    int
	Selected []indexSelected
	Facets   []indexFacet
	Docs     []DocSummary
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "Method Not Allowed", http.StatusMethodNotAllowed)
		return
	}
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	withQuery("index", s.renderIndex)(w, r)
}

// renderIndex renders the front end for one selection.
func (s *Server) renderIndex(w http.ResponseWriter, _ *http.Request, q Query) {
	sel := q.Sel
	iface := s.current()
	data := indexData{
		Title:    s.title,
		Query:    sel.Query,
		TermsRaw: strings.Join(sel.Terms, ","),
		Total:    iface.MatchCount(sel),
		Docs:     Summaries(iface, iface.Docs(sel), 15, sel.Query, localID),
	}
	urlFor := func(terms []string) string {
		v := url.Values{"terms": {strings.Join(terms, ",")}}
		if sel.Query != "" {
			v.Set("q", sel.Query)
		}
		return "/?" + v.Encode()
	}
	for i, t := range sel.Terms {
		rest := append(append([]string{}, sel.Terms[:i]...), sel.Terms[i+1:]...)
		data.Selected = append(data.Selected, indexSelected{Name: t, RemoveURL: urlFor(rest)})
	}
	// Facet links: roots plus children of selected terms.
	appendFacets := func(parent string) {
		for _, fc := range iface.Children(parent, sel) {
			data.Facets = append(data.Facets, indexFacet{
				Name:  fc.Term,
				Count: fc.Count,
				URL:   urlFor(append(append([]string{}, sel.Terms...), fc.Term)),
			})
		}
	}
	appendFacets("")
	for _, t := range sel.Terms {
		appendFacets(t)
	}
	if len(data.Facets) > 40 {
		data.Facets = data.Facets[:40]
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTemplate.Execute(w, data)
}

// IngestDoc is one document in the POST /api/v1/ingest payload. Date
// accepts RFC 3339 or YYYY-MM-DD and defaults to the server's current
// time when empty.
type IngestDoc struct {
	Title  string `json:"title"`
	Source string `json:"source"`
	Date   string `json:"date"`
	Text   string `json:"text"`
}

// IngestRequest is the POST /api/v1/ingest payload.
type IngestRequest struct {
	Documents []IngestDoc `json:"documents"`
}

// IngestResponse is the POST /api/v1/ingest reply.
type IngestResponse struct {
	Accepted int `json:"accepted"`
}

const maxIngestBody = 64 << 20 // bytes; one request cannot exhaust memory

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, ing *ingest.Ingester) {
	var req IngestRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody)).Decode(&req); err != nil {
		badRequest(w, fmt.Errorf("bad ingest payload: %w", err))
		return
	}
	if len(req.Documents) == 0 {
		badRequest(w, fmt.Errorf("no documents in payload"))
		return
	}
	docs := make([]*textdb.Document, len(req.Documents))
	for i, d := range req.Documents {
		if strings.TrimSpace(d.Text) == "" {
			badRequest(w, fmt.Errorf("document %d has empty text", i))
			return
		}
		date := time.Now().UTC()
		if d.Date != "" {
			var err error
			if date, err = parseDate(d.Date); err != nil {
				badRequest(w, fmt.Errorf("document %d: %w", i, err))
				return
			}
		}
		docs[i] = &textdb.Document{Title: d.Title, Source: d.Source, Date: date, Text: d.Text}
	}
	// Submission is bounded: the fast path fails over a saturated queue
	// immediately; a request carrying a deadline budget may instead wait
	// for space until that budget is spent (SubmitContext). Either way a
	// full queue surfaces as a 429 with Retry-After — producers are told
	// to slow down rather than piling up in blocked handlers.
	for i, doc := range docs {
		err := ing.Submit(doc)
		if errors.Is(err, ingest.ErrQueueFull) {
			if _, ok := r.Context().Deadline(); ok {
				err = ing.SubmitContext(r.Context(), doc)
			}
		}
		if err != nil {
			wrapped := fmt.Errorf("accepted %d of %d documents: %w", i, len(docs), err)
			if errors.Is(err, ingest.ErrQueueFull) || errors.Is(err, context.DeadlineExceeded) {
				WriteShed(w, http.StatusTooManyRequests, s.ingestRetryAfter(), wrapped)
				return
			}
			WriteError(w, http.StatusServiceUnavailable, ErrCodeUnavailable, wrapped)
			return
		}
	}
	WriteJSON(w, IngestResponse{Accepted: len(docs)})
}

// ingestRetryAfter picks the Retry-After for a saturated intake queue:
// the write class's drain estimate under admission control, one second
// otherwise.
func (s *Server) ingestRetryAfter() int {
	if s.gov != nil {
		return s.gov.RetryAfterSeconds(overload.ClassWrite)
	}
	return 1
}
