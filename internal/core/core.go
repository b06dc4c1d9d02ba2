// Package core implements the paper's primary contribution: the
// unsupervised facet-term discovery pipeline of Section IV.
//
//  1. Identify the important terms of every document with one or more
//     term extractors (Figure 1).
//  2. Query one or more external resources with each important term and
//     expand the document with the returned context terms, producing the
//     contextualized database C(D) (Figure 2).
//  3. Compare term distributions between D and C(D): a term is a
//     candidate facet term when both the frequency shift
//     Shift_f(t) = df_C(t) − df(t) and the rank-bin shift
//     Shift_r(t) = B_D(t) − B_C(t) are positive; candidates are ranked by
//     Dunning's log-likelihood statistic −log λ and the top k returned
//     (Figure 3).
//
// Extractors and resources are interfaces; the substrates in
// internal/{ner,yterms,wiki,wordnet,websearch} provide the paper's five
// concrete implementations, and domain glossaries (Section VII) plug in
// through the same seams.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/textdb"
)

// Extractor identifies the important terms of a document (Section IV-A).
// Extract receives the document text (title and body) and returns
// normalized terms.
type Extractor interface {
	Name() string
	Extract(text string) []string
}

// Resource returns context terms for an important term (Section IV-B).
type Resource interface {
	Name() string
	Context(term string) []string
}

// ResourceErr is the fallible counterpart of Resource: the remote
// services behind the paper's resources (Google, Wikipedia) can fail,
// time out, or be down, and ContextErr surfaces that instead of
// silently returning nothing. Resources that also implement ResourceErr
// are upgraded automatically by the pipeline; failures are then recorded
// in Result.Degradations rather than mistaken for "no context".
type ResourceErr interface {
	Name() string
	ContextErr(ctx context.Context, term string) ([]string, error)
}

// ExtractorErr is the fallible counterpart of Extractor (the paper's
// Yahoo Term Extraction service is a remote call too).
type ExtractorErr interface {
	Name() string
	ExtractErr(ctx context.Context, text string) ([]string, error)
}

// infallibleResource adapts a plain Resource to ResourceErr; it never
// errors.
type infallibleResource struct{ Resource }

func (r infallibleResource) ContextErr(ctx context.Context, term string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.Context(term), nil
}

// AsResourceErr upgrades a Resource to its fallible interface when it
// implements one, and wraps it as never-failing otherwise; nil stays nil.
func AsResourceErr(r Resource) ResourceErr {
	if r == nil {
		return nil
	}
	if re, ok := r.(ResourceErr); ok {
		return re
	}
	return infallibleResource{r}
}

// AsResourceErrs upgrades every resource with AsResourceErr.
func AsResourceErrs(rs []Resource) []ResourceErr {
	out := make([]ResourceErr, len(rs))
	for i, r := range rs {
		out[i] = AsResourceErr(r)
	}
	return out
}

// infallibleExtractor adapts a plain Extractor to ExtractorErr.
type infallibleExtractor struct{ Extractor }

func (e infallibleExtractor) ExtractErr(ctx context.Context, text string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.Extract(text), nil
}

// AsExtractorErrs upgrades each Extractor to its fallible interface when
// it implements one, and wraps it as never-failing otherwise.
func AsExtractorErrs(es []Extractor) []ExtractorErr {
	out := make([]ExtractorErr, len(es))
	for i, e := range es {
		if ee, ok := e.(ExtractorErr); ok {
			out[i] = ee
		} else {
			out[i] = infallibleExtractor{e}
		}
	}
	return out
}

// Config assembles a pipeline.
type Config struct {
	Extractors []Extractor
	Resources  []Resource
	// TopK bounds the number of facet terms returned; 0 means the paper's
	// working value of 200.
	TopK int
	// Fallback, when set, is a last-resort context resource consulted for
	// an important term only when EVERY configured resource failed for
	// that (document, term) lookup — retries exhausted or circuit open.
	// With the distributional model (internal/distctx) here, a run whose
	// external resources are all dark degrades to corpus-only context
	// instead of running context-free. Healthy runs never touch it, so
	// the fault-free output is byte-identical with or without a Fallback.
	// A rescue's context terms vote like any resource's (see ContextRow),
	// exactly as in live ingestion, so batch and live document
	// assignment agree under an outage too.
	Fallback Resource
	// Metrics, when set, additionally records each stage's duration into
	// the registry as core.stage.<name> histograms, so long-running
	// servers see pipeline cost continuously, not just per run.
	Metrics *obsv.Registry
	// Workers bounds the worker pool every pipeline stage shards across:
	// important-term identification, context derivation, DF-table
	// accumulation, and candidate scoring. 0 selects
	// runtime.GOMAXPROCS(0); 1 takes the sequential path. Output is
	// identical for every worker count — the stages shard documents (and
	// candidate terms) into per-worker slots and merge deterministically.
	// Extractors and Resources must be safe for concurrent use when
	// Workers > 1 (the built-in substrates are read-only after
	// construction).
	Workers int
}

// Pipeline is a configured facet-discovery run. It caches resource
// lookups, so expanding a corpus costs one resource query per distinct
// (resource, term) pair — the offline precomputation strategy the paper
// describes in Section V-D.
type Pipeline struct {
	cfg   Config
	cache *ResourceCache
}

// New validates the configuration and returns a pipeline.
func New(cfg Config) (*Pipeline, error) {
	if len(cfg.Extractors) == 0 {
		return nil, fmt.Errorf("core: no extractors configured")
	}
	if len(cfg.Resources) == 0 {
		return nil, fmt.Errorf("core: no resources configured")
	}
	if cfg.TopK == 0 {
		cfg.TopK = 200
	}
	if cfg.TopK < 0 {
		return nil, fmt.Errorf("core: negative TopK %d", cfg.TopK)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: negative Workers %d", cfg.Workers)
	}
	cfg.Workers = parallel.Workers(cfg.Workers)
	return &Pipeline{cfg: cfg, cache: NewResourceCache()}, nil
}

// background aliases context.Background() for use inside functions whose
// per-document context-term parameter shadows the context package.
var background = context.Background()

// FacetTerm is one discovered facet term with its evidence.
type FacetTerm struct {
	Term   string
	DF     int     // document frequency in the original database
	DFC    int     // document frequency in the contextualized database
	ShiftF int     // DFC − DF
	ShiftR int     // B_D − B_C
	Score  float64 // −log λ
}

// Result carries everything a run produces.
type Result struct {
	// Facets are the top-k facet terms, ranked by Score descending.
	Facets []FacetTerm
	// Candidates are all terms passing both shift tests, ranked like
	// Facets (Facets is its prefix).
	Candidates []FacetTerm
	// Important[i] lists the important terms identified in document i.
	Important [][]string
	// Context[i] lists the context terms added to document i.
	Context [][]string
	// Corroborated[i] lists, ascending, the positions in Context[i] of
	// the context terms corroborated enough to assign document i to them
	// (see ContextRow.Finish); AssignDocTerms consumes it.
	Corroborated [][]int32
	// NumDocs is the collection size |D|.
	NumDocs int
	// Stages reports each pipeline stage's wall-clock cost in execution
	// order — the per-run counterpart of the Section V-D efficiency table.
	Stages []obsv.StageSample
	// FallbackLookups counts the (document, term) expansions answered by
	// Config.Fallback because every primary resource failed. 0 on a
	// healthy run; alongside Degradations it quantifies how much of the
	// context came from the corpus-only safety net.
	FallbackLookups int
	// Degradations reports, per external dependency, the lookups the run
	// completed WITHOUT because the dependency failed permanently (after
	// the resilience layer's retries, or with its circuit open). An empty
	// list means every extractor and resource answered every query: the
	// output is exactly the fault-free output. A non-empty list means the
	// run degraded gracefully — it proceeded with the surviving
	// dependencies — and quantifies the gap.
	Degradations []Degradation
}

// Degradation quantifies one external dependency's failures during a run.
type Degradation struct {
	// Name is the failing resource or extractor's Name().
	Name string
	// Kind is "resource" or "extractor".
	Kind string
	// Failures counts failed lookups: (document, term) expansion queries
	// for resources, documents for extractors.
	Failures int
	// Docs counts distinct documents with at least one failed lookup.
	Docs int
	// LastErr is the text of one representative error.
	LastErr string
}

// degAccum is one worker's running tally for a dependency; merged across
// workers into a Degradation afterwards.
type degAccum struct {
	failures int
	docs     int
	lastErr  string
}

// recordDeg tallies one failed lookup into a worker-local map, which it
// allocates on the worker's first failure.
func recordDeg(m *map[string]*degAccum, name string, newDoc bool, err error) {
	if *m == nil {
		*m = map[string]*degAccum{}
	}
	a := (*m)[name]
	if a == nil {
		a = &degAccum{}
		(*m)[name] = a
	}
	a.failures++
	if newDoc {
		a.docs++
	}
	a.lastErr = err.Error()
}

// mergeDegradations folds per-worker tallies into a deterministic
// (name-sorted) report. Counts are additive across disjoint document
// shards; LastErr takes the first non-empty text in worker order.
func mergeDegradations(kind string, perWorker []map[string]*degAccum) []Degradation {
	merged := map[string]*Degradation{}
	for _, m := range perWorker {
		for name, a := range m {
			d := merged[name]
			if d == nil {
				d = &Degradation{Name: name, Kind: kind}
				merged[name] = d
			}
			d.Failures += a.failures
			d.Docs += a.docs
			if d.LastErr == "" {
				d.LastErr = a.lastErr
			}
		}
	}
	out := make([]Degradation, 0, len(merged))
	for _, d := range merged {
		out = append(out, *d)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// RunContext executes the three steps over the corpus, honoring
// cancellation: ctx is checked between stages and between documents
// inside the two expensive stages, so a canceled extraction stops within
// one document's worth of work.
func (p *Pipeline) RunContext(ctx context.Context, corpus *textdb.Corpus) (*Result, error) {
	if corpus.Len() == 0 {
		return nil, fmt.Errorf("core: empty corpus")
	}
	timer := obsv.NewStageTimer()
	observe := func(stage string, d time.Duration) {
		timer.Record(stage, d)
		if p.cfg.Metrics != nil {
			p.cfg.Metrics.Histogram("core.stage." + stage).Observe(d)
		}
	}

	start := time.Now()
	important, extractorDegs, err := IdentifyImportantReport(ctx, corpus, p.cfg.Extractors, 0, p.cfg.Workers)
	if err != nil {
		return nil, err
	}
	observe("identify_important", time.Since(start))

	start = time.Now()
	exp, err := Expand(ctx, important, p.cfg.Resources, p.cfg.Fallback, p.cache, p.cfg.Workers)
	if err != nil {
		return nil, err
	}
	observe("derive_context", time.Since(start))

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start = time.Now()
	res := AnalyzeWith(corpus, exp.Context, p.cfg.TopK, AnalyzeOptions{Workers: p.cfg.Workers})
	observe("analyze", time.Since(start))

	res.Important = important
	res.Context = exp.Context
	res.Corroborated = exp.Corroborated
	res.Stages = timer.Report()
	res.Degradations = append(extractorDegs, exp.Degradations...)
	res.FallbackLookups = exp.FallbackLookups
	if p.cfg.Metrics != nil {
		for _, d := range res.Degradations {
			p.cfg.Metrics.Counter("core.degraded_lookups." + d.Name).Add(int64(d.Failures))
		}
		if exp.FallbackLookups > 0 {
			p.cfg.Metrics.Counter("core.fallback_lookups").Add(int64(exp.FallbackLookups))
		}
	}
	return res, nil
}

// UnionTerms is the union of Step 1 (Figure 1): the terms of every list,
// in list order with each term at its first occurrence, empty strings
// and duplicates dropped.
func UnionTerms(lists ...[]string) []string {
	var out []string
	seen := map[string]bool{}
	for _, l := range lists {
		for _, t := range l {
			if t == "" || seen[t] {
				continue
			}
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// ExtractorFailure is one extractor's failure on one document.
type ExtractorFailure struct {
	Extractor string // the failing extractor's Name()
	Err       error
}

// ImportantTerms is Step 1 (Figure 1) for one document: the UnionTerms of
// the extractors' terms for the document's title and text, in extractor
// order. An extractor that fails is left out of the union and reported in
// failures; the caller decides whether the document goes on without it.
// err is non-nil only when ctx is done.
func ImportantTerms(ctx context.Context, doc *textdb.Document, extractors []ExtractorErr) (terms []string, failures []ExtractorFailure, err error) {
	text := doc.Title + ". " + doc.Text
	lists := make([][]string, 0, len(extractors))
	for _, ex := range extractors {
		extracted, eerr := ex.ExtractErr(ctx, text)
		if eerr != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, nil, cerr // cancellation, not a dependency failure
			}
			failures = append(failures, ExtractorFailure{Extractor: ex.Name(), Err: eerr})
			continue
		}
		lists = append(lists, extracted)
	}
	return UnionTerms(lists...), failures, nil
}

// IdentifyImportantReport is Step 1 (Figure 1) over a corpus: each
// document's ImportantTerms, capped at maxPerDoc terms (<= 0 means no
// cap). Documents shard across a bounded worker pool (workers <= 0
// selects GOMAXPROCS, 1 runs sequentially on the calling goroutine); each
// worker writes only its own documents' slots, so output is identical for
// every worker count. Every worker checks ctx before each document and
// the first ctx error aborts the run.
//
// Extraction degrades gracefully: an extractor that fails for a document
// (extractors implementing ExtractorErr can) is skipped for that
// document, the run proceeds with the surviving extractors, and the gap
// is quantified in the returned Degradations.
func IdentifyImportantReport(ctx context.Context, corpus *textdb.Corpus, extractors []Extractor, maxPerDoc, workers int) ([][]string, []Degradation, error) {
	fallible := AsExtractorErrs(extractors)
	nw := parallel.Workers(workers)
	degs := make([]map[string]*degAccum, nw)
	out := make([][]string, corpus.Len())
	err := parallel.For(ctx, corpus.Len(), nw, func(w, i int) {
		terms, failures, err := ImportantTerms(ctx, corpus.Doc(textdb.DocID(i)), fallible)
		if err != nil {
			return // cancellation: parallel.For reports ctx's error
		}
		for _, f := range failures {
			recordDeg(&degs[w], f.Extractor, true, f.Err)
		}
		if maxPerDoc > 0 && len(terms) > maxPerDoc {
			terms = terms[:maxPerDoc]
		}
		out[i] = terms
	})
	if err != nil {
		return nil, nil, err
	}
	return out, mergeDegradations("extractor", degs), nil
}

// ContextLookup is the cached context lookup Step 2 expands through. The
// batch pipeline passes its unbounded single-flight ResourceCache; live
// ingestion passes its bounded LRU.
type ContextLookup interface {
	LookupErr(ctx context.Context, r ResourceErr, term string) ([]string, error)
}

// LookupFailure is one failed context lookup for one important term.
type LookupFailure struct {
	Resource string // the failing resource's Name(), or the fallback's
	Term     string // the important term looked up
	// Fallback marks the fallback's own failure: every resource had
	// failed for Term, and so did the fallback.
	Fallback bool
	// Rescued marks a resource failure the fallback made good: every
	// resource failed for Term and the fallback answered in their place.
	Rescued bool
	Err     error
}

// DocExpansion is Step 2's output for one document.
type DocExpansion struct {
	// Context lists the context terms added to the document.
	Context []string
	// Corroborated lists, ascending, the positions in Context of the
	// document's corroborated context terms (see ContextRow.Finish).
	Corroborated []int32
	// Failures lists every failed lookup, term by term in important-term
	// order, each term's resource failures before its fallback's.
	Failures []LookupFailure
	// Rescues counts the important terms the fallback answered for.
	Rescues int
}

// ExpandDoc is Step 2 (Figure 2) for one document: for each important
// term, every resource's context terms through cache, merged into row
// (which comes back reset, ready for the next document). A failed lookup
// contributes nothing and is reported in Failures. When every resource
// failed for a term and fallback is non-nil, the fallback is consulted
// for that term through the same cache: its terms merge and vote like any
// resource's, and the rescue is counted. When no lookup fails the output
// does not depend on fallback. Failed lookups are never cached, so a
// recovering resource starts answering again immediately. err is non-nil
// only when ctx is done.
func ExpandDoc(ctx context.Context, row *ContextRow, important []string, resources []ResourceErr, fallback ResourceErr, cache ContextLookup) (DocExpansion, error) {
	var out DocExpansion
	for k, t := range important {
		failed := 0
		for _, r := range resources {
			terms, err := cache.LookupErr(ctx, r, t)
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					row.Finish(0)
					return DocExpansion{}, cerr // cancellation, not a dependency failure
				}
				out.Failures = append(out.Failures, LookupFailure{Resource: r.Name(), Term: t, Err: err})
				failed++
				continue
			}
			row.Add(k, terms)
		}
		if fallback == nil || len(resources) == 0 || failed < len(resources) {
			continue
		}
		terms, err := cache.LookupErr(ctx, fallback, t)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				row.Finish(0)
				return DocExpansion{}, cerr
			}
			out.Failures = append(out.Failures, LookupFailure{Resource: fallback.Name(), Term: t, Fallback: true, Err: err})
			continue
		}
		for j := len(out.Failures) - failed; j < len(out.Failures); j++ {
			out.Failures[j].Rescued = true
		}
		out.Rescues++
		row.Add(k, terms)
	}
	out.Context, out.Corroborated = row.Finish(len(important))
	return out, nil
}

// Expansion is Step 2's output over a corpus.
type Expansion struct {
	// Context[i] lists the context terms added to document i.
	Context [][]string
	// Corroborated[i] lists, ascending, the positions in Context[i] of
	// document i's corroborated context terms (see ContextRow.Finish).
	Corroborated [][]int32
	// Degradations quantifies the resource lookups that failed.
	Degradations []Degradation
	// FallbackLookups counts the (document, term) lookups the fallback
	// resource answered.
	FallbackLookups int
}

// Expand is Step 2 (Figure 2) over a corpus: each document's ExpandDoc.
// Documents shard across a bounded worker pool (workers <= 0 selects
// GOMAXPROCS, 1 runs sequentially); per-document rows depend only on that
// document's important terms, so output is identical for every worker
// count. Cancellation is checked between documents. A nil cache allocates
// a private one; a shared cache is single-flight per (resource, term), so
// a hot term missed by several workers at once is derived exactly once.
//
// Expansion degrades gracefully: it proceeds with the surviving
// resources, and every failed lookup ExpandDoc reports (resources
// implementing ResourceErr can fail — the resilience layer surfaces
// exhausted retries and open circuits here), rescued or not and the
// fallback's own included, is quantified in Degradations.
func Expand(ctx context.Context, important [][]string, resources []Resource, fallback Resource, cache *ResourceCache, workers int) (*Expansion, error) {
	if cache == nil {
		cache = NewResourceCache()
	}
	fallible, fallbackErr := AsResourceErrs(resources), AsResourceErr(fallback)
	nw := parallel.Workers(workers)
	degs := make([]map[string]*degAccum, nw)
	rescues := make([]int, nw)
	rows := make([]ContextRow, nw)
	out := &Expansion{
		Context:      make([][]string, len(important)),
		Corroborated: make([][]int32, len(important)),
	}
	err := parallel.For(ctx, len(important), nw, func(w, i int) {
		e, err := ExpandDoc(ctx, &rows[w], important[i], fallible, fallbackErr, cache)
		if err != nil {
			return // cancellation: parallel.For reports ctx's error
		}
		for j, f := range e.Failures {
			newDoc := !slices.ContainsFunc(e.Failures[:j], func(g LookupFailure) bool { return g.Resource == f.Resource })
			recordDeg(&degs[w], f.Resource, newDoc, f.Err)
		}
		rescues[w] += e.Rescues
		out.Context[i], out.Corroborated[i] = e.Context, e.Corroborated
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rescues {
		out.FallbackLookups += r
	}
	out.Degradations = mergeDegradations("resource", degs)
	return out, nil
}

// DeriveContextFallbackReport is Expand without the corroboration
// output, returned as separate values. It stays because the benchmark
// module (perfbench/) drives Step 2 through this exact signature.
func DeriveContextFallbackReport(ctx context.Context, important [][]string, resources []Resource, fallback Resource, cache *ResourceCache, workers int) ([][]string, []Degradation, int, error) {
	exp, err := Expand(ctx, important, resources, fallback, cache, workers)
	if err != nil {
		return nil, nil, 0, err
	}
	return exp.Context, exp.Degradations, exp.FallbackLookups, nil
}

// ContextRow accumulates one document's Step-2 expansion: the union of
// every resource's context terms, deduplicated in first-seen order, and
// for each term the number of distinct important terms that voted for it.
// ExpandDoc fills it for batch runs and live ingestion alike, so they
// agree on C(D) and on the document-to-facet assignment. The zero value
// is ready to use; Finish resets it.
type ContextRow struct {
	terms []string
	pos   map[string]int32 // context term -> index in terms
	votes []int32          // votes[j]: important terms that voted for terms[j]
	voter []int            // voter[j]: 1 + index of the last important term that voted for terms[j]
}

// Add merges one resource's context terms for the document's k-th
// important term. Each important term casts one vote per context term,
// however many resources return it.
func (r *ContextRow) Add(k int, context []string) {
	if r.pos == nil {
		r.pos = map[string]int32{}
	}
	for _, c := range context {
		if c == "" {
			continue
		}
		j, ok := r.pos[c]
		if !ok {
			j = int32(len(r.terms))
			r.pos[c] = j
			r.terms = append(r.terms, c)
			r.votes = append(r.votes, 0)
			r.voter = append(r.voter, 0)
		}
		if r.voter[j] != k+1 {
			r.voter[j] = k + 1
			r.votes[j]++
		}
	}
}

// Finish returns the document's context terms and the ascending
// positions among them of its corroborated terms, and resets the row for
// the next document. numImportant is the document's important-term
// count. A context term is corroborated when at least two distinct
// important terms voted for it (one when the document has fewer than two
// important terms): a facet term describes a document through context
// only when several of the document's own important terms independently
// pull it in, which keeps one stray entity mention from tagging the story
// with a whole unrelated dimension.
func (r *ContextRow) Finish(numImportant int) (terms []string, corroborated []int32) {
	need := int32(2)
	if numImportant < 2 {
		need = 1
	}
	n := 0
	for _, v := range r.votes {
		if v >= need {
			n++
		}
	}
	if n > 0 {
		corroborated = make([]int32, 0, n)
		for j, v := range r.votes {
			if v >= need {
				corroborated = append(corroborated, int32(j))
			}
		}
	}
	terms = r.terms
	r.terms = nil
	clear(r.pos)
	r.votes, r.voter = r.votes[:0], r.voter[:0]
	return terms, corroborated
}

// AssignDocTerms is the document-to-facet assignment behind hierarchy
// population and browsing: document d carries every term of terms that
// occurs in its own text, plus each of its corroborated context terms
// (context[d] at the positions corroborated[d], as Step 2 reports them)
// that is in terms. Rows are sorted; a document no term describes has a
// nil row.
func AssignDocTerms(corpus *textdb.Corpus, context [][]string, corroborated [][]int32, terms []string) [][]string {
	termSet := make(map[string]bool, len(terms))
	for _, t := range terms {
		termSet[t] = true
	}
	dict := corpus.Dict()
	out := make([][]string, corpus.Len())
	var row []string
	for d := range out {
		row = row[:0]
		for _, id := range corpus.DocTerms(textdb.DocID(d)) {
			if s := dict.String(id); termSet[s] {
				row = append(row, s)
			}
		}
		for _, j := range corroborated[d] {
			if c := context[d][j]; termSet[c] {
				row = append(row, c)
			}
		}
		if len(row) > 0 {
			sort.Strings(row)
			out[d] = slices.Clone(slices.Compact(row))
		}
	}
	return out
}

// AnalyzeOptions selects variants of Step 3 for ablation studies. The
// zero value is the paper's algorithm: both shift tests required, ranking
// by Dunning's log-likelihood.
type AnalyzeOptions struct {
	// SkipShiftF / SkipShiftR disable the respective gating test.
	SkipShiftF bool
	SkipShiftR bool
	// Scorer overrides the ranking statistic; nil selects the paper's
	// −log λ. The paper argues chi-square (stats.ChiSquare) misbehaves on
	// Zipfian frequencies; the ablation experiment substitutes it here.
	Scorer func(df, dfC, n int) float64
	// Workers shards DF-table accumulation and candidate scoring across a
	// bounded worker pool; <= 1 (the zero value) takes the sequential
	// path. Results are identical for every worker count: document
	// frequencies are additive across shards, and the final ranking's
	// (Score, Term) order is total. The Scorer must be safe for
	// concurrent use when Workers > 1 (a pure function of its arguments,
	// as both built-in statistics are).
	Workers int
}

// ExpandDocTermsAppend builds one document's contextualized term row (the
// Fig. 2 → Fig. 3 hand-off) into dst, appended to and returned like
// append: the document's own term IDs followed by its context terms,
// interned and deduplicated. IDs of terms that gained their first
// occurrence through context — the only terms able to pass Shift_f > 0 —
// are recorded in ctxSet (when non-nil). scratch is an optional reusable
// dedup map, cleared on entry; nil allocates one. Both the batch analysis
// (AnalyzeWith) and live ingestion build their contextualized DF tables
// through this one helper, so the two always agree on what C(D) contains.
// Callers expanding many documents pass the previous row's buffer as
// dst[:0] so the per-document row costs zero allocations once the buffer
// and scratch map reach steady-state size.
func ExpandDocTermsAppend(dst []textdb.TermID, dict *textdb.Dictionary, orig []textdb.TermID, context []string, scratch map[textdb.TermID]bool, ctxSet map[textdb.TermID]bool) []textdb.TermID {
	if scratch == nil {
		scratch = make(map[textdb.TermID]bool, len(orig)+len(context))
	} else {
		clear(scratch)
	}
	for _, id := range orig {
		scratch[id] = true
		dst = append(dst, id)
	}
	for _, c := range context {
		id := dict.Intern(c)
		if !scratch[id] {
			scratch[id] = true
			dst = append(dst, id)
			if ctxSet != nil {
				ctxSet[id] = true
			}
		}
	}
	return dst
}

// AnalyzeWith is Step 3 (Figure 3): comparative term-frequency analysis
// over the original corpus and its per-document context expansions, with
// the variants opts selects. With opts.Workers > 1
// the DF tables for D and C(D) are accumulated as per-worker delta
// tables over document shards and merged before scoring; document
// frequencies are additive across disjoint shards, so the merged tables
// equal the sequentially built ones.
func AnalyzeWith(corpus *textdb.Corpus, context [][]string, topK int, opts AnalyzeOptions) *Result {
	dict := corpus.Dict()
	n := corpus.Len()

	workers := opts.Workers
	if workers <= 1 {
		// Sequential path: one pass, one table pair.
		dfD := textdb.NewDFTable(dict)
		for i := 0; i < n; i++ {
			dfD.AddDoc(corpus.DocTerms(textdb.DocID(i)))
		}
		dfC := textdb.NewDFTable(dict)
		ctxTermSet := map[textdb.TermID]bool{}
		scratch := map[textdb.TermID]bool{}
		var buf []textdb.TermID
		for i := 0; i < n; i++ {
			orig := corpus.DocTerms(textdb.DocID(i))
			buf = ExpandDocTermsAppend(buf[:0], dict, orig, context[i], scratch, ctxTermSet)
			dfC.AddDoc(buf)
		}
		return AnalyzeTables(dict, dfD, dfC, ctxTermSet, n, topK, opts)
	}

	// Parallel path: per-worker DF deltas and context-term sets, merged
	// in worker order below.
	type delta struct {
		dfD, dfC *textdb.DFTable
		ctxSet   map[textdb.TermID]bool
		scratch  map[textdb.TermID]bool
		buf      []textdb.TermID
	}
	deltas := make([]*delta, workers)
	for w := range deltas {
		deltas[w] = &delta{
			dfD:     textdb.NewDFTable(dict),
			dfC:     textdb.NewDFTable(dict),
			ctxSet:  map[textdb.TermID]bool{},
			scratch: map[textdb.TermID]bool{},
		}
	}
	parallel.For(background, n, workers, func(w, i int) {
		d := deltas[w]
		orig := corpus.DocTerms(textdb.DocID(i))
		d.dfD.AddDoc(orig)
		d.buf = ExpandDocTermsAppend(d.buf[:0], dict, orig, context[i], d.scratch, d.ctxSet)
		d.dfC.AddDoc(d.buf)
	})
	dfD, dfC := textdb.NewDFTable(dict), textdb.NewDFTable(dict)
	ctxTermSet := map[textdb.TermID]bool{}
	for _, d := range deltas {
		dfD.Merge(d.dfD)
		dfC.Merge(d.dfC)
		for id := range d.ctxSet {
			ctxTermSet[id] = true
		}
	}
	return AnalyzeTables(dict, dfD, dfC, ctxTermSet, n, topK, opts)
}

// AnalyzeTables runs the Step-3 candidate selection and ranking over
// prebuilt document-frequency tables: dfD counts the original database,
// dfC the contextualized one, and ctxTermSet holds every term that gained
// at least one contextual occurrence (the only terms that can pass
// Shift_f > 0). Batch runs (AnalyzeWith) build the tables by scanning the
// corpus; the live ingestion subsystem maintains them incrementally as
// documents stream in and calls this directly at every rebuild epoch, so
// both paths share one scoring implementation and produce identical
// rankings.
func AnalyzeTables(dict *textdb.Dictionary, dfD, dfC *textdb.DFTable, ctxTermSet map[textdb.TermID]bool, numDocs, topK int, opts AnalyzeOptions) *Result {
	if topK <= 0 {
		topK = 200
	}
	n := numDocs
	ranksD := dfD.Ranks()
	ranksC := dfC.Ranks()

	scorer := opts.Scorer
	if scorer == nil {
		scorer = stats.LogLikelihood
	}
	// Only terms that gained at least one contextual occurrence can pass
	// Shift_f > 0, so candidate enumeration is restricted to ctxTermSet.
	// Both shift tests and the score are pure functions of the frozen
	// tables, so candidates shard across workers; the final (Score, Term)
	// sort is a total order, making the ranking identical for every
	// worker count.
	score := func(id textdb.TermID) (FacetTerm, bool) {
		df := dfD.DF(id)
		dfc := dfC.DF(id)
		shiftF := dfc - df
		if shiftF <= 0 && !opts.SkipShiftF {
			return FacetTerm{}, false
		}
		shiftR := textdb.Bin(ranksD.Rank(id)) - textdb.Bin(ranksC.Rank(id))
		if shiftR <= 0 && !opts.SkipShiftR {
			return FacetTerm{}, false
		}
		return FacetTerm{
			Term:   dict.String(id),
			DF:     df,
			DFC:    dfc,
			ShiftF: shiftF,
			ShiftR: shiftR,
			Score:  scorer(df, dfc, n),
		}, true
	}
	var cands []FacetTerm
	if workers := opts.Workers; workers > 1 && len(ctxTermSet) > 1 {
		ids := make([]textdb.TermID, 0, len(ctxTermSet))
		for id := range ctxTermSet {
			ids = append(ids, id)
		}
		parts := make([][]FacetTerm, workers)
		parallel.For(background, len(ids), workers, func(w, i int) {
			if ft, ok := score(ids[i]); ok {
				parts[w] = append(parts[w], ft)
			}
		})
		for _, p := range parts {
			cands = append(cands, p...)
		}
	} else {
		for id := range ctxTermSet {
			if ft, ok := score(id); ok {
				cands = append(cands, ft)
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Score != cands[b].Score {
			return cands[a].Score > cands[b].Score
		}
		return cands[a].Term < cands[b].Term
	})
	res := &Result{Candidates: cands, NumDocs: n}
	if topK > len(cands) {
		topK = len(cands)
	}
	res.Facets = cands[:topK]
	return res
}

// FacetTermStrings returns just the facet term texts of the result.
func (r *Result) FacetTermStrings() []string {
	out := make([]string, len(r.Facets))
	for i, f := range r.Facets {
		out[i] = f.Term
	}
	return out
}

// CandidateStrings returns the texts of ALL terms that passed both shift
// tests (the full Facet(D) set before top-k truncation).
func (r *Result) CandidateStrings() []string {
	out := make([]string, len(r.Candidates))
	for i, f := range r.Candidates {
		out[i] = f.Term
	}
	return out
}
