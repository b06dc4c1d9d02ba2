package ingest

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode"

	"repro/internal/browse"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/textdb"
)

// wordExtractor marks every word important — a deterministic stand-in
// for the Fig. 1 extractors.
type wordExtractor struct{}

func (wordExtractor) Name() string { return "words" }

func (wordExtractor) Extract(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// headWords and tailWords mark overlapping halves of wordExtractor's
// output important: the first half and one more word in text order, and
// the second half and one more word reversed. Each test story names one
// resource term in each half, so only Step 1's union of the two, every
// word in an order neither extractor gives alone, expands it fully.
type headWords struct{}

func (headWords) Name() string { return "head" }

func (headWords) Extract(text string) []string {
	w := wordExtractor{}.Extract(text)
	return w[:len(w)/2+1]
}

type tailWords struct{}

func (tailWords) Name() string { return "tail" }

func (tailWords) Extract(text string) []string {
	w := wordExtractor{}.Extract(text)
	w = w[len(w)/2-1:]
	slices.Reverse(w)
	return w
}

// mapResource is a thesaurus-backed stand-in for the Fig. 2 resources.
type mapResource struct {
	name string
	m    map[string][]string
}

func (r mapResource) Name() string                 { return r.name }
func (r mapResource) Context(term string) []string { return r.m[term] }

func testResource() mapResource {
	return mapResource{name: "world", m: map[string][]string{
		"chirac":   {"politicians", "france"},
		"paris":    {"france", "locations"},
		"merkel":   {"politicians", "germany"},
		"berlin":   {"germany", "locations"},
		"yankees":  {"sports", "teams"},
		"baseball": {"sports"},
	}}
}

// testDocs cycles three story templates so every context facet recurs.
func testDocs(n int) []*textdb.Document {
	// Titles stay clear of the context vocabulary: a context term that
	// already occurs in the documents gains no frequency shift and is
	// correctly rejected as a facet candidate.
	templates := []struct{ title, text string }{
		{"alpha", "Chirac spoke in Paris about the budget"},
		{"beta", "Merkel hosted a Berlin summit on trade"},
		{"gamma", "The Yankees played baseball into the night"},
	}
	base := time.Date(2006, 8, 1, 0, 0, 0, 0, time.UTC)
	out := make([]*textdb.Document, n)
	for i := range out {
		tpl := templates[i%len(templates)]
		out[i] = &textdb.Document{
			Title:  fmt.Sprintf("%s story %d", tpl.title, i),
			Source: "wire",
			Date:   base.AddDate(0, 0, i%28),
			Text:   tpl.text,
		}
	}
	return out
}

func testConfig() Config {
	return Config{
		Extractors: []core.Extractor{wordExtractor{}},
		Resources:  []core.Resource{testResource()},
		Workers:    4,
	}
}

func facetTermSet(iface *browse.Interface) map[string]bool {
	out := map[string]bool{}
	iface.Forest().Walk(func(n *hierarchy.Node, _ int) { out[n.Term] = true })
	return out
}

func drain(t *testing.T, ing *Ingester) {
	t.Helper()
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalMatchesBatch is the core correctness property:
// streaming documents through the incremental DF tables must select
// exactly the facet terms the batch pipeline selects over the same
// corpus, and assign every document exactly the facet terms
// core.AssignDocTerms assigns it over the batch result. The outage case
// runs both paths with every resource down and a fallback configured:
// the fallback's context terms must vote in batch as they do live. The
// two-extractor case runs extractors whose outputs overlap in different
// orders, so both paths must take the same union.
func TestIncrementalMatchesBatch(t *testing.T) {
	words := []core.Extractor{wordExtractor{}}
	t.Run("healthy", func(t *testing.T) {
		checkIncrementalMatchesBatch(t, words, []core.Resource{testResource()}, nil)
	})
	t.Run("two-extractors", func(t *testing.T) {
		checkIncrementalMatchesBatch(t, []core.Extractor{headWords{}, tailWords{}}, []core.Resource{testResource()}, nil)
	})
	t.Run("total-outage-fallback", func(t *testing.T) {
		down := &toggleResource{mapResource: testResource()}
		down.down.Store(true)
		fallback := mapResource{name: "corpus", m: testResource().m}
		checkIncrementalMatchesBatch(t, words, []core.Resource{down}, fallback)
	})
}

func checkIncrementalMatchesBatch(t *testing.T, extractors []core.Extractor, resources []core.Resource, fallback core.Resource) {
	const n = 42

	// Batch run.
	corpus := textdb.NewCorpus()
	for _, d := range testDocs(n) {
		corpus.Add(d)
	}
	p, err := core.New(core.Config{
		Extractors: extractors,
		Resources:  resources,
		Fallback:   fallback,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := p.RunContext(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Facets) == 0 {
		t.Fatal("batch pipeline found no facet terms")
	}

	// Incremental run: bootstrap a prefix, stream the rest across several
	// epochs.
	cfg := testConfig()
	cfg.Extractors = extractors
	cfg.Resources = resources
	cfg.Fallback = fallback
	cfg.EpochDocs = 7
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(n)
	if err := ing.Bootstrap(docs[:10], false); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	for _, d := range docs[10:] {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, ing)

	iface := ing.Current()
	if got := iface.MatchCount(browse.Selection{}); got != n {
		t.Fatalf("published %d docs, want %d", got, n)
	}
	if fallback != nil && (batch.FallbackLookups == 0 || ing.Stats().FallbackLookups == 0) {
		t.Fatalf("fallback unused: batch %d, live %d rescues", batch.FallbackLookups, ing.Stats().FallbackLookups)
	}
	// The incremental DF tables must select exactly the batch ranking.
	want := batch.FacetTermStrings()
	got := ing.FacetTerms()
	if len(got) != len(want) {
		t.Fatalf("live selected %d facet terms %v, batch selected %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: live %q, batch %q", i, got[i], want[i])
		}
	}
	// Every document carries the batch assignment. Concurrent intake
	// admits documents in any order, so rows are matched by title.
	wantRows := map[string][]string{}
	for d, row := range core.AssignDocTerms(corpus, batch.Context, batch.Corroborated, want) {
		wantRows[corpus.Doc(textdb.DocID(d)).Title] = row
	}
	live := iface.Corpus()
	for d, row := range iface.DocTermRows() {
		title := live.Doc(textdb.DocID(d)).Title
		if !reflect.DeepEqual(row, wantRows[title]) {
			t.Fatalf("document %q: live assignment %v, batch %v", title, row, wantRows[title])
		}
	}
	// Terms with multi-vote document support survive into the hierarchy
	// and carry documents.
	forest := facetTermSet(iface)
	for _, term := range []string{"france", "germany", "sports"} {
		if !forest[term] {
			t.Errorf("facet %q missing from the live hierarchy", term)
		}
		if iface.Count(term) == 0 {
			t.Errorf("facet %q has no documents in the live interface", term)
		}
	}
	if st := ing.Stats(); st.Epochs < 2 {
		t.Fatalf("expected >= 2 epochs (bootstrap + increments), got %d", st.Epochs)
	}
}

// TestEpochTriggerAndCache exercises the doc-count trigger and the LRU
// over repeated entities.
func TestEpochTriggerAndCache(t *testing.T) {
	cfg := testConfig()
	cfg.EpochDocs = 5
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(nil, false); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	for _, d := range testDocs(20) {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, ing)

	st := ing.Stats()
	if st.DocsIngested != 20 || st.DocsPublished != 20 {
		t.Fatalf("ingested=%d published=%d, want 20/20", st.DocsIngested, st.DocsPublished)
	}
	if st.Epochs < 2 {
		t.Fatalf("epochs = %d, want >= 2", st.Epochs)
	}
	// Every template repeats, so re-expansions must hit the cache.
	if st.CacheHitRate == 0 {
		t.Fatalf("cache hit rate is zero: %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Fatal("expected at least one cold miss")
	}
	if got := ing.Current().MatchCount(browse.Selection{}); got != 20 {
		t.Fatalf("served %d docs, want 20", got)
	}
}

// TestMaxStalenessTrigger verifies the timer path publishes without the
// doc-count threshold being reached.
func TestMaxStalenessTrigger(t *testing.T) {
	cfg := testConfig()
	cfg.EpochDocs = 1000 // never trigger by count
	cfg.MaxStaleness = 20 * time.Millisecond
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(nil, false); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	for _, d := range testDocs(3) {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "staleness timer publish", func() bool { return ing.Stats().DocsPublished == 3 })
	drain(t, ing)
}

// TestWarmStart persists intake through the segment store, then restarts
// a fresh ingester from disk and checks the collection survived intact.
func TestWarmStart(t *testing.T) {
	dir := t.TempDir()
	store, err := textdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.EpochDocs = 4
	cfg.Store = store
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(12)
	if err := ing.Bootstrap(docs[:5], true); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	for _, d := range docs[5:] {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, ing)
	if st := ing.Stats(); st.PersistedDocs != 12 {
		t.Fatalf("persisted %d docs, want 12 (%+v)", st.PersistedDocs, st)
	}

	// Restart: reopen the store, replay, verify the same collection.
	store2, err := textdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Docs() != 12 {
		t.Fatalf("store holds %d docs after restart, want 12", store2.Docs())
	}
	loaded, err := store2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig()
	cfg2.Store = store2
	ing2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing2.Bootstrap(loaded.Docs(), false); err != nil {
		t.Fatal(err)
	}
	if got := ing2.Current().MatchCount(browse.Selection{}); got != 12 {
		t.Fatalf("warm-started interface serves %d docs, want 12", got)
	}
	// Replayed documents must not be appended again.
	if st := ing2.Stats(); st.PersistedDocs != 12 {
		t.Fatalf("warm start re-persisted: %d docs", st.PersistedDocs)
	}
	drain(t, ing2)
	if store2.Docs() != 12 {
		t.Fatalf("store grew to %d docs across a replay-only session", store2.Docs())
	}
}

// TestGracefulDrain checks Close finishes queued work: everything
// submitted before Close must be published afterwards.
func TestGracefulDrain(t *testing.T) {
	cfg := testConfig()
	cfg.EpochDocs = 1000 // force the final epoch to do the publishing
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Bootstrap(testDocs(2), false); err != nil {
		t.Fatal(err)
	}
	ing.Start()
	for _, d := range testDocs(9) {
		if err := ing.SubmitContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, ing)
	if got := ing.Current().MatchCount(browse.Selection{}); got != 11 {
		t.Fatalf("after drain interface serves %d docs, want 11", got)
	}
	if err := ing.Submit(testDocs(1)[0]); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBackpressure: a saturated queue fails fast before workers
// start draining it.
func TestSubmitBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueSize = 2
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := testDocs(3)
	if err := ing.Submit(docs[0]); err != nil {
		t.Fatal(err)
	}
	if err := ing.Submit(docs[1]); err != nil {
		t.Fatal(err)
	}
	if err := ing.Submit(docs[2]); err != ErrQueueFull {
		t.Fatalf("overfull Submit = %v, want ErrQueueFull", err)
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Resources: []core.Resource{testResource()}}); err == nil {
		t.Fatal("no extractors accepted")
	}
	if _, err := New(Config{Extractors: []core.Extractor{wordExtractor{}}}); err == nil {
		t.Fatal("no resources accepted")
	}
}
