// Package substrate wires the simulated world (a ground-truth ontology
// and the Wikipedia, WordNet and web-search stand-ins synthesized from
// it) and the paper's seven substrates over it: three term extractors
// (Section IV-A) and four context resources (Section IV-B). The facade
// and the evaluation harness both build theirs here, so the served
// system and the paper's tables run the same substrates.
package substrate

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/distctx"
	"repro/internal/ner"
	"repro/internal/ontology"
	"repro/internal/remote"
	"repro/internal/textdb"
	"repro/internal/websearch"
	"repro/internal/wiki"
	"repro/internal/wordnet"
	"repro/internal/yterms"
)

// The substrates' names, as the paper's tables print them.
const (
	NE        = "NE"
	Yahoo     = "Yahoo"
	Wikipedia = "Wikipedia"

	Google       = "Google"
	WordNet      = "WordNet Hypernyms"
	WikiSynonyms = "Wikipedia Synonyms"
	WikiGraph    = "Wikipedia Graph"
)

// ExtractorNames and ResourceNames are the paper's table orders.
var (
	ExtractorNames = []string{NE, Yahoo, Wikipedia}
	ResourceNames  = []string{Google, WordNet, WikiSynonyms, WikiGraph}
)

// World is the simulated environment.
type World struct {
	KB      *ontology.KB
	Wiki    *wiki.Wiki
	WordNet *wordnet.DB
	Engine  *websearch.Engine
	Clock   *remote.Clock // charges the web services' virtual latency; nil charges none
}

// NewWorld synthesizes the world from seed: the ontology at scale (0
// selects 1), Wikipedia from seed+1, WordNet from the ontology's lexicon
// (generated into the real database format and parsed back), and a BM25
// engine over Wikipedia.
func NewWorld(seed uint64, scale float64, clock *remote.Clock) (*World, error) {
	kb, err := ontology.Build(ontology.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, fmt.Errorf("substrate: build ontology: %w", err)
	}
	w, err := wiki.Build(kb, wiki.Config{Seed: seed + 1})
	if err != nil {
		return nil, fmt.Errorf("substrate: build wiki: %w", err)
	}
	wn, err := wordnet.FromIsa(ontology.WordNetLexicon(kb))
	if err != nil {
		return nil, fmt.Errorf("substrate: build wordnet: %w", err)
	}
	return &World{KB: kb, Wiki: w, WordNet: wn, Engine: websearch.NewEngineFromWiki(w), Clock: clock}, nil
}

// NewExtractors builds the named extractors, in order: the NE tagger
// primed with the ontology's entity names and variants (the stand-in for
// LingPipe's trained model), the Yahoo-style extractor keeping 12 terms
// per document against corpus's document frequencies as background, and
// the Wikipedia title matcher. Names must come from ExtractorNames.
func (w *World) NewExtractors(corpus *textdb.Corpus, names ...string) []core.Extractor {
	out := make([]core.Extractor, len(names))
	for i, n := range names {
		switch n {
		case NE:
			var gazetteer []string
			for _, e := range w.KB.Entities() {
				gazetteer = append(gazetteer, e.Display)
				gazetteer = append(gazetteer, e.Variants...)
			}
			out[i] = ner.New(ner.WithGazetteer(gazetteer))
		case Yahoo:
			bg := textdb.NewDFTable(corpus.Dict())
			for d := 0; d < corpus.Len(); d++ {
				bg.AddDoc(corpus.DocTerms(textdb.DocID(d)))
			}
			out[i] = yterms.New(bg, 12, w.Clock)
		case Wikipedia:
			out[i] = wiki.NewTitleExtractor(w.Wiki)
		default:
			panic("substrate: unknown extractor " + n)
		}
	}
	return out
}

// NewResources builds the named context resources, in order: Google-style
// search keeping 10 terms from each of the top 10 results, WordNet
// hypernyms to depth 2, Wikipedia synonyms, and the Wikipedia link graph
// keeping 50 terms. Names must come from ResourceNames.
func (w *World) NewResources(names ...string) []core.Resource {
	out := make([]core.Resource, len(names))
	for i, n := range names {
		switch n {
		case Google:
			out[i] = websearch.NewResource(w.Engine, 10, 10, w.Clock)
		case WordNet:
			out[i] = wordnet.NewResource(w.WordNet, 2)
		case WikiSynonyms:
			out[i] = wiki.NewSynonymResource(w.Wiki)
		case WikiGraph:
			out[i] = wiki.NewGraphResource(w.Wiki, 50)
		default:
			panic("substrate: unknown resource " + n)
		}
	}
	return out
}

// Distributional builds the corpus-only context resource from
// per-document important terms. It weights co-occurrence by
// log-likelihood, not PPMI: the resource ablation (experiments -run
// resourceablation) shows LLR's preference for evidence mass pulls the
// high-frequency general terms into the neighbor lists, which is what
// the subsumption builder needs to recover ancestor structure; PPMI's
// lift favors rare correlates and leaves the hierarchy flat.
func Distributional(ctx context.Context, important [][]string, workers int) (*distctx.Model, error) {
	return distctx.Build(ctx, important, distctx.Config{Weight: distctx.WeightLLR, Workers: workers})
}
