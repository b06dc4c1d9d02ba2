// Package eval contains the experiment runners that regenerate every
// table and figure of the paper's evaluation (Section V), plus the two
// ablations called out in DESIGN.md. Each runner produces a printable
// structure whose layout matches the paper's.
package eval

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mturk"
	"repro/internal/newsgen"
	"repro/internal/remote"
	"repro/internal/substrate"
)

// Extractor and resource display names, matching the paper's tables.
const (
	ExtNE        = substrate.NE
	ExtYahoo     = substrate.Yahoo
	ExtWikipedia = substrate.Wikipedia

	ResGoogle    = substrate.Google
	ResWordNet   = substrate.WordNet
	ResWikiSyn   = substrate.WikiSynonyms
	ResWikiGraph = substrate.WikiGraph
)

// ExtractorOrder and ResourceOrder are the paper's table orders.
var (
	ExtractorOrder = substrate.ExtractorNames
	ResourceOrder  = substrate.ResourceNames
)

// Lab is the shared experimental apparatus: the simulated world (the
// ground-truth knowledge base, Wikipedia, WordNet, the search engine and
// a latency clock) and every substrate built over it. One Lab serves all
// datasets.
type Lab struct {
	*substrate.World

	cache *core.ResourceCache
}

// NewLab builds the apparatus; it always charges virtual network latency
// to its Clock.
func NewLab(seed uint64) (*Lab, error) {
	world, err := substrate.NewWorld(seed, 0, remote.NewClock())
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	return &Lab{World: world, cache: core.NewResourceCache()}, nil
}

// DataRun binds the lab to one generated dataset and caches per-extractor
// important-term identification, so that every cell of a table pays for
// extraction once.
type DataRun struct {
	Lab  *Lab
	DS   *newsgen.Dataset
	Pool *mturk.Pool

	extractors map[string]core.Extractor
	important  map[string][][]string
}

// NewDataRun generates the dataset for a profile and prepares extractors.
func (l *Lab) NewDataRun(p newsgen.Profile, seed uint64) (*DataRun, error) {
	ds, err := newsgen.Generate(l.KB, p, seed)
	if err != nil {
		return nil, err
	}
	return l.NewDataRunFrom(ds, seed)
}

// NewDataRunFrom wraps an existing dataset.
func (l *Lab) NewDataRunFrom(ds *newsgen.Dataset, seed uint64) (*DataRun, error) {
	dr := &DataRun{
		Lab:        l,
		DS:         ds,
		Pool:       mturk.NewPool(l.KB, mturk.Config{Seed: seed + 100}),
		extractors: map[string]core.Extractor{},
		important:  map[string][][]string{},
	}
	for i, e := range l.NewExtractors(ds.Corpus, ExtractorOrder...) {
		dr.extractors[ExtractorOrder[i]] = e
	}
	return dr, nil
}

// Extractor returns an extractor by paper name.
func (dr *DataRun) Extractor(name string) core.Extractor {
	e, ok := dr.extractors[name]
	if !ok {
		panic("eval: unknown extractor " + name)
	}
	return e
}

// Important returns (computing once) the per-document important terms for
// an extractor configuration: a single extractor name or ExtAll.
const ExtAll = "All"

// ResAll selects all four resources.
const ResAll = "All"

func (dr *DataRun) Important(extractor string) [][]string {
	if cached, ok := dr.important[extractor]; ok {
		return cached
	}
	var out [][]string
	if extractor == ExtAll {
		// Step 1's union of the three extractors' cached terms.
		out = make([][]string, dr.DS.Corpus.Len())
		lists := make([][]string, len(ExtractorOrder))
		for d := range out {
			for i, name := range ExtractorOrder {
				lists[i] = dr.Important(name)[d]
			}
			out[d] = core.UnionTerms(lists...)
		}
	} else {
		// Step 1 fails only on cancellation, and a background context
		// never cancels.
		out, _, _ = core.IdentifyImportantReport(context.Background(), dr.DS.Corpus, []core.Extractor{dr.Extractor(extractor)}, 0, 0)
	}
	dr.important[extractor] = out
	return out
}

// resourceSet resolves a resource configuration name to resources.
func (dr *DataRun) resourceSet(resource string) []core.Resource {
	if resource == ResAll {
		return dr.Lab.NewResources(ResourceOrder...)
	}
	return dr.Lab.NewResources(resource)
}

// RunCell executes the pipeline for one (extractor config, resource
// config) cell and returns the analysis result.
func (dr *DataRun) RunCell(extractor, resource string, topK int) *core.Result {
	important := dr.Important(extractor)
	// Step 2 fails only on cancellation, and a background context never
	// cancels.
	exp, _ := core.Expand(context.Background(), important, dr.resourceSet(resource), nil, dr.Lab.cache, 0)
	res := core.AnalyzeWith(dr.DS.Corpus, exp.Context, topK, core.AnalyzeOptions{})
	res.Important = important
	res.Context = exp.Context
	res.Corroborated = exp.Corroborated
	return res
}

// SampleIndices returns up to n story indices (the paper annotates a
// 1,000-story random sample of the larger datasets; we take a
// deterministic prefix, which is equivalent for generated data).
func (dr *DataRun) SampleIndices(n int) []int {
	if n > dr.DS.Corpus.Len() {
		n = dr.DS.Corpus.Len()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
