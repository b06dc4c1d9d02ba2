package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/textdb"
)

// EfficiencyReport reproduces the Section V-D analysis: per-stage costs,
// separating real CPU time of the local algorithms from the virtual
// network time of the simulated web services (Yahoo Term Extraction at
// ~2.5 s/document, Google at ~1 s/query).
type EfficiencyReport struct {
	Docs int

	// Per-extractor cost over the sample.
	Extractors []StageCost
	// Per-resource cost of expanding the sample's important terms.
	Resources []StageCost

	// FacetSelection is the wall time of the Step-3 analysis ("extremely
	// fast — a few milliseconds" in the paper).
	FacetSelection time.Duration
	// HierarchyConstruction is the subsumption build time ("1-2 seconds").
	HierarchyConstruction time.Duration

	// LocalOnlyDocsPerSec: throughput of term extraction with only local
	// extractors (NE + Wikipedia) — the paper reports >100 docs/s.
	LocalOnlyDocsPerSec float64
}

// StageCost is one stage's measured cost.
type StageCost struct {
	Name        string
	CPUTime     time.Duration // real compute time over the sample
	VirtualTime time.Duration // simulated network latency charged
	Queries     int           // resource queries or documents processed
}

// PerDocTotal returns the effective per-document cost including virtual
// network time.
func (s StageCost) PerDocTotal(docs int) time.Duration {
	if docs == 0 {
		return 0
	}
	return (s.CPUTime + s.VirtualTime) / time.Duration(docs)
}

// Efficiency measures the pipeline stages over a document sample.
func Efficiency(dr *DataRun, sampleDocs int) (*EfficiencyReport, error) {
	if sampleDocs <= 0 || sampleDocs > dr.DS.Corpus.Len() {
		sampleDocs = dr.DS.Corpus.Len()
	}
	corpus := dr.DS.Corpus
	clock := dr.Lab.Clock
	rep := &EfficiencyReport{Docs: sampleDocs}

	texts := make([]string, sampleDocs)
	for i := 0; i < sampleDocs; i++ {
		doc := corpus.Doc(textdb.DocID(i))
		texts[i] = doc.Title + ". " + doc.Text
	}

	// Extractor stages.
	importantAll := make([][]string, sampleDocs)
	for _, name := range ExtractorOrder {
		ex := dr.Extractor(name)
		clock.Reset()
		start := time.Now()
		for i, text := range texts {
			terms := ex.Extract(text)
			importantAll[i] = append(importantAll[i], terms...)
		}
		rep.Extractors = append(rep.Extractors, StageCost{
			Name:        name,
			CPUTime:     time.Since(start),
			VirtualTime: clock.ServiceElapsed(name),
			Queries:     sampleDocs,
		})
	}

	// Local-only throughput (NE + Wikipedia, skipping the web service).
	start := time.Now()
	for _, text := range texts {
		dr.Extractor(ExtNE).Extract(text)
		dr.Extractor(ExtWikipedia).Extract(text)
	}
	localElapsed := time.Since(start)
	if localElapsed > 0 {
		rep.LocalOnlyDocsPerSec = float64(sampleDocs) / localElapsed.Seconds()
	}

	// Deduplicate important terms per doc for expansion.
	for i := range importantAll {
		seen := map[string]bool{}
		var ded []string
		for _, t := range importantAll[i] {
			if !seen[t] {
				seen[t] = true
				ded = append(ded, t)
			}
		}
		importantAll[i] = ded
	}

	// Resource stages: fresh cache so every distinct term costs a query.
	for _, name := range ResourceOrder {
		r := dr.Lab.Resource(name)
		clock.Reset()
		cache := core.NewResourceCache()
		start := time.Now()
		queries := 0
		seen := map[string]bool{}
		for _, terms := range importantAll {
			for _, t := range terms {
				if !seen[t] {
					seen[t] = true
					queries++
				}
				if _, err := cache.LookupErr(context.Background(), core.AsResourceErr(r), t); err != nil {
					return nil, fmt.Errorf("eval: %s(%q): %w", name, t, err)
				}
			}
		}
		rep.Resources = append(rep.Resources, StageCost{
			Name:        name,
			CPUTime:     time.Since(start),
			VirtualTime: clock.ServiceElapsed(name),
			Queries:     queries,
		})
	}
	clock.Reset()

	// Facet selection (Step 3) on the sample with all resources.
	exp, err := core.Expand(context.Background(), importantAll, dr.Lab.Resources(ResourceOrder...), nil, dr.Lab.cache, 0)
	if err != nil {
		return nil, err
	}
	sub := subCorpus(corpus, sampleDocs)
	start = time.Now()
	result := core.Analyze(sub, exp.Context, 200)
	rep.FacetSelection = time.Since(start)

	// Hierarchy construction over the selected terms.
	terms := result.FacetTermStrings()
	docTerms := core.AssignDocTerms(sub, exp.Context, exp.Corroborated, terms)
	start = time.Now()
	if _, err := hierarchy.BuildSubsumption(terms, docTerms, hierarchy.SubsumptionConfig{}); err != nil {
		return nil, err
	}
	rep.HierarchyConstruction = time.Since(start)
	return rep, nil
}

// subCorpus views the first n documents of a corpus as a corpus sharing
// the same dictionary.
func subCorpus(c *textdb.Corpus, n int) *textdb.Corpus {
	if n >= c.Len() {
		return c
	}
	sub := textdb.NewCorpusSharing(c.Dict())
	for i := 0; i < n; i++ {
		d := *c.Doc(textdb.DocID(i))
		sub.Add(&d)
	}
	return sub
}

// Format renders the report.
func (r *EfficiencyReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Efficiency over %d documents\n\n", r.Docs)
	sb.WriteString("Term extractors (per-document cost, incl. simulated network time):\n")
	for _, s := range r.Extractors {
		fmt.Fprintf(&sb, "  %-12s cpu=%-12v net=%-12v per-doc=%v\n",
			s.Name, s.CPUTime.Round(time.Microsecond), s.VirtualTime, s.PerDocTotal(r.Docs).Round(time.Microsecond))
	}
	sb.WriteString("\nExternal resources (expansion of the sample's important terms):\n")
	for _, s := range r.Resources {
		per := time.Duration(0)
		if s.Queries > 0 {
			per = (s.CPUTime + s.VirtualTime) / time.Duration(s.Queries)
		}
		fmt.Fprintf(&sb, "  %-20s cpu=%-12v net=%-14v queries=%-6d per-query=%v\n",
			s.Name, s.CPUTime.Round(time.Microsecond), s.VirtualTime, s.Queries, per.Round(time.Microsecond))
	}
	fmt.Fprintf(&sb, "\nFacet selection (Step 3): %v\n", r.FacetSelection.Round(time.Microsecond))
	fmt.Fprintf(&sb, "Hierarchy construction:   %v\n", r.HierarchyConstruction.Round(time.Microsecond))
	fmt.Fprintf(&sb, "Local-only extraction throughput: %.0f docs/s\n", r.LocalOnlyDocsPerSec)
	return sb.String()
}
