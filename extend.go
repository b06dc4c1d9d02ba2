package facet

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/parallel"
)

// This file implements the paper's extension points (Section VII): custom
// term extractors and expansion resources — the "domain-specific
// vocabularies and ontologies (e.g., from the Taxonomy Warehouse)"
// integration — and the evidence-combination hierarchy construction the
// paper points to as future work (Snow, Jurafsky & Ng 2006).

// TermExtractor identifies important terms in a document; plug custom
// implementations in through Options.ExtraExtractors.
type TermExtractor interface {
	Name() string
	Extract(text string) []string
}

// ContextResource returns context terms for an important term; plug
// custom implementations in through Options.ExtraResources.
type ContextResource interface {
	Name() string
	Context(term string) []string
}

// NewGlossaryExtractor builds a term extractor from a controlled
// vocabulary: terms appearing in the glossary are marked important
// (longest match first). Use it to run the pipeline over domain text
// (financial filings, medical literature) with a domain glossary.
func NewGlossaryExtractor(name string, vocabulary []string) (TermExtractor, error) {
	return core.NewGlossaryExtractor(name, vocabulary)
}

// NewGlossaryResource builds an expansion resource from a thesaurus map
// (term → related terms), the Section VII "financial ontologies and
// thesauri" scenario.
func NewGlossaryResource(name string, thesaurus map[string][]string) (ContextResource, error) {
	return core.NewGlossaryResource(name, thesaurus)
}

// HierarchyMethod selects the hierarchy-construction algorithm by
// registry name (see hierarchy.Names for the full set). The historical
// constants below are the names of the three original strategies; any
// registered builder name — e.g. "agglomerative" — is equally valid.
type HierarchyMethod string

const (
	// HierarchySubsumption is the paper's choice (Sanderson & Croft 1999).
	HierarchySubsumption HierarchyMethod = "subsumption"
	// HierarchyEvidence combines subsumption with WordNet-hypernym and
	// Wikipedia-link evidence (the Snow-style improvement the paper
	// anticipates: "newer algorithms may give even better results").
	HierarchyEvidence HierarchyMethod = "evidence"
	// HierarchyTreeMin is the Stoica–Hearst prior-work baseline: WordNet
	// hypernym paths merged and minimized, no co-occurrence signal.
	HierarchyTreeMin HierarchyMethod = "treemin"
)

// BuildHierarchyWith is BuildHierarchy with an explicit construction
// method: any registered hierarchy.Builder name. The empty string
// selects Options.HierarchyBuilder, then "subsumption". Its wall-clock
// cost is recorded as the build_hierarchy stage of Result.StageReport.
func (r *Result) BuildHierarchyWith(method HierarchyMethod) (*Hierarchy, error) {
	return r.BuildHierarchyWithContext(context.Background(), method)
}

// BuildHierarchyWithContext is BuildHierarchyWith with cancellation: the
// sharded O(terms²) parent-selection sweep checks ctx between terms, so a
// caller-imposed deadline aborts hierarchy construction promptly instead
// of completing the full pairwise pass.
func (r *Result) BuildHierarchyWithContext(ctx context.Context, method HierarchyMethod) (*Hierarchy, error) {
	if r.stages != nil {
		defer r.stages.Start("build_hierarchy")()
	}
	name := string(method)
	if name == "" {
		name = r.sys.opts.HierarchyBuilder
	}
	if name == "" {
		name = string(HierarchySubsumption)
	}
	b, ok := hierarchy.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("facet: unknown hierarchy builder %q (registered: %s)",
			name, strings.Join(hierarchy.Names(), ", "))
	}
	terms := r.Terms()
	docTerms := core.AssignDocTerms(r.sys.corpus, r.inner.Context, r.inner.Corroborated, terms)
	forest, err := b.Build(ctx, terms, docTerms, r.sys.hierarchyBuildConfig())
	if err != nil {
		return nil, err
	}
	return &Hierarchy{forest: forest, docTerms: docTerms}, nil
}

// hierarchyBuildConfig assembles the shared BuildConfig every registered
// builder draws from: the session's threshold and worker knobs plus the
// environment-backed taxonomy wiring (WordNet-hypernym and
// Wikipedia-link evidence sources for the "evidence" builder, hypernym
// chains for "treemin"). Builders ignore the options that do not apply
// to them, so one config serves the whole registry.
func (s *System) hierarchyBuildConfig() hierarchy.BuildConfig {
	env := s.env
	wnEvidence := hierarchy.EvidenceFunc{
		EvidenceName: "wordnet-hypernym",
		Fn: func(parent, child string) float64 {
			lemma, ok := env.wnet.Morphy(child)
			if !ok {
				return 0
			}
			for _, h := range env.wnet.Hypernyms(lemma, 6) {
				if h == parent {
					return 1
				}
			}
			return 0
		},
	}
	wikiEvidence := hierarchy.EvidenceFunc{
		EvidenceName: "wikipedia-link",
		Fn: func(parent, child string) float64 {
			cp, ok := env.wiki.Resolve(child)
			if !ok {
				return 0
			}
			pp, ok := env.wiki.Resolve(parent)
			if !ok {
				return 0
			}
			for _, l := range cp.Links {
				if l.Target == pp.ID {
					return 1
				}
			}
			return 0
		},
	}
	chains := hierarchy.ChainFunc(func(term string) []string {
		lemma, ok := env.wnet.Morphy(term)
		if !ok {
			return nil
		}
		return env.wnet.Hypernyms(lemma, 8)
	})
	return hierarchy.BuildConfig{
		Threshold: s.opts.SubsumptionThreshold,
		Workers:   parallel.Workers(s.opts.Workers),
		Metrics:   s.metrics, // surfaces hierarchy.pairs.* pruning counters; nil disables
		Evidence: hierarchy.EvidenceOptions{
			Sources:   []hierarchy.TaxonomicEvidence{wnEvidence, wikiEvidence},
			Weights:   []float64{0.5, 0.5},
			Threshold: 0.6,
		},
		Chains: chains,
	}
}

// WriteDOT renders the hierarchy as a Graphviz digraph for visualization.
func (h *Hierarchy) WriteDOT(w io.Writer, name string) error {
	return hierarchy.WriteDOT(w, h.forest, name)
}

// WriteJSON serializes the hierarchy (term, df, children) as JSON.
func (h *Hierarchy) WriteJSON(w io.Writer) error {
	return hierarchy.WriteJSON(w, h.forest)
}

// FormatTree renders the hierarchy as an indented text tree.
func (h *Hierarchy) FormatTree() string {
	return hierarchy.FormatTree(h.forest)
}
