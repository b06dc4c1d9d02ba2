package hierarchy

import (
	"repro/internal/wiki"
	"repro/internal/wordnet"
)

// Taxonomy is the external is-a knowledge the taxonomy-backed builders
// draw on: evidence sources for "evidence" and ancestor chains for
// "treemin". Both must be safe for concurrent use when Workers > 1.
type Taxonomy struct {
	// Sources score parent→child hypotheses for the evidence builder.
	Sources []TaxonomicEvidence
	// Chains supplies is-a ancestor chains for the tree-minimization
	// builder; nil means no terms have chains (every term is a root).
	Chains ChainProvider
}

// NewTaxonomy wires WordNet and Wikipedia into a Taxonomy: a
// WordNet-hypernym test (the parent is among the child's hypernyms up to
// depth 6), a Wikipedia-link test (the child's page links to the
// parent's), and WordNet hypernym chains up to depth 8.
func NewTaxonomy(wn *wordnet.DB, w *wiki.Wiki) Taxonomy {
	wnEvidence := EvidenceFunc{
		EvidenceName: "wordnet-hypernym",
		Fn: func(parent, child string) float64 {
			lemma, ok := wn.Morphy(child)
			if !ok {
				return 0
			}
			for _, h := range wn.Hypernyms(lemma, 6) {
				if h == parent {
					return 1
				}
			}
			return 0
		},
	}
	wikiEvidence := EvidenceFunc{
		EvidenceName: "wikipedia-link",
		Fn: func(parent, child string) float64 {
			cp, ok := w.Resolve(child)
			if !ok {
				return 0
			}
			pp, ok := w.Resolve(parent)
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
	chains := ChainFunc(func(term string) []string {
		lemma, ok := wn.Morphy(term)
		if !ok {
			return nil
		}
		return wn.Hypernyms(lemma, 8)
	})
	return Taxonomy{Sources: []TaxonomicEvidence{wnEvidence, wikiEvidence}, Chains: chains}
}

// TaxonomicEvidence scores the hypothesis "parent is-a-broader-term-of
// child" from one knowledge source, in [0, 1].
type TaxonomicEvidence interface {
	Name() string
	Score(parent, child string) float64
}

// EvidenceFunc adapts a function to TaxonomicEvidence.
type EvidenceFunc struct {
	EvidenceName string
	Fn           func(parent, child string) float64
}

// Name implements TaxonomicEvidence.
func (e EvidenceFunc) Name() string { return e.EvidenceName }

// Score implements TaxonomicEvidence.
func (e EvidenceFunc) Score(parent, child string) float64 { return e.Fn(parent, child) }

// ChainProvider supplies is-a ancestor chains (nearest first) for a term,
// e.g. WordNet hypernym chains via wordnet.DB. Terms without a chain
// return nil.
type ChainProvider interface {
	Chain(term string) []string
}

// ChainFunc adapts a function to ChainProvider.
type ChainFunc func(term string) []string

// Chain implements ChainProvider.
func (f ChainFunc) Chain(term string) []string { return f(term) }
