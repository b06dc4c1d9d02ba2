package eval

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hierarchy"
)

// HierarchyComparison tests the paper's closing conjecture about
// hierarchy construction ("newer algorithms [5] may give even better
// results", citing Snow et al.): the same extracted facet terms are
// organized by three builders and judged by the same qualified-annotator
// pool.
//
//   - subsumption: the paper's choice (Sanderson & Croft).
//   - evidence: subsumption combined with WordNet-hypernym and
//     Wikipedia-link evidence (Snow-style).
//   - tree-min: the Stoica–Hearst prior-work baseline (WordNet paths
//     only — no co-occurrence signal).
type HierarchyComparison struct {
	Methods []HierarchyMethodResult
}

// HierarchyMethodResult is one builder's outcome.
type HierarchyMethodResult struct {
	Name      string
	Terms     int // terms placed in the hierarchy
	Roots     int // top-level facets
	MaxDepth  int
	Precision float64 // judged by the annotator pool
}

// EvidenceSources builds the lab's taxonomy evidence sources for the
// evidence-combination builder: WordNet-hypernym and Wikipedia-link
// membership tests over the lab's substrates. Weight them 0.5 each with
// threshold 0.6 for the configuration the comparison experiments use.
func (l *Lab) EvidenceSources() []hierarchy.TaxonomicEvidence {
	wn := l.WordNet
	wnEvidence := hierarchy.EvidenceFunc{
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
	w := l.Wiki
	wikiEvidence := hierarchy.EvidenceFunc{
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
	return []hierarchy.TaxonomicEvidence{wnEvidence, wikiEvidence}
}

// HypernymChains builds the lab's chain provider for the
// tree-minimization builder: WordNet hypernym chains up to depth 8.
func (l *Lab) HypernymChains() hierarchy.ChainProvider {
	wn := l.WordNet
	return hierarchy.ChainFunc(func(term string) []string {
		lemma, ok := wn.Morphy(term)
		if !ok {
			return nil
		}
		return wn.Hypernyms(lemma, 8)
	})
}

// CompareHierarchies runs the comparison on the All×All cell.
func CompareHierarchies(dr *DataRun, topK int) (*HierarchyComparison, error) {
	if topK == 0 {
		topK = 100
	}
	result := dr.RunCell(ExtAll, ResAll, topK)
	terms := result.FacetTermStrings()
	docTerms := core.AssignDocTerms(dr.DS.Corpus, result.Context, result.Corroborated, terms)

	subsumption, err := hierarchy.BuildSubsumption(terms, docTerms, hierarchy.SubsumptionConfig{})
	if err != nil {
		return nil, err
	}
	evidence, err := hierarchy.BuildWithEvidence(terms, docTerms, hierarchy.EvidenceConfig{
		Sources:   dr.Lab.EvidenceSources(),
		Weights:   []float64{0.5, 0.5},
		Threshold: 0.6,
	})
	if err != nil {
		return nil, err
	}
	treeMin := hierarchy.BuildTreeMinimization(terms, dr.Lab.HypernymChains())

	cmp := &HierarchyComparison{}
	for _, m := range []struct {
		name   string
		forest *hierarchy.Forest
	}{
		{"subsumption (paper)", subsumption},
		{"evidence combination (Snow-style)", evidence},
		{"tree minimization (Stoica-Hearst)", treeMin},
	} {
		_, precision := dr.Pool.JudgePrecision(m.forest)
		depth := 0
		m.forest.Walk(func(_ *hierarchy.Node, d int) {
			if d > depth {
				depth = d
			}
		})
		cmp.Methods = append(cmp.Methods, HierarchyMethodResult{
			Name:      m.name,
			Terms:     m.forest.Size(),
			Roots:     len(m.forest.Roots),
			MaxDepth:  depth,
			Precision: precision,
		})
	}
	return cmp, nil
}

// Format renders the comparison.
func (c *HierarchyComparison) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-36s %8s %8s %10s %10s\n", "Method", "Terms", "Roots", "MaxDepth", "Precision")
	sb.WriteString(strings.Repeat("-", 76) + "\n")
	for _, m := range c.Methods {
		fmt.Fprintf(&sb, "%-36s %8d %8d %10d %10.3f\n", m.Name, m.Terms, m.Roots, m.MaxDepth, m.Precision)
	}
	return sb.String()
}
