package eval

import (
	"context"
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

// buildWith runs the named hierarchy builder over terms and docTerms.
func buildWith(ctx context.Context, name string, terms []string, docTerms [][]string, cfg hierarchy.BuildConfig) (*hierarchy.Forest, error) {
	b, err := hierarchy.Lookup(name)
	if err != nil {
		return nil, err
	}
	return b.Build(ctx, terms, docTerms, cfg)
}

// CompareHierarchies runs the comparison on the All×All cell.
func CompareHierarchies(dr *DataRun, topK int) (*HierarchyComparison, error) {
	if topK == 0 {
		topK = 100
	}
	result := dr.RunCell(ExtAll, ResAll, topK)
	terms := result.FacetTermStrings()
	docTerms := core.AssignDocTerms(dr.DS.Corpus, result.Context, result.Corroborated, terms)

	cfg := hierarchy.BuildConfig{Taxonomy: hierarchy.NewTaxonomy(dr.Lab.WordNet, dr.Lab.Wiki)}
	forests := map[string]*hierarchy.Forest{}
	for _, name := range []string{"subsumption", "evidence", "treemin"} {
		f, err := buildWith(context.Background(), name, terms, docTerms, cfg)
		if err != nil {
			return nil, err
		}
		forests[name] = f
	}

	cmp := &HierarchyComparison{}
	for _, m := range []struct {
		name   string
		forest *hierarchy.Forest
	}{
		{"subsumption (paper)", forests["subsumption"]},
		{"evidence combination (Snow-style)", forests["evidence"]},
		{"tree minimization (Stoica-Hearst)", forests["treemin"]},
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
