package facet

import (
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/ingest"
)

// TestLiveTaxonomyMatchesBatch: live epochs must build the taxonomy-backed
// hierarchies exactly as the batch facade does. An ingester bootstrapped
// on the facade's documents, with the facade's extractors, resources and
// taxonomy, publishes the same rendered forest as BuildHierarchy for the
// "treemin" and "evidence" builders. Without the taxonomy, live treemin
// makes every term a root and live evidence scores co-occurrence alone.
// CI runs this under -race.
func TestLiveTaxonomyMatchesBatch(t *testing.T) {
	env := testEnv(t)
	docs, err := env.GenerateNewsCorpus("SNYT", 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"treemin", "evidence"} {
		t.Run(name, func(t *testing.T) {
			sys, err := NewSystem(env, Options{TopK: 60, HierarchyBuilder: name})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range docs {
				sys.Add(d)
			}
			res, err := sys.ExtractFacets()
			if err != nil {
				t.Fatal(err)
			}
			batch, err := res.BuildHierarchy()
			if err != nil {
				t.Fatal(err)
			}

			ing, err := ingest.New(ingest.Config{
				Extractors:       sys.CoreExtractors(),
				Resources:        sys.CoreResources(),
				TopK:             60,
				Taxonomy:         sys.CoreTaxonomy(),
				HierarchyBuilder: name,
				Workers:          4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := ing.Bootstrap(toTextDocs(docs), false); err != nil {
				t.Fatal(err)
			}
			want := batch.FormatTree()
			if len(batch.Roots()) == batch.Size() {
				t.Fatalf("batch %s forest is flat (%d roots for %d terms); the comparison is vacuous", name, len(batch.Roots()), batch.Size())
			}
			if got := hierarchy.FormatTree(ing.Current().Forest()); got != want {
				t.Errorf("live %s forest differs from batch:\n--- live ---\n%s\n--- batch ---\n%s", name, got, want)
			}
		})
	}
}
