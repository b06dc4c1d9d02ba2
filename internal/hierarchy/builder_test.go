package hierarchy

import (
	"context"
	"strings"
	"testing"
)

// builderFixture is a small corpus with clear nesting structure: baseball
// appears only inside sports documents, paris only inside france
// documents, and "rare" occurs once (below the default MinDF floor).
func builderFixture() (terms []string, docTerms [][]string) {
	terms = []string{"news", "sports", "baseball", "france", "paris", "election", "rare", "sports"} // dup on purpose
	docTerms = [][]string{
		{"news", "sports", "baseball"},
		{"news", "sports", "baseball"},
		{"news", "sports", "baseball"},
		{"news", "sports", "baseball"},
		{"news", "sports"},
		{"news", "sports"},
		{"news", "france", "paris"},
		{"news", "france", "paris"},
		{"news", "france", "paris"},
		{"news", "france"},
		{"news", "france"},
		{"news"},
		{"election"},
		{"election"},
		{"election"},
		{},
		{},
		{},
		{},
		{"rare"},
	}
	return terms, docTerms
}

// fixtureConfig sets a taxonomy so taxonomy-backed builders get real
// inputs: an evidence source that endorses france→paris (and the
// gateFixture pairs) and hypernym chains for the concrete terms.
func fixtureConfig(workers int) BuildConfig {
	return BuildConfig{
		MinDF:   2,
		Workers: workers,
		Taxonomy: Taxonomy{
			Sources: []TaxonomicEvidence{EvidenceFunc{
				EvidenceName: "fixture",
				Fn: func(parent, child string) float64 {
					switch parent + "→" + child {
					case "france→paris", "g_mid→g_leaf", "g_top→g_lone":
						return 1
					}
					return 0
				},
			}},
			Chains: ChainFunc(func(term string) []string {
				switch term {
				case "baseball":
					return []string{"sports"}
				case "paris":
					return []string{"france", "europe"}
				case "election":
					return []string{"politics", "news"}
				}
				return nil
			}),
		},
	}
}

// TestRegistry: the four builders are registered, Names is sorted, ""
// selects subsumption, and an unknown name is an error naming the valid
// ones.
func TestRegistry(t *testing.T) {
	names := Names()
	if got, want := strings.Join(names, ","), "agglomerative,evidence,subsumption,treemin"; got != want {
		t.Fatalf("Names() = %s, want %s", got, want)
	}
	for _, name := range names {
		if b, err := Lookup(name); err != nil || b == nil {
			t.Fatalf("Lookup(%q) = %v, %v", name, b, err)
		}
	}
	if b, err := Lookup(""); err != nil || b != (subsumptionBuilder{}) {
		t.Fatalf(`Lookup("") = %v, %v; want the subsumption builder`, b, err)
	}
	_, err := Lookup("nope")
	if err == nil {
		t.Fatal("Lookup of unknown builder succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, `"nope"`) || !strings.Contains(msg, strings.Join(names, ", ")) {
		t.Fatalf("Lookup error %q does not name the builder and the registered ones", msg)
	}
}

// TestBuilderInvariants runs the builder-agnostic contract over every
// registered strategy: structurally sound forests, every input term
// placed or dropped only for an explainable reason (df below the floor),
// byte-identical output at 1 and 8 workers, and honored cancellation.
// CI runs this test under -race so the worker-sharded sweeps are checked
// for data races, not just determinism.
func TestBuilderInvariants(t *testing.T) {
	terms, docTerms := builderFixture()
	df := map[string]int{}
	for _, row := range docTerms {
		seen := map[string]bool{}
		for _, term := range row {
			if !seen[term] {
				seen[term] = true
				df[term]++
			}
		}
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fixtureConfig(1)
			forest, err := b.Build(context.Background(), terms, docTerms, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkForestInvariants(t, forest)

			// Every distinct input term is either in the forest or sat
			// below the df floor (taxonomy-only builders place everything).
			for _, term := range terms {
				if _, placed := forest.Find(term); !placed && df[term] >= cfg.MinDF {
					t.Errorf("term %q (df %d) missing from %s forest with no explanation", term, df[term], name)
				}
			}

			// Determinism across worker counts.
			sequential := FormatTree(forest)
			parallelForest, err := b.Build(context.Background(), terms, docTerms, fixtureConfig(8))
			if err != nil {
				t.Fatal(err)
			}
			if got := FormatTree(parallelForest); got != sequential {
				t.Errorf("%s: Workers=8 forest differs from Workers=1:\n--- w1 ---\n%s\n--- w8 ---\n%s", name, sequential, got)
			}

			// Pruned-sweep equivalence: the posting-list-pruned sweep
			// must render the same forest as the all-pairs reference.
			// Every builder inherits this check, so a new strategy
			// cannot ship a pruning shortcut that silently drops pairs.
			// (TestPrunedSweepEquivalence repeats this on a larger
			// skewed corpus.)
			if got := buildReference(t, name, terms, docTerms, fixtureConfig(1)); got != sequential {
				t.Errorf("%s: all-pairs reference differs from pruned:\n--- pruned ---\n%s\n--- reference ---\n%s", name, sequential, got)
			}

			// A canceled context aborts the build with ctx's error, never a
			// partial forest.
			canceled, cancel := context.WithCancel(context.Background())
			cancel()
			if f, err := b.Build(canceled, terms, docTerms, cfg); err == nil {
				t.Errorf("%s: canceled build returned forest %v with nil error", name, f)
			}
		})
	}
}

// TestBuilderZeroConfig: BuildConfig{} is documented as valid for every
// builder — defaults kick in and the build succeeds.
func TestBuilderZeroConfig(t *testing.T) {
	terms, docTerms := builderFixture()
	for _, name := range Names() {
		b, _ := Lookup(name)
		forest, err := b.Build(context.Background(), terms, docTerms, BuildConfig{})
		if err != nil {
			t.Fatalf("%s: zero-config build failed: %v", name, err)
		}
		checkForestInvariants(t, forest)
	}
}
