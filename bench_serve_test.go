package facet

import (
	"testing"

	"repro/internal/browse"
)

// benchInterface builds one serving engine for the query benchmarks.
func benchInterface(b *testing.B) *browse.Interface {
	b.Helper()
	env, err := NewSimulatedEnvironment(EnvConfig{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	docs, err := env.GenerateNewsCorpus("SNYT", 150, 7)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := NewSystem(env, Options{TopK: 80})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range docs {
		sys.Add(d)
	}
	res, err := sys.ExtractFacets()
	if err != nil {
		b.Fatal(err)
	}
	h, err := res.BuildHierarchy()
	if err != nil {
		b.Fatal(err)
	}
	iface, err := res.BrowseEngine(h)
	if err != nil {
		b.Fatal(err)
	}
	return iface
}

// BenchmarkBrowseQuery measures query serving: cold (cache emptied every
// iteration, so the posting-list intersection runs) and warm (every
// iteration hits the LRU) at 1-facet and 3-facet conjunctions.
func BenchmarkBrowseQuery(b *testing.B) {
	iface := benchInterface(b)
	roots := iface.Children("", browse.Selection{})
	if len(roots) < 2 {
		b.Fatalf("fixture hierarchy has %d root facets; need 2", len(roots))
	}
	// Three distinct facet terms for the conjunction: the two biggest
	// roots plus the first root's biggest child.
	children := iface.Children(roots[0].Term, browse.Selection{})
	if len(children) == 0 {
		b.Fatalf("root facet %q has no children", roots[0].Term)
	}
	sel1 := browse.Selection{Terms: []string{roots[0].Term}}
	sel3 := browse.Selection{Terms: []string{roots[0].Term, roots[1].Term, children[0].Term}}
	variants := []struct {
		name string
		sel  browse.Selection
		cold bool
	}{
		{"cold_1facet", sel1, true},
		{"cold_3facet", sel3, true},
		{"warm_1facet", sel1, false},
		{"warm_3facet", sel3, false},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			iface.ResetQueryCache()
			if !v.cold {
				iface.MatchCount(v.sel) // prime the cache
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v.cold {
					iface.ResetQueryCache()
				}
				iface.MatchCount(v.sel)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}
