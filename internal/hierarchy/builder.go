package hierarchy

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/obsv"
)

// Builder constructs a facet hierarchy over extracted terms. terms is the
// ranked facet vocabulary; docTerms lists, for every document, which of
// the terms occur in it (strings not in terms are ignored by builders
// that use co-occurrence; taxonomy-only builders may ignore docTerms
// entirely). Builders must be deterministic — the same inputs and config
// yield the same Forest at every worker count — and must honor ctx
// cancellation by returning ctx's error instead of a partial forest.
//
// Builders are selected by name through Lookup — the facade
// (`facet.Options.HierarchyBuilder`), the serving binaries' -hierarchy
// flags, live ingestion and the experiments bake-off all dispatch
// through it, so adding a strategy is one new file plus one entry in
// builders.
type Builder interface {
	Build(ctx context.Context, terms []string, docTerms [][]string, cfg BuildConfig) (*Forest, error)
}

// BuildConfig is the shared configuration for every Builder: what
// production callers vary. Builders ignore the fields they do not use,
// and the zero value is a valid config for every builder. The
// algorithms' own parameters are constants (subsumptionThreshold,
// maxChildDFFraction, evidenceThreshold, minMergeSimilarity).
type BuildConfig struct {
	// MinDF drops terms observed in fewer documents; co-occurrence
	// estimates below a handful of documents are noise. 0 selects 2.
	// Taxonomy-only builders (treemin) ignore it.
	MinDF int
	// Workers shards each builder's pairwise sweep across a bounded
	// worker pool. <= 1 (the zero value) runs sequentially; the forest
	// is identical for every worker count.
	Workers int
	// Metrics, when set, receives the sweep's pair-pruning counters —
	// hierarchy.pairs.{candidate,evaluated,skipped} and the
	// hierarchy.sweep.terms gauge (see pairCounts). nil disables
	// instrumentation.
	Metrics *obsv.Registry
	// Taxonomy is the external is-a knowledge: evidence sources for the
	// "evidence" builder and ancestor chains for "treemin". The zero
	// value means no taxonomy (evidence scores co-occurrence alone,
	// treemin makes every term a root).
	Taxonomy Taxonomy

	// candidates, when set, replaces the posting-list pair generator of
	// the co-occurrence sweeps. Production leaves it nil; the
	// differential tests inject the all-pairs reference through it.
	candidates func(*termStats) candidateSource
}

// minDF returns the effective document-frequency floor.
func (c BuildConfig) minDF() int {
	if c.MinDF == 0 {
		return 2
	}
	return c.MinDF
}

// pairSource returns the candidate-pair generator for a sweep over st.
func (c BuildConfig) pairSource(st *termStats) candidateSource {
	if c.candidates != nil {
		return c.candidates(st)
	}
	return newPairIndex(st)
}

// builders maps each registry name to its strategy.
var builders = map[string]Builder{
	"subsumption":   subsumptionBuilder{},
	"evidence":      evidenceBuilder{},
	"treemin":       treeminBuilder{},
	"agglomerative": agglomerativeBuilder{},
}

// Lookup returns the builder with the given name; "" selects
// "subsumption", the paper's choice. An unknown name is an error that
// lists the valid ones.
func Lookup(name string) (Builder, error) {
	if name == "" {
		name = "subsumption"
	}
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("unknown hierarchy builder %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	return b, nil
}

// Names returns the builder names, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// termStats is the co-occurrence scaffolding shared by every builder that
// estimates relations from the corpus: deduplicated term list, per-term
// posting bitsets, document frequencies, and the df-floor survivor list
// in deterministic (lexicographic) order.
type termStats struct {
	uniq  []string
	idx   map[string]int
	sets  []*bitset.Set
	df    []int
	alive []int
	nDocs int
}

func newTermStats(terms []string, docTerms [][]string, minDF int) *termStats {
	st := &termStats{idx: make(map[string]int, len(terms)), nDocs: len(docTerms)}
	st.uniq = make([]string, 0, len(terms))
	for _, t := range terms {
		if _, dup := st.idx[t]; !dup {
			st.idx[t] = len(st.uniq)
			st.uniq = append(st.uniq, t)
		}
	}
	st.sets = make([]*bitset.Set, len(st.uniq))
	for i := range st.sets {
		st.sets[i] = bitset.New(st.nDocs)
	}
	for d, ts := range docTerms {
		for _, t := range ts {
			if i, ok := st.idx[t]; ok {
				st.sets[i].Set(d)
			}
		}
	}
	st.df = make([]int, len(st.uniq))
	for i, s := range st.sets {
		st.df[i] = s.Count()
	}
	for i := range st.uniq {
		if st.df[i] >= minDF {
			st.alive = append(st.alive, i)
		}
	}
	sort.Slice(st.alive, func(a, b int) bool { return st.uniq[st.alive[a]] < st.uniq[st.alive[b]] })
	return st
}

// assembleForest turns a parent assignment over st.alive into a Forest:
// it guards against cycles (walking up from every term and cutting
// back-edges), attaches children, and orders children and roots by
// descending DF then term — the deterministic convention every
// co-occurrence builder shares.
func assembleForest(st *termStats, parentOf map[int]int) *Forest {
	nodes := make(map[int]*Node, len(st.alive))
	for _, i := range st.alive {
		nodes[i] = &Node{Term: st.uniq[i], DF: st.df[i]}
	}
	// Cycle guard: pairwise relations with directionality cannot create
	// 2-cycles on exact ties, but transitive chains through
	// floating-point equalities are broken defensively by walking up and
	// cutting back-edges.
	for _, y := range st.alive {
		seen := map[int]bool{y: true}
		cur, ok := parentOf[y]
		for ok {
			if seen[cur] {
				delete(parentOf, y) // cut: y becomes a root
				break
			}
			seen[cur] = true
			cur, ok = parentOf[cur]
		}
	}
	forest := &Forest{index: map[string]*Node{}}
	for _, i := range st.alive {
		forest.index[st.uniq[i]] = nodes[i]
	}
	for _, y := range st.alive {
		if p, ok := parentOf[y]; ok {
			nodes[y].Parent = nodes[p]
			nodes[p].Children = append(nodes[p].Children, nodes[y])
		} else {
			forest.Roots = append(forest.Roots, nodes[y])
		}
	}
	// Deterministic child and root order: by descending DF then term.
	less := func(a, b *Node) bool {
		if a.DF != b.DF {
			return a.DF > b.DF
		}
		return a.Term < b.Term
	}
	forest.Walk(func(n *Node, _ int) {
		sort.Slice(n.Children, func(i, j int) bool { return less(n.Children[i], n.Children[j]) })
	})
	sort.Slice(forest.Roots, func(i, j int) bool { return less(forest.Roots[i], forest.Roots[j]) })
	return forest
}
