package hierarchy

import (
	"context"
	"sort"
)

// buildTreeMinimization implements the Stoica–Hearst approach the paper
// cites as prior work (HLT-NAACL 2004/2007): each term contributes its
// hypernym path; the paths are merged into one tree, and the tree is then
// minimized by eliminating every internal node that is not itself an
// input term and has exactly one child. Terms with no chain become
// roots — which is precisely the named-entity weakness the paper's
// technique addresses.
func buildTreeMinimization(terms []string, chains ChainProvider) *Forest {
	forest := &Forest{index: map[string]*Node{}}
	nodeFor := func(term string) *Node {
		if n, ok := forest.index[term]; ok {
			return n
		}
		n := &Node{Term: term}
		forest.index[term] = n
		return n
	}
	inputSet := map[string]bool{}
	for _, t := range terms {
		inputSet[t] = true
	}
	// Merge paths root→...→term.
	for _, t := range terms {
		chain := chains.Chain(t)
		path := make([]string, 0, len(chain)+1)
		for i := len(chain) - 1; i >= 0; i-- {
			path = append(path, chain[i])
		}
		path = append(path, t)
		var parent *Node
		for _, term := range path {
			n := nodeFor(term)
			if parent != nil && n.Parent == nil && n != parent && !isAncestorNode(n, parent) {
				n.Parent = parent
				parent.Children = append(parent.Children, n)
			}
			parent = n
		}
	}
	for _, n := range forest.index {
		if n.Parent == nil {
			forest.Roots = append(forest.Roots, n)
		}
	}
	// Minimization: splice out non-input single-child internal nodes.
	var minimize func(n *Node) *Node
	minimize = func(n *Node) *Node {
		for i, c := range n.Children {
			n.Children[i] = minimize(c)
			n.Children[i].Parent = n
		}
		if !inputSet[n.Term] && len(n.Children) == 1 {
			child := n.Children[0]
			child.Parent = n.Parent
			delete(forest.index, n.Term)
			return child
		}
		return n
	}
	for i, r := range forest.Roots {
		m := minimize(r)
		m.Parent = nil
		forest.Roots[i] = m
	}
	// Drop non-input leaf roots (chains whose term was pruned elsewhere).
	roots := forest.Roots[:0]
	for _, r := range forest.Roots {
		if len(r.Children) == 0 && !inputSet[r.Term] {
			delete(forest.index, r.Term)
			continue
		}
		roots = append(roots, r)
	}
	forest.Roots = roots
	sort.Slice(forest.Roots, func(i, j int) bool { return forest.Roots[i].Term < forest.Roots[j].Term })
	forest.Walk(func(n *Node, _ int) {
		sort.Slice(n.Children, func(i, j int) bool { return n.Children[i].Term < n.Children[j].Term })
	})
	return forest
}

// treeminBuilder is the "treemin" strategy: buildTreeMinimization over
// cfg.Taxonomy.Chains. docTerms and the co-occurrence settings are
// ignored — the hierarchy comes entirely from the taxonomy chains, so
// there is no pairwise sweep (no candidate-pair generator, no
// hierarchy.pairs.* counters). Cost is O(Σ chain length), not O(terms²).
type treeminBuilder struct{}

// Build implements Builder.
func (treeminBuilder) Build(ctx context.Context, terms []string, docTerms [][]string, cfg BuildConfig) (*Forest, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	chains := cfg.Taxonomy.Chains
	if chains == nil {
		chains = ChainFunc(func(string) []string { return nil })
	}
	return buildTreeMinimization(terms, chains), nil
}

func isAncestorNode(a, b *Node) bool {
	for cur := b; cur != nil; cur = cur.Parent {
		if cur == a {
			return true
		}
	}
	return false
}
