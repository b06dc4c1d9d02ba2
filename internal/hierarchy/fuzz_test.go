package hierarchy

import (
	"context"
	"fmt"
	"testing"
)

// fuzzTerms is the closed vocabulary the subsumption fuzzer draws from.
var fuzzTerms = [16]string{
	"news", "sports", "politics", "france", "paris", "chirac", "iraq",
	"war", "trial", "court", "art", "music", "opera", "film", "europe", "asia",
}

// decodeFuzzCollection turns fuzz bytes into (terms, docTerms): two
// bytes per document form a 16-bit term-presence mask.
func decodeFuzzCollection(data []byte) ([]string, [][]string) {
	terms := fuzzTerms[:]
	var docTerms [][]string
	const maxDocs = 96
	for d := 0; d+1 < len(data) && len(docTerms) < maxDocs; d += 2 {
		mask := uint16(data[d]) | uint16(data[d+1])<<8
		var row []string
		for b := 0; b < 16; b++ {
			if mask&(1<<b) != 0 {
				row = append(row, fuzzTerms[b])
			}
		}
		docTerms = append(docTerms, row)
	}
	return terms, docTerms
}

// checkForestInvariants verifies structural soundness of a built forest:
// acyclic parent chains, every indexed node reachable from a root
// exactly once, and Parent/Children pointers mutually consistent.
func checkForestInvariants(t *testing.T, f *Forest) {
	t.Helper()
	size := f.Size()
	visited := map[*Node]bool{}
	f.Walk(func(n *Node, depth int) {
		if visited[n] {
			t.Fatalf("node %q visited twice — forest has a cycle or shared subtree", n.Term)
		}
		visited[n] = true
		if depth > size {
			t.Fatalf("node %q at depth %d exceeds forest size %d — parent cycle", n.Term, depth, size)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				t.Fatalf("child %q of %q has Parent %v", c.Term, n.Term, c.Parent)
			}
		}
	})
	if len(visited) != size {
		t.Fatalf("walk reached %d nodes, index holds %d — unreachable (cyclic) nodes exist", len(visited), size)
	}
	for _, r := range f.Roots {
		if r.Parent != nil {
			t.Fatalf("root %q has a parent %q", r.Term, r.Parent.Term)
		}
	}
	// Independent acyclicity check through the Parent pointers themselves.
	for term, start := range f.index {
		steps := 0
		for n := start; n.Parent != nil; n = n.Parent {
			steps++
			if steps > size {
				t.Fatalf("parent chain from %q does not terminate", term)
			}
		}
	}
}

// FuzzSubsumption builds subsumption forests over arbitrary document
// collections and worker counts, checking that construction never fails
// or panics, the result is a true forest (acyclic, every term reachable
// exactly once), and the sharded pairwise sweep renders the identical
// tree to the sequential one.
func FuzzSubsumption(f *testing.F) {
	f.Add([]byte{0x07, 0x00, 0x03, 0x00, 0x01, 0x00, 0x07, 0x00}, uint8(4))
	f.Add([]byte{0xff, 0xff, 0x0f, 0x00, 0xf0, 0x00}, uint8(0))
	f.Add([]byte{}, uint8(2))
	f.Add([]byte{0x01, 0x80, 0x01, 0x80, 0x03, 0xc0}, uint8(7))
	b, err := Lookup("subsumption")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		terms, docTerms := decodeFuzzCollection(data)
		cfg := BuildConfig{Workers: int(workers % 8)}
		forest, err := b.Build(context.Background(), terms, docTerms, cfg)
		if err != nil {
			t.Fatalf("subsumption build: %v", err)
		}
		checkForestInvariants(t, forest)

		seqCfg := cfg
		seqCfg.Workers = 1
		seq, err := b.Build(context.Background(), terms, docTerms, seqCfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := FormatTree(forest), FormatTree(seq); got != want {
			t.Fatalf("workers=%d forest diverges from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s",
				cfg.Workers, got, want)
		}
	})
}

// TestSubsumptionWorkersEquivalence pins the worker-count determinism of
// the pairwise sweep on a fixed skewed collection, without the fuzzer.
func TestSubsumptionWorkersEquivalence(t *testing.T) {
	var docTerms [][]string
	for i := 0; i < 60; i++ {
		row := []string{"news"}
		if i%2 == 0 {
			row = append(row, "sports")
		}
		if i%4 == 0 {
			row = append(row, "football", fmt.Sprintf("team%d", i%8))
		}
		if i%3 == 0 {
			row = append(row, "politics")
		}
		if i%6 == 0 {
			row = append(row, "election")
		}
		docTerms = append(docTerms, row)
	}
	terms := []string{"news", "sports", "football", "politics", "election",
		"team0", "team4", "team1", "team2", "team3"}
	seq := build(t, "subsumption", terms, docTerms, BuildConfig{Workers: 1})
	for _, workers := range []int{0, 2, 5, 16} {
		par := build(t, "subsumption", terms, docTerms, BuildConfig{Workers: workers})
		if got, want := FormatTree(par), FormatTree(seq); got != want {
			t.Fatalf("workers=%d forest diverges:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}
