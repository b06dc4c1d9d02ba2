package hierarchy

import (
	"context"
	"testing"

	"repro/internal/parallel"
)

// This file holds the all-pairs references the pruned production sweeps
// are proven against. They live only in tests: production builders have
// one sweep each, over the pairIndex.

// allPairs is the all-pairs candidateSource: for term yi it yields every
// other alive slot with its exact co-occurrence count, zero included,
// and ignores minCo, so a sweep fed by it scores the full cross product
// and every pruning gate (subsumption's thresholdMinCo floor, evidence's
// zero-co ceiling) is checked against it rather than assumed.
type allPairs struct{ st *termStats }

func (allPairs) newScratch() *pairScratch { return &pairScratch{} }

func (a allPairs) forCandidates(yi int, _ *pairScratch, _ int, fn func(xi, co int)) {
	y := a.st.sets[a.st.alive[yi]]
	for xi, x := range a.st.alive {
		if xi != yi {
			fn(xi, a.st.sets[x].AndCount(y))
		}
	}
}

// withAllPairs returns cfg with the all-pairs reference injected.
func withAllPairs(cfg BuildConfig) BuildConfig {
	cfg.candidates = func(st *termStats) candidateSource { return allPairs{st} }
	return cfg
}

// buildReference builds the named builder's forest the pre-pruning way:
// the co-occurrence sweeps over allPairs, and agglomerative through
// aggBuildDense, which also replaces the sparse merge loop with the
// dense n×n one. treemin has no sweep, so its reference is itself.
func buildReference(t *testing.T, name string, terms []string, docTerms [][]string, cfg BuildConfig) string {
	t.Helper()
	var forest *Forest
	var err error
	if name == "agglomerative" {
		forest, err = aggBuildDense(context.Background(), newTermStats(terms, docTerms, cfg.minDF()), minMergeSimilarity, cfg)
	} else {
		forest, err = builders[name].Build(context.Background(), terms, docTerms, withAllPairs(cfg))
	}
	if err != nil {
		t.Fatal(err)
	}
	return FormatTree(forest)
}

// aggBuildDense is the pre-pruning all-pairs agglomerative builder, kept
// verbatim as the reference for the sparse similarity rows and the
// sparse merge loop.
func aggBuildDense(ctx context.Context, st *termStats, minSim float64, cfg BuildConfig) (*Forest, error) {
	uniq, sets, df, alive := st.uniq, st.sets, st.df, st.alive
	n := len(alive)

	// Pairwise Jaccard similarity over the alive terms. Row i is written
	// only by the worker that owns it, so the O(n²) AndCount sweep shards
	// like the subsumption sweep.
	sim := make([]float64, n*n)
	err := parallel.For(ctx, n, cfg.Workers, func(_, i int) {
		a := alive[i]
		for j := i + 1; j < n; j++ {
			b := alive[j]
			co := sets[a].AndCount(sets[b])
			if co == 0 {
				continue
			}
			union := df[a] + df[b] - co
			sim[i*n+j] = float64(co) / float64(union)
		}
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sim[j*n+i] = sim[i*n+j]
		}
	}

	// Each cluster tracks its size (for the average-linkage update) and
	// its name: the global index of the highest-DF member.
	active := make([]bool, n)
	size := make([]int, n)
	name := make([]int, n)
	for i := 0; i < n; i++ {
		active[i] = true
		size[i] = 1
		name[i] = alive[i]
	}

	parentOf := make(map[int]int)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Closest active pair; ties resolve by the lexicographically
		// smallest (name_i, name_j) pair, which is scan order here since
		// clusters keep their creation slots and alive is sorted.
		bestI, bestJ, bestSim := -1, -1, 0.0
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if s := sim[i*n+j]; s > bestSim {
					bestI, bestJ, bestSim = i, j, s
				}
			}
		}
		if bestI < 0 || bestSim < minSim {
			break
		}
		// Name the merged cluster and record the hierarchy edge: the
		// less general name attaches under the more general one.
		winner, loser := name[bestI], name[bestJ]
		if aggMoreGeneral(df, uniq, loser, winner) {
			winner, loser = loser, winner
		}
		parentOf[loser] = winner
		// Lance–Williams average-linkage update into slot bestI.
		for k := 0; k < n; k++ {
			if !active[k] || k == bestI || k == bestJ {
				continue
			}
			merged := (float64(size[bestI])*sim[bestI*n+k] + float64(size[bestJ])*sim[bestJ*n+k]) /
				float64(size[bestI]+size[bestJ])
			sim[bestI*n+k] = merged
			sim[k*n+bestI] = merged
		}
		size[bestI] += size[bestJ]
		name[bestI] = winner
		active[bestJ] = false
	}
	return assembleForest(st, parentOf), nil
}
