package hierarchy

import (
	"context"

	"repro/internal/parallel"
)

// evidenceBuilder is the "evidence" strategy, the extension the paper
// points at ("newer algorithms [5] may give even better results", citing
// Snow, Jurafsky & Ng 2006): instead of relying on document
// co-occurrence alone, each term's parent is chosen by the maximum
// combined score of P(x|y) and the taxonomy evidence sources. A
// candidate must still satisfy P(y|x) < 1 (directionality) and reach
// evidenceThreshold.
//
// The combined score is a weighted mean: P(x|y) carries weight 1 and the
// sources share one unit of weight equally, so with two sources the
// score is (P(x|y) + ½·s₁ + ½·s₂) / 2.
type evidenceBuilder struct{}

// evidenceThreshold is the minimum combined score for attaching a child.
const evidenceThreshold = 0.6

// Build implements Builder.
func (evidenceBuilder) Build(ctx context.Context, terms []string, docTerms [][]string, cfg BuildConfig) (*Forest, error) {
	sources := cfg.Taxonomy.Sources
	totalWeight, sourceWeight := 1.0, 0.0
	if len(sources) > 0 {
		totalWeight, sourceWeight = 2, 1/float64(len(sources))
	}

	st := newTermStats(terms, docTerms, cfg.minDF())
	uniq, df, alive := st.uniq, st.df, st.alive

	// Pruning. A pair with empty posting-list intersection scores at most
	// the sources' full endorsement with no co-occurrence evidence: one
	// unit of the total weight 2, i.e. ½ (0 without sources). That
	// ceiling sits below evidenceThreshold, so zero-co pairs can neither
	// reach the threshold nor displace a candidate that does, and the
	// sweep runs over the pairIndex candidates alone.
	//
	// As in subsumption, every term's best parent is computed
	// independently, so the pairwise evidence combination shards across
	// workers into per-term slots merged deterministically afterwards.
	// The best-candidate tie-break (max score, then lexicographically
	// smallest term) is a total order, so the pruned sweep's visit order
	// cannot change the winner.
	parents := make([]int, len(alive))
	src := cfg.pairSource(st)
	nw := sweepWorkers(cfg.Workers)
	scratches := make([]*pairScratch, nw)
	counts := make([]pairCounts, nw)
	err := parallel.For(ctx, len(alive), cfg.Workers, func(w, yi int) {
		y := alive[yi]
		bestScore := 0.0
		bestIdx := -1
		sc := scratches[w]
		if sc == nil {
			sc = src.newScratch()
			scratches[w] = sc
		}
		yielded := int64(0)
		src.forCandidates(yi, sc, 1, func(xi, co int) {
			yielded++
			x := alive[xi]
			pyx := float64(co) / float64(df[x])
			if pyx >= 1 {
				return
			}
			score := float64(co) / float64(df[y])
			for _, s := range sources {
				score += sourceWeight * clamp01(s.Score(uniq[x], uniq[y]))
			}
			score /= totalWeight
			if score > bestScore || (score == bestScore && bestIdx >= 0 && uniq[x] < uniq[bestIdx]) {
				bestScore = score
				bestIdx = x
			}
		})
		counts[w].candidate += yielded
		counts[w].evaluated += yielded
		counts[w].skipped += int64(len(alive)-1) - yielded
		parents[yi] = -1
		if bestIdx >= 0 && bestScore >= evidenceThreshold {
			parents[yi] = bestIdx
		}
	})
	if err != nil {
		return nil, err
	}
	publishPairCounts(cfg.Metrics, counts, len(alive))
	parentOf := map[int]int{}
	for yi, y := range alive {
		if parents[yi] >= 0 {
			parentOf[y] = parents[yi]
		}
	}
	return assembleForest(st, parentOf), nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
