package hierarchy

import (
	"slices"

	"repro/internal/obsv"
)

// This file is the shared candidate-pair generator behind every
// co-occurrence builder's pairwise sweep. The dense formulation compares
// all n·(n−1) term pairs, but only pairs whose posting lists intersect
// can ever relate: P(x|y) ≥ θ needs co-occurrence, Jaccard similarity is
// zero without it, and without co-occurrence the combined evidence score
// stays below its threshold. So instead of sweeping the full cross
// product, the builders walk an inverted "term → candidate partners"
// index derived from the bitset posting lists and score only pairs with
// co-occurrence ≥ 1 — on sparse corpora an order of magnitude fewer
// evaluations (see the hierarchy.pairs.* counters and DESIGN §8 for the
// cost model).
//
// The generator is deliberately deterministic: partners stream in
// ascending slot order with exact co-occurrence counts, so a pruned
// sweep visits a subset of the all-pairs sweep's pairs with identical
// arithmetic. The differential tests inject an all-pairs candidateSource
// through BuildConfig.candidates and require byte-identical forests
// (TestPrunedSweepEquivalence); FuzzPairStream pins the generator itself.

// candidateSource streams the partners a sweep scores for one term. The
// pairIndex is the only production implementation.
type candidateSource interface {
	// newScratch returns one worker's reusable state for forCandidates.
	newScratch() *pairScratch
	// forCandidates calls fn for term yi's partners xi with their
	// co-occurrence counts, in ascending slot order.
	forCandidates(yi int, sc *pairScratch, minCo int, fn func(xi, co int))
}

// pairIndex is the inverted doc → alive-term index over a termStats. It
// is immutable after construction and shared by all sweep workers; the
// mutable per-sweep state lives in pairScratch, one per worker.
type pairIndex struct {
	st *termStats
	// docTerms[d] lists the alive slots (indices into st.alive) of the
	// terms present in document d, ascending. Rows slice one shared slab.
	docTerms [][]int32
}

// newPairIndex inverts the alive terms' posting lists into per-document
// term lists. Cost is one pass over the postings — O(Σ df) — with a
// single backing slab shared by every row.
func newPairIndex(st *termStats) *pairIndex {
	counts := make([]int32, st.nDocs)
	total := 0
	for _, gi := range st.alive {
		st.sets[gi].ForEach(func(d int) bool {
			counts[d]++
			total++
			return true
		})
	}
	slab := make([]int32, 0, total)
	rows := make([][]int32, st.nDocs)
	for d, c := range counts {
		start := len(slab)
		slab = slab[:start+int(c)]
		rows[d] = slab[start:start:len(slab)]
	}
	// st.alive is sorted, so appending in alive order keeps each row
	// ascending by slot.
	for li, gi := range st.alive {
		st.sets[gi].ForEach(func(d int) bool {
			rows[d] = append(rows[d], int32(li))
			return true
		})
	}
	return &pairIndex{st: st, docTerms: rows}
}

// pairScratch is one worker's reusable accumulation state: a dense
// co-occurrence count array indexed by alive slot plus the list of slots
// touched during the current term's scan. Both are cleared between terms
// by walking the touched list, so a sweep allocates once per worker, not
// per pair.
type pairScratch struct {
	co      []int32
	touched []int32
}

// newScratch returns a scratch sized for this index's alive-term count.
func (ix *pairIndex) newScratch() *pairScratch {
	return &pairScratch{
		co:      make([]int32, len(ix.st.alive)),
		touched: make([]int32, 0, len(ix.st.alive)),
	}
}

// forCandidates streams term yi's candidate partners: every other alive
// slot xi whose posting list intersects yi's with |x ∩ y| ≥ minCo
// (minCo < 1 is treated as 1), in ascending slot order, with the exact
// co-occurrence count. Self-pairs are never yielded and each partner is
// yielded exactly once. sc must not be shared between concurrent calls;
// it is fully reset before forCandidates returns.
func (ix *pairIndex) forCandidates(yi int, sc *pairScratch, minCo int, fn func(xi, co int)) {
	if minCo < 1 {
		minCo = 1
	}
	ix.st.sets[ix.st.alive[yi]].ForEach(func(d int) bool {
		for _, xi := range ix.docTerms[d] {
			if sc.co[xi] == 0 {
				sc.touched = append(sc.touched, xi)
			}
			sc.co[xi]++
		}
		return true
	})
	// Touch order follows document order; sort so partners stream in
	// slot order regardless of which documents they co-occur in.
	// (slices.Sort, not sort.Slice: the latter allocates its closure on
	// every call, and forCandidates runs once per term per sweep.)
	slices.Sort(sc.touched)
	for _, xi := range sc.touched {
		co := int(sc.co[xi])
		sc.co[xi] = 0
		if int(xi) != yi && co >= minCo {
			fn(int(xi), co)
		}
	}
	sc.touched = sc.touched[:0]
}

// pairCounts is one worker's tally of sweep work, merged across workers
// and published to the obsv registry after the sweep:
//
//   - candidate: pairs the generator yielded (nonzero co-occurrence);
//   - evaluated: pairs the builder actually scored after its own cheap
//     structural filters (e.g. subsumption's df(x) > df(y));
//   - skipped: pairs the dense sweep would have iterated that the
//     pruned sweep never touched.
//
// candidate+skipped therefore reconstructs the dense sweep's iteration
// count, and (candidate+skipped)/evaluated is the pruning factor the
// stagereport experiment surfaces.
type pairCounts struct {
	candidate, evaluated, skipped int64
}

func (c *pairCounts) add(o pairCounts) {
	c.candidate += o.candidate
	c.evaluated += o.evaluated
	c.skipped += o.skipped
}

// publishPairCounts folds per-worker tallies into the registry's
// hierarchy.pairs.{candidate,evaluated,skipped} counters and records the
// sweep width in the hierarchy.sweep.terms gauge (so reports can compare
// evaluated pairs against the all-pairs count n·(n−1)/2). nil registries
// are ignored — instrumentation is opt-in.
func publishPairCounts(reg *obsv.Registry, perWorker []pairCounts, sweepTerms int) {
	if reg == nil {
		return
	}
	var total pairCounts
	for _, pc := range perWorker {
		total.add(pc)
	}
	reg.Counter("hierarchy.pairs.candidate").Add(total.candidate)
	reg.Counter("hierarchy.pairs.evaluated").Add(total.evaluated)
	reg.Counter("hierarchy.pairs.skipped").Add(total.skipped)
	reg.Gauge("hierarchy.sweep.terms").Set(int64(sweepTerms))
}

// sweepWorkers sizes per-worker state for a parallel.For sweep: worker
// IDs are in [0, max(1, workers)).
func sweepWorkers(workers int) int {
	if workers < 1 {
		return 1
	}
	return workers
}
